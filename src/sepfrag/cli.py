"""Command-line front end.

Commands: check, to-bsr, decide, gen {hierarchy,domino,hard,smp},
eliminate-eq, expand-counting, eval, equiv.  Reports are JSON on stdout
(``--format text`` for a human-readable variant).  Formulas are taken
from a positional argument, ``--file PATH``, or stdin via ``-``.

Exit codes: decide returns 0/1/2 for sat/unsat/inconclusive and 3 on
errors, internal failures included (their traceback goes to stderr);
usage errors exit 64; exceeded enumeration budgets exit 65 with the
offending bound printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from . import analysis, decide, generators, search, translate
from . import syntax as S
from .errors import BudgetExceeded, SepfragError
from .semantics import Structure, evaluate

EX_USAGE = 64
EX_BUDGET = 65
EX_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read_formula(args) -> S.Formula:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif args.formula == "-":
        text = sys.stdin.read()
    elif args.formula is not None:
        text = args.formula
    else:
        raise SepfragError("no formula given (positional, --file, or '-')")
    f, _ = S.parse_formula(text)
    return f


def _read_expanded(args) -> S.Formula:
    # for commands that need a sentence free of counting quantifiers
    return generators.expand_counting(_read_formula(args)).formula


def _read_formula_arg(value: str) -> S.Formula:
    # a positional that may name a file or carry an inline formula
    if value == "-":
        value = sys.stdin.read()
    else:
        try:
            with open(value, "r", encoding="utf-8") as fh:
                value = fh.read()
        except OSError:
            pass
    f, _ = S.parse_formula(value)
    return f


def _count(low: int):
    """argparse type: an integer of at least `low`; below it is a usage error."""

    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return count


def _emit(args, data: dict, text: str):
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(text)


def _add_formula_args(p):
    p.add_argument("formula", nargs="?", help="inline formula, or '-' for stdin")
    p.add_argument("--file", help="read the formula from a file")
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> _Parser:
    p = _Parser(prog="sepfrag", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="fragment membership, degree, and bounds")
    _add_formula_args(c)

    t = sub.add_parser("to-bsr", help="translate into an exists*forall* sentence")
    _add_formula_args(t)

    d = sub.add_parser("decide", help="decide satisfiability")
    _add_formula_args(d)
    d.add_argument("--max-size", type=_count(0), default=5)
    d.add_argument("--emit-model", help="write a SAT witness as structure JSON")

    g = sub.add_parser("gen", help="benchmark generators")
    gsub = g.add_subparsers(dest="generator", required=True)
    gh = gsub.add_parser("hierarchy")
    gh.add_argument("--kappa", type=_count(1), required=True)
    gh.add_argument("--mu", type=_count(2), required=True)
    gh.add_argument("--with-model", action="store_true")
    gh.add_argument("--format", choices=("json", "text"), default="json")
    gd = gsub.add_parser("domino")
    gd.add_argument("--spec", required=True, help="domino system JSON file")
    gd.add_argument("--kappa", type=_count(1), required=True)
    gd.add_argument("--mu", type=_count(2), required=True)
    gd.add_argument("--with-model", action="store_true")
    gd.add_argument("--format", choices=("json", "text"), default="json")
    ga = gsub.add_parser("hard")
    ga.add_argument("--n", type=_count(1), required=True)
    ga.add_argument("--with-model", action="store_true")
    ga.add_argument("--format", choices=("json", "text"), default="json")
    gs = gsub.add_parser("smp")
    gs.add_argument("--bound", type=_count(1), required=True)
    _add_formula_args(gs)

    e = sub.add_parser("eliminate-eq", help="replace equality by a fresh predicate")
    _add_formula_args(e)

    x = sub.add_parser("expand-counting", help="expand counting quantifiers")
    _add_formula_args(x)

    v = sub.add_parser("eval", help="evaluate a sentence in a structure")
    _add_formula_args(v)
    v.add_argument("--model", required=True, help="structure JSON file")

    q = sub.add_parser("equiv", help="exhaustive bounded equivalence check")
    q.add_argument("left", help="formula or file")
    q.add_argument("right", help="formula or file")
    q.add_argument("--up-to", type=_count(1), default=3)
    q.add_argument("--format", choices=("json", "text"), default="json")
    return p


def _cmd_check(args) -> int:
    f = _read_expanded(args)
    sf = S.to_standard_form(f)
    report = analysis.analyze(sf).to_json()
    if report["is_sf"]:
        report["bounds"] = analysis.bounds(sf).to_json()
    else:
        report["bounds"] = None
    _emit(
        args,
        report,
        "\n".join(f"{k}: {v}" for k, v in report.items()),
    )
    return 0


def _cmd_to_bsr(args) -> int:
    f = _read_expanded(args)
    started = time.monotonic()
    bsr = translate.to_bsr(S.to_standard_form(f))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    text = S.print_formula(bsr.to_formula())
    stats = {
        "leading_existentials": bsr.stats.leading_existentials,
        "lemma12_bound": bsr.stats.bound.to_json(),
        "elapsed_ms": elapsed_ms,
    }
    _emit(
        args,
        {"formula": text, "stats": stats},
        text + "\n" + json.dumps(stats),
    )
    return 0


_SCALARS = (str, int, bool, type(None))


def _cmd_decide(args) -> int:
    f = _read_formula(args)
    cfg = decide.DecideConfig(max_model_size=args.max_size)
    verdict = decide.decide_sat(f, cfg)
    data = {
        "status": verdict.status,
        "model": json.loads(verdict.structure.to_json()) if verdict.structure else None,
        "bound": verdict.bound.to_json() if verdict.bound is not None else None,
        "details": {
            k: v
            for k, v in verdict.details.items()
            if all(isinstance(x, _SCALARS) for x in (v if type(v) is list else [v]))
        },
    }
    if args.emit_model and verdict.structure is not None:
        with open(args.emit_model, "w", encoding="utf-8") as fh:
            fh.write(verdict.structure.to_json())
    _emit(args, data, verdict.status)
    return verdict.exit_code


def _gen_output(args, formula: S.Formula, model) -> int:
    text = S.print_formula(formula)
    model_json = json.loads(model.to_json()) if model is not None else None
    if args.format == "json":
        print(json.dumps({"formula": text, "model": model_json}, indent=2))
    else:
        print(text)
        if model_json is not None:
            print(json.dumps(model_json))
    return 0


def _cmd_gen(args) -> int:
    if args.generator == "hierarchy":
        p = generators.HierarchyParams(args.kappa, args.mu)
        f = generators.generate_index_hierarchy(p)
        model = generators.canonical_hierarchy_model(p) if args.with_model else None
        return _gen_output(args, f, model)
    if args.generator == "domino":
        with open(args.spec, "r", encoding="utf-8") as fh:
            system, word = generators.DominoSystem.from_json(fh.read())
        p = generators.HierarchyParams(args.kappa, args.mu)
        f = generators.generate_domino_encoding(system, word, p)
        model = None
        if args.with_model:
            t = p.torus_size().evaluate()
            if t is None:
                raise SepfragError("torus too large for a canonical model")
            tiling = generators.brute_force_tiler(system, word, t)
            if tiling is None:
                raise SepfragError("the system does not tile this torus")
            model = generators.canonical_domino_model(system, word, p, tiling)
        return _gen_output(args, f, model)
    if args.generator == "hard":
        f = generators.generate_hard_family(args.n)
        model = generators.hard_family_model(args.n) if args.with_model else None
        return _gen_output(args, f, model)
    # smp
    f = _read_expanded(args)
    out = generators.smp_to_sf(S.to_nnf(f), args.bound)
    return _gen_output(args, out, None)


def _cmd_eliminate_eq(args) -> int:
    f = _read_expanded(args)
    text = S.print_formula(generators.sf_equality_elim(S.to_standard_form(f)))
    _emit(args, {"formula": text}, text)
    return 0


def _cmd_expand_counting(args) -> int:
    f = _read_formula(args)
    out = generators.expand_counting(f)
    data = {
        "formula": S.print_formula(out.formula),
        "breaks_separation": out.breaks_separation,
        "sites": out.sites,
    }
    _emit(args, data, data["formula"])
    return 0


def _cmd_eval(args) -> int:
    f = _read_formula(args)
    with open(args.model, "r", encoding="utf-8") as fh:
        structure = Structure.from_json(fh.read())
    value = evaluate(structure, {}, f)
    _emit(args, {"value": value}, "true" if value else "false")
    return 0


def _cmd_equiv(args) -> int:
    left = _read_formula_arg(args.left)
    right = _read_formula_arg(args.right)
    verdict = search.equivalent_upto(left, right, args.up_to)
    if verdict.equal:
        _emit(args, {"equal": True, "counterexample": None}, "equal")
    else:
        cx = verdict.counterexample
        data = {
            "equal": False,
            "counterexample": {
                "structure": json.loads(cx.structure.to_json()),
                "assignment": cx.assignment,
                "which": cx.which,
            },
        }
        _emit(args, data, f"different ({cx.which} formula is true)")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "to-bsr": _cmd_to_bsr,
    "decide": _cmd_decide,
    "gen": _cmd_gen,
    "eliminate-eq": _cmd_eliminate_eq,
    "expand-counting": _cmd_expand_counting,
    "eval": _cmd_eval,
    "equiv": _cmd_equiv,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EX_BUDGET
    except SepfragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ERROR
    except Exception:
        # an internal failure must never read as a verdict
        traceback.print_exc()
        return EX_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepfrag import cli
from sepfrag.cli import run
from sepfrag.syntax import MAX_NESTING, parse_formula


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_sf_sentence(capsys):
    code, out = run_capture(capsys, ["check", "forall x. exists y. P(x) | Q(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["is_sf"] is True
    assert data["degree"] == 1
    assert data["bounds"]["prop6"] == 4


def test_check_reports_exact_bounds_too_long_to_print(capsys):
    # the degree bound 17 + 34*2↑2(17)^2 is exact at 262,150 bits, past the
    # 4,300 digits str() prints, so it reads as a lower bound
    text = "forall x1. exists y1. forall x2. exists y2. R(y1, y2) & P(x1) & P(x2)"
    code, out = run_capture(capsys, ["check", text])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    expr1 = data["bounds"]["expr1"]
    assert expr1["exact"] is None and expr1["lower_bound"] == ">=2^262149"
    assert data["bounds"]["lemma12"]["exact"] == 64


@pytest.mark.parametrize(
    "text, degree, bounds",
    [
        (
            "forall x. exists y. P(x) | Q(y)",
            1,
            {
                "lemma12": {"expr": "0 + 1*2↑1(1)^1", "exact": 2, "lower_bound": None},
                "expr1": {"expr": "9 + 9*2↑1(9)^1", "exact": 4617, "lower_bound": None},
                "prop9": {"expr": "9 + 9*2↑1(9)^1", "exact": 4617, "lower_bound": None},
                "prop5": None,
                "prop6": 4,
            },
        ),
        (
            "forall x1. exists y1. forall x2. exists y2. "
            "(P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))",
            2,
            {
                "lemma12": {"expr": "0 + 4*2↑2(3)^2", "exact": 262144, "lower_bound": None},
                "expr1": {
                    "expr": "22 + 44*2↑2(22)^2", "exact": None,
                    "lower_bound": ">=2^1048576", "tower_height": 2,
                },
                "prop9": {
                    "expr": "22 + 44*2↑2(22)^2", "exact": None,
                    "lower_bound": ">=2^1048576", "tower_height": 2,
                },
                "prop5": None,
                "prop6": None,
            },
        ),
        (
            "forall x1. exists y1. forall x2. exists y2. forall x3. exists y3. "
            "(P(x1) | R(y1, y2)) & (Q(x2) | R(y2, y3)) & (P(x3) | ~R(y3, y1))",
            3,
            {
                "lemma12": {
                    "expr": "0 + 9*2↑3(4)^3", "exact": None,
                    "lower_bound": ">=2^196611", "tower_height": 3,
                },
                "expr1": {
                    "expr": "33 + 99*2↑3(33)^3", "exact": None,
                    "lower_bound": ">=2^1048576", "tower_height": 3,
                },
                "prop9": {
                    "expr": "33 + 99*2↑3(33)^3", "exact": None,
                    "lower_bound": ">=2^1048576", "tower_height": 3,
                },
                "prop5": None,
                "prop6": None,
            },
        ),
    ],
)
def test_check_bounds_by_degree(capsys, text, degree, bounds):
    # exact, too long to print, and saturated tower bounds
    code, out = run_capture(capsys, ["check", text])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == degree and data["bounds"] == bounds


def test_check_field_names(capsys):
    code, out = run_capture(capsys, ["check", "forall x. exists y. P(x) | Q(y)"])
    data = json.loads(out)
    assert {"degree", "components", "levels", "bounds"} <= set(data)
    assert {"lemma12", "expr1", "prop9", "prop5", "prop6"} == set(data["bounds"])


def test_to_bsr_stats(capsys):
    code, out = run_capture(capsys, ["to-bsr", "forall x. exists y. P(x) | Q(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["stats"]["leading_existentials"] >= 1
    assert "elapsed_ms" in data["stats"]


def test_decide_exit_codes(capsys):
    assert run(["decide", "exists z. P(z)"]) == 0
    capsys.readouterr()
    assert run(["decide", "exists z. P(z) & ~P(z)"]) == 1
    capsys.readouterr()


def test_decide_translation_bound_only_without_one_element_model(capsys):
    code, out = run_capture(capsys, ["decide", "forall x. exists y. P(x) | Q(y)"])
    assert code == 0
    details = json.loads(out)["details"]
    assert "translation_bound" not in details and "degree_bound" not in details
    code, out = run_capture(
        capsys, ["decide", "forall x11 x12. exists y11. (~P(y11) & Q(x12)) & P(x11)"]
    )
    assert code == 1
    details = json.loads(out)["details"]
    assert details["translation_bound"] == 1
    assert "degree_bound" in details


def test_decide_ground_equational_golden(capsys):
    code, out = run_capture(
        capsys, ["decide", "exists x y. P(x) & ~P(y) & (x = c | y = c) & R(c, x)"]
    )
    assert code == 0
    assert json.loads(out) == {
        "status": "sat",
        "model": {
            "universe": ["c", "sk1"],
            "constants": {"c": "c", "sk1": "sk1", "sk2": "c"},
            "predicates": {"P": [["sk1"]], "R": [["c", "sk1"]]},
        },
        "bound": None,
        "details": {
            "backend": "cdcl",
            "path": "propositional",
            "equality_eliminated": True,
            "variables": 12,
            "clauses": 39,
        },
    }


def test_decide_wide_ground_exit_0(capsys):
    # past the distribution budget, but two gates in definitional CNF
    wide = [" & ".join(f"{p}(a{i})" for i in range(1, 1002)) for p in "PQ"]
    code, out = run_capture(capsys, ["decide", f"({wide[0]}) | ({wide[1]})"])
    assert code == 0 and json.loads(out)["status"] == "sat"


def test_decide_lists_sat_sizes(capsys):
    data = str(Path(__file__).resolve().parent.parent / "bench" / "data" / "hierarchy12.txt")
    code, out = run_capture(capsys, ["decide", "--file", data, "--max-size", "2"])
    assert code == 2
    assert json.loads(out)["details"]["sat_sizes"] == [2]


def test_decide_emit_model(tmp_path, capsys):
    target = tmp_path / "model.json"
    code = run(["decide", "exists z. P(z)", "--emit-model", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["universe"]


def test_gen_hard_with_model(capsys):
    code, out = run_capture(capsys, ["gen", "hard", "--n", "1", "--with-model"])
    assert code == 0
    data = json.loads(out)
    assert "P1" in data["formula"]
    assert len(data["model"]["universe"]) == 12


def test_gen_hierarchy(capsys):
    code, out = run_capture(
        capsys, ["gen", "hierarchy", "--kappa", "1", "--mu", "2", "--with-model"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["model"]["universe"]) == 9


def test_gen_smp(capsys):
    code, out = run_capture(
        capsys, ["gen", "smp", "--bound", "2", "forall x. exists y. R(x, y)"]
    )
    assert code == 0
    data = json.loads(out)
    assert "Q1" in data["formula"]


def test_gen_domino(tmp_path, capsys):
    spec = tmp_path / "domino.json"
    spec.write_text(
        json.dumps({"tiles": ["A"], "H": [["A", "A"]], "V": [["A", "A"]], "word": ["A"]})
    )
    code, out = run_capture(
        capsys,
        ["gen", "domino", "--spec", str(spec), "--kappa", "1", "--mu", "2", "--with-model"],
    )
    assert code == 0
    data = json.loads(out)
    assert "H(" in data["formula"]
    assert data["model"] is not None


def test_equiv_equal(capsys):
    code, out = run_capture(
        capsys,
        [
            "equiv",
            "--up-to",
            "3",
            "exists x. P(x) | Q(x)",
            "(exists x. P(x)) | (exists y. Q(y))",
        ],
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_equiv_counterexample(capsys):
    code, out = run_capture(
        capsys,
        [
            "equiv",
            "--up-to",
            "2",
            "forall x. P(x) | Q(x)",
            "(forall x. P(x)) | (forall y. Q(y))",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["counterexample"]["structure"]["universe"]


def test_equiv_reads_files(tmp_path, capsys):
    a = tmp_path / "a.fol"
    b = tmp_path / "b.fol"
    a.write_text("exists x. P(x)")
    b.write_text("exists y. P(y)")
    code, out = run_capture(capsys, ["equiv", str(a), str(b)])
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_eval_command(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(
            {
                "universe": ["a", "b"],
                "constants": {"c": "a"},
                "predicates": {"P": [["a"]]},
            }
        )
    )
    code, out = run_capture(capsys, ["eval", "--model", str(model), "exists x. P(x)"])
    assert code == 0
    assert json.loads(out)["value"] is True


def test_eval_arity_mismatch_exits_3(tmp_path, capsys):
    # P is interpreted as binary but used with one argument
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"universe": ["a", "b"], "predicates": {"P": [["a", "b"]]}}))
    assert run(["eval", "--model", str(model), "exists x. P(x)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: predicate 'P' is used with 1 arguments")


def test_expand_counting_command(capsys):
    code, out = run_capture(capsys, ["expand-counting", "exists>=2 y. P(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["sites"] == 1 and not data["breaks_separation"]


def test_eliminate_eq_command(capsys):
    code, out = run_capture(capsys, ["eliminate-eq", "forall j. j = j"])
    assert code == 0
    assert "E(" in json.loads(out)["formula"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_eliminate_eq_prints_the_formula_once(capsys, monkeypatch, fmt):
    # printing is linear in the tree, not the DAG: a second print doubled
    # the cost of the command on nested <->
    calls = []
    printer = cli.S.print_formula
    monkeypatch.setattr(cli.S, "print_formula", lambda f: calls.append(f) or printer(f))
    code, out = run_capture(capsys, ["eliminate-eq", "--format", fmt, "forall j. j = j"])
    assert code == 0 and len(calls) == 1
    text = json.loads(out)["formula"] if fmt == "json" else out.rstrip("\n")
    assert text == (
        "(forall j. E(j, j)) & (forall w1. E(w1, w1))"
        " & (forall w11 w2. E(w11, w2) -> E(w2, w11))"
        " & (forall w12 w21 w3. E(w12, w21) & E(w21, w3) -> E(w12, w3))"
    )


@pytest.mark.parametrize(
    "argv", [["check"], ["to-bsr"], ["eliminate-eq"], ["gen", "smp", "--bound", "2"]]
)
def test_commands_expand_counting_quantifiers(capsys, argv):
    # each reported on the expansion; before, each exited 3 with
    # "expand counting quantifiers before NNF"
    code, out = run_capture(capsys, argv + ["forall x. P(x) | (exists>=2 y. Q(y))"])
    assert code == 0
    assert isinstance(json.loads(out), dict)


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as e:
        run(["decide", "--max-size", "wat", "true"])
    assert e.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["equiv", "--up-to", "0", "P(a)", "~P(a)"],
        ["equiv", "--up-to", "-1", "P(a)", "P(a)"],
        ["decide", "--max-size", "-3", "forall x. P(x)"],
        ["gen", "hierarchy", "--kappa", "0", "--mu", "2"],
        ["gen", "hierarchy", "--kappa", "1", "--mu", "1"],
        ["gen", "domino", "--spec", "unread.json", "--kappa", "1", "--mu", "-1"],
        ["gen", "hard", "--n", "0"],
        ["gen", "smp", "--bound", "0", "forall x. P(x)"],
    ],
    ids=[
        "up-to-0", "up-to-negative", "max-size-negative", "hierarchy-kappa-0",
        "hierarchy-mu-1", "domino-mu-negative", "hard-n-0", "smp-bound-0",
    ],
)
def test_out_of_range_size_is_a_usage_error(capsys, argv):
    # nothing would be compared or searched, so no verdict may be printed
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 64
    assert capsys.readouterr().out == ""


def test_decide_max_size_zero_is_inconclusive(capsys):
    code, out = run_capture(capsys, ["decide", "--max-size", "0", "forall x. P(x)"])
    assert code == 2
    assert json.loads(out)["details"]["search_limit"] == 0


@pytest.mark.parametrize("command", ["check", "decide"])
def test_file_option_reads_and_closes_the_file(tmp_path, capsys, command):
    # an unclosed file would raise a ResourceWarning, an error under the
    # test settings
    path = tmp_path / "f.fol"
    path.write_text("forall x. exists y. P(x) | Q(y)")
    code, out = run_capture(capsys, [command, "--file", str(path)])
    assert code == 0
    assert json.loads(out)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"word": ["A"]}',
        '{"universe": "ab", "predicates": {"P": ["ab"]}}',
        '{"tiles": "AB", "H": ["AB"], "V": ["AA"]}',
    ],
    ids=["not-json", "list", "no-keys", "string-structure", "string-domino"],
)
@pytest.mark.parametrize("command", ["eval", "gen-domino"])
def test_malformed_json_file_is_an_input_error(tmp_path, capsys, command, text):
    # one error line, not an internal failure with a traceback
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {
        "eval": ["eval", "--model", str(path), "exists x. P(x)"],
        "gen-domino": ["gen", "domino", "--spec", str(path), "--kappa", "1", "--mu", "2"],
    }[command]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: malformed")


def test_parse_error_exit_3(capsys):
    assert run(["check", "forall . P(c)"]) == 3


def test_internal_failure_exits_3(capsys, monkeypatch):
    # an internal failure is an error with a traceback, never a verdict
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._COMMANDS, "check", crash)
    assert run(["check", "P(a)"]) == 3
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "~" * 3000 + "P(a)",
        "(" * 600 + "P(a)" + ")" * 600,
        " -> ".join(["P(a)"] * 3000),
        " <-> ".join(["P(a)"] * 3000),
    ],
    ids=["negations", "parentheses", "implications", "equivalences"],
)
def test_deep_nesting_is_a_parse_error(capsys, text):
    assert run(["check", text]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("arrow", ["->", "<->"])
def test_arrow_chain_at_the_limit_parses(capsys, arrow):
    text = f" {arrow} ".join(f"P(a{i})" for i in range(MAX_NESTING + 1))
    code, out = run_capture(capsys, ["expand-counting", text])
    assert code == 0
    assert parse_formula(json.loads(out)["formula"]) == parse_formula(text)


def test_deep_satisfiable_input_never_exits_unsat(capsys):
    # satisfiable, and deep enough to exhaust the stack of a recursive solver
    f = " & ".join(f"(P(a{i}) | P(b{i}) | P(c{i}))" for i in range(400))
    assert run(["decide", f]) == 0
    capsys.readouterr()


def test_stdin_formula(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("exists x. P(x)"))
    code, out = run_capture(capsys, ["decide", "-"])
    assert code == 0


def test_text_format(capsys):
    code, out = run_capture(
        capsys, ["decide", "exists z. P(z)", "--format", "text"]
    )
    assert out.strip() == "sat"


def test_budget_exit_65(capsys):
    code = run(
        [
            "equiv",
            "--up-to",
            "3",
            "forall x y z. R(x, y, z) | T(y, x, z)",
            "forall x y z. T(y, x, z) | R(x, y, z)",
        ]
    )
    err = capsys.readouterr().err
    assert code == 65
    assert "budget" in err


def test_cli_import_leaves_numpy_out():
    # sepfrag needs no third-party package at run time
    code = "import sys, sepfrag.cli; sys.exit('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "numpy was imported"

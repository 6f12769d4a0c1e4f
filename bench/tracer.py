"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces public functions of the sepfrag modules with
wrappers that time each call; `uninstall` puts the originals back.  A span
covers one call of a wrapped function; its self time excludes the wrapped
calls nested inside it, and it is attributed to its parent span in
`edges`.  A function that re-enters itself (scope_minimized recurses) is
timed once, at its outermost call.  Spans are aggregated in memory, never
written while the benchmark runs.

Counts taken from arguments and return values are kept per operation and
dropped for an operation that hits its deadline, so that they repeat
exactly from run to run; times include every operation.
"""

from __future__ import annotations

import time

from sepfrag import analysis, decide, generators, search, semantics, syntax, translate
from sepfrag.errors import BudgetExceeded


def _bsr_counts(args, result, exc):
    if isinstance(exc, BudgetExceeded):
        return {"budget_exceeded": 1}
    if exc is not None:
        return {}
    return {
        "returned": 1,
        "factored": int(result.stats.strategy == "factored"),
        "dedup_hits": result.stats.dedup_count,
        "leading_total": result.stats.leading_existentials,
    }


def _cnf_counts(args, result, exc):
    return {} if exc else {"clauses": len(result.clauses)}


def _prop_cnf_counts(args, result, exc):
    return {} if exc else {"vars": result.num_vars, "clauses": len(result.clauses)}


def _find_model_counts(args, result, exc):
    return {} if exc else {"found": int(result is not None)}


def _chunk_counts(args, result, exc):
    return {"structures": 1 << args[0].chunk_bits}


# (metric prefix, [(owner, attribute) patched with the same wrapper], counter)
# The extra owners are names bound by `from ... import` in other modules.
TARGETS = [
    ("syntax.parse_formula", [(syntax, "parse_formula")], None),
    ("syntax.to_standard_form", [(syntax, "to_standard_form")], None),
    ("syntax.cnf_matrix", [(syntax, "cnf_matrix")], _cnf_counts),
    ("analysis.bounds", [(analysis, "bounds")], None),
    ("analysis.is_sf", [(analysis, "is_sf")], None),
    ("generators.expand_counting", [(generators, "expand_counting"), (decide, "expand_counting")], None),
    ("generators.smp_to_sf", [(generators, "smp_to_sf")], None),
    ("translate.to_bsr", [(translate, "to_bsr")], _bsr_counts),
    ("decide.skolemize_existential", [(decide, "skolemize_existential")], None),
    ("decide.to_propositional", [(decide, "to_propositional")], None),
    ("decide.prop_cnf", [(decide, "prop_cnf")], _prop_cnf_counts),
    ("decide.horn_sat", [(decide, "horn_sat")], None),
    ("decide.krom_sat", [(decide, "krom_sat")], None),
    ("decide.dpll_sat", [(decide, "dpll_sat")], None),
    ("search.find_model", [(search, "find_model"), (decide, "find_model")], _find_model_counts),
    ("search.equivalent_upto", [(search, "equivalent_upto")], None),
    ("search.scope_minimized", [(search, "scope_minimized")], None),
    ("search.eval_chunk", [(search.GroundSpace, "eval_chunk")], _chunk_counts),
    ("semantics.evaluate", [(semantics, "evaluate"), (decide, "evaluate"), (search, "evaluate")], None),
]


class Tracer:
    def __init__(self):
        self.self_ns = {name: 0 for name, _, _ in TARGETS}
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.counts = {}
        self.edges = {}  # (parent or None, child) -> [calls, ns]
        self.covered_ns = 0  # time inside outermost spans
        self._op_calls = {}
        self._op_counts = {}
        self._stack = []  # [name, ns spent in child spans]
        self._depth = {name: 0 for name, _, _ in TARGETS}
        self._saved = []

    def install(self):
        for name, owners, counter in TARGETS:
            fn = getattr(*owners[0])
            wrapper = self._wrap(name, fn, counter)
            for owner, attr in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def end_op(self, completed: bool):
        """Close the bookkeeping of one operation.  A deadline can strike
        inside a wrapper's own bookkeeping, so the stack is reset here."""
        if completed:
            for name, n in self._op_calls.items():
                self.calls[name] += n
            for key, n in self._op_counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
        self._op_calls.clear()
        self._op_counts.clear()
        self._stack.clear()
        for name in self._depth:
            self._depth[name] = 0

    def _wrap(self, name, fn, counter):
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            frame = [name, 0]
            stack.append(frame)
            result = exc = None
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                self.self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                else:
                    self.covered_ns += elapsed
                    parent = None
                edge = self.edges.setdefault((parent, name), [0, 0])
                edge[0] += 1
                edge[1] += elapsed
                self._op_calls[name] = self._op_calls.get(name, 0) + 1
                # neither set: a deadline struck before `exc` was bound
                if counter is not None and (done or exc is not None):
                    for key, n in counter(args, result, exc).items():
                        key = f"{name}.{key}"
                        self._op_counts[key] = self._op_counts.get(key, 0) + n

        return wrapper

    def metrics(self, passes: int, scale: float) -> dict:
        """Per-layer metrics for one pass over the corpus; times are
        multiplied by `scale`, the run's machine-speed factor."""
        c = self.counts
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.s"] = self.self_ns[name] / 1e9 / passes * scale
        per_pass = {
            "syntax.cnf_matrix.clauses": c.get("syntax.cnf_matrix.clauses", 0),
            "translate.to_bsr.calls": self.calls["translate.to_bsr"],
            "translate.to_bsr.budget_exceeded": c.get("translate.to_bsr.budget_exceeded", 0),
            "translate.to_bsr.dedup_hits": c.get("translate.to_bsr.dedup_hits", 0),
            "translate.to_bsr.leading_total": c.get("translate.to_bsr.leading_total", 0),
            "decide.prop_cnf.vars": c.get("decide.prop_cnf.vars", 0),
            "decide.prop_cnf.clauses": c.get("decide.prop_cnf.clauses", 0),
            "decide.horn_sat.calls": self.calls["decide.horn_sat"],
            "decide.krom_sat.calls": self.calls["decide.krom_sat"],
            "decide.dpll_sat.calls": self.calls["decide.dpll_sat"],
            "search.find_model.calls": self.calls["search.find_model"],
            "search.eval_chunk.calls": self.calls["search.eval_chunk"],
            "search.eval_chunk.structures": c.get("search.eval_chunk.structures", 0),
            "semantics.evaluate.calls": self.calls["semantics.evaluate"],
        }
        for key, n in per_pass.items():
            out[key] = n / passes
        returned = c.get("translate.to_bsr.returned", 0)
        out["translate.to_bsr.factored_frac"] = c.get("translate.to_bsr.factored", 0) / returned if returned else 0.0
        found_of = self.calls["search.find_model"]
        out["search.find_model.found_frac"] = c.get("search.find_model.found", 0) / found_of if found_of else 0.0
        return out

"""Answer checker, run after the timed loop.

SAT answers are checked with sepfrag's reference evaluator on the input
text.  UNSAT answers are checked against the benchmark's own grounding in
`logic`, solved by sympy, never against sepfrag's solvers, except where a
first-order grounding exceeds its cap: then `equivalent_upto(f, false,
bound)` stands in, and the report counts how many answers each way
checked.  Equivalence answers are checked against what the paper's
theorems guarantee.
"""

from __future__ import annotations

from sepfrag import syntax as S
from sepfrag.search import equivalent_upto
from sepfrag.semantics import evaluate

import logic


class Checker:
    def __init__(self):
        self.ways = {"evaluate": 0, "ground_sympy": 0, "oracle": 0, "theorem": 0}
        self._memo = {}

    def check(self, index, op, answer):
        """None when the answer is accepted, else the reason it is not.
        `answer` is the value `run.execute` returned for `op`."""
        key = (index, _answer_key(answer))
        if key not in self._memo:
            self._memo[key] = self._check(op, answer)
        return self._memo[key]

    def _check(self, op, answer):
        if op.kind in ("to_bsr", "hard1_bsr", "smp"):
            self.ways["theorem"] += 1
            return None if answer.equal else "translation and input differ"
        if op.kind == "negation":
            cex = answer.counterexample
            if answer.equal or cex is None:
                return "f and ~f reported equal"
            self.ways["evaluate"] += 1
            f, _ = S.parse_formula(op.text)
            if evaluate(cex.structure, cex.assignment, f) != (cex.which == "left"):
                return "counterexample does not separate f from ~f"
            return None
        if answer.status == "sat":
            self.ways["evaluate"] += 1
            f, _ = S.parse_formula(op.text)
            return None if evaluate(answer.structure, {}, f) else "returned structure is not a model"
        if answer.status != "unsat":
            return None
        if op.size == 0:  # decide-ground: no universals, no model size
            self.ways["ground_sympy"] += 1
            return "sympy finds the grounding satisfiable" if logic.ground_satisfiable(op.tree) else None
        bound = answer.details["bound"]
        try:
            for size in range(1, bound + 1):
                if logic.has_model_of_size(op.tree, size):
                    return f"sympy finds a model of size {size}"
            self.ways["ground_sympy"] += 1
            return None
        except logic.TooBig:
            self.ways["oracle"] += 1
            f, _ = S.parse_formula(op.text)
            if equivalent_upto(f, S.Bottom(), bound).equal:
                return None
            return f"equivalent_upto finds a model within size {bound}"


def _answer_key(answer):
    if hasattr(answer, "status"):
        s = answer.structure
        return answer.status, s.to_json() if s is not None else None
    cex = answer.counterexample
    if cex is None:
        return answer.equal, None
    return answer.equal, cex.structure.to_json(), tuple(sorted(cex.assignment.items())), cex.which

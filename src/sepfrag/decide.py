"""Satisfiability decision.

Sentences without universal quantifiers go through the propositional
route: substitute fresh constants for the leading existential block of
the standard form, whose matrix is already quantifier-free and in NNF,
turn ground equations into a fresh predicate whose axioms become clauses,
abstract atoms to signed ints in one negation-pushing walk
(`to_propositional`), distribute to CNF (`prop_cnf`) and decide it with
one CDCL solver (`dpll_sat`), whose SAT assignment is re-checked against
the sentence as a Herbrand model.  Everything else is decided by bounded
model search against the best available small-model bound.  The search
tries size 1, on the sentence as written, before the bound is complete:
a one-element model is below every bound, so the translation to BSR form
runs only when size 1 has no model, and only counts the leading
existentials that give its bound.  Larger sizes share one prepared form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from . import analysis
from . import syntax as S
from . import translate
from .errors import BudgetExceeded, HasUniversals, NotGround, NotHorn, NotKrom
from .search import ModelSearch, find_model  # noqa: F401  (bench/tracer.py wraps it)
from .semantics import Structure, evaluate
from .generators import expand_counting

SKOLEM_PREFIX = "sk"


# ---------------------------------------------------------------------------
# Skolemization of purely existential sentences


def skolemize_existential(sf: S.StandardForm) -> S.Formula:
    """Replace each variable of the leading block of a universal-free
    standard form with a fresh constant sk1, sk2, ... in block order; the
    result is the ground, equisatisfiable matrix.  Each name avoids the
    matrix's constants and the block's variables.  The standard form is
    already a counting-free sentence in NNF, so nothing else is checked."""
    if sf.blocks:
        raise HasUniversals(f"universal variables {sorted(sf.universal_vars)}")
    fresh = S.FreshNames(S.constants_of(sf.matrix) | set(sf.leading))
    binding = {
        v: S.Const(fresh.fresh(f"{SKOLEM_PREFIX}{i}")) for i, v in enumerate(sf.leading, 1)
    }
    return S.substitute(sf.matrix, binding)


# ---------------------------------------------------------------------------
# ground equality elimination


def ground_equality_elim(g: S.Formula) -> S.Formula:
    """Replace ground equations c = d with E(c, d) and append the ground
    instances of `equality_axioms`, each as its conclusion alone or as
    premises -> conclusion."""
    if S.free_vars(g) or not S.is_quantifier_free(g):
        raise NotGround("input must be ground")
    replaced, ename = S.equality_as_predicate(g, S.infer_signature(g).predicates)
    axioms = [S.Implies(S.conj(p), c) if p else c for p, c in equality_axioms(g, ename)]
    return S.conj([replaced] + axioms)


def equality_axioms(g: S.Formula, ename: str):
    """Ground instances of reflexivity, symmetry and transitivity of the
    predicate `ename` over the constants of g, then of congruence, as
    (premises, conclusion) pairs of atoms.

    Congruence instances are restricted to pairs of non-equational atoms
    that actually occur in g, which keeps the output cubic in the length
    of g."""
    consts = sorted(S.constants_of(g))
    e = {(c, d): S.Pred(ename, (S.Const(c), S.Const(d))) for c, d in product(consts, repeat=2)}
    for c in consts:
        yield (), e[c, c]
    for c, d in product(consts, repeat=2):
        if c != d:
            yield (e[c, d],), e[d, c]
    for c, d, f in product(consts, repeat=3):
        if c != d or d != f:
            yield (e[c, d], e[d, f]), e[c, f]
    occurring: dict[str, dict] = {}
    for a in S.atoms_iter(g):
        if isinstance(a, S.Pred):
            occurring.setdefault(a.name, {})[tuple(t.name for t in a.args)] = a
    for _, atoms in sorted(occurring.items()):
        for left, right in product(sorted(atoms), repeat=2):
            if left != right:
                prem = tuple(e[c, d] for c, d in zip(left, right))
                yield prem + (atoms[left],), atoms[right]


# ---------------------------------------------------------------------------
# propositional abstraction


@dataclass(frozen=True)
class AtomMap:
    """Bijection between the ground atoms of a formula and propositional
    variables: atoms[v - 1] is variable v, in first-occurrence order."""

    atoms: tuple[S.Pred, ...]


@dataclass(frozen=True)
class PropCnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]  # nonzero ints; +v / -v encode polarity


def to_propositional(g: S.Formula, axioms=()):
    """Abstract each distinct ground atom of g to a propositional variable
    and push negation down to the variables, in one walk
    (`syntax.nnf_tree`), so Horn stays Horn and Krom stays Krom.
    Variables are numbered 1, 2, ... in first-occurrence order.  Each
    (premises, conclusion) pair of ground atoms in `axioms` is added as
    the clause ("|", [-p..., c]), its new atoms numbered after g's.
    Returns the tree and the atom map."""
    index: dict[S.Pred, int] = {}

    def var(a) -> int:
        v = index.get(a)
        if v is None:
            if type(a) is not S.Pred or any(type(t) is not S.Const for t in a.args):
                raise NotGround("expected ground atoms without equations")
            v = index[a] = len(index) + 1
        return v

    tree = S.nnf_tree(g, var)
    clauses = [("|", [-var(p) for p in prem] + [var(c)]) for prem, c in axioms]
    return (("&", [tree, *clauses]) if clauses else tree), AtomMap(tuple(index))


def prop_cnf(tree, amap: AtomMap) -> PropCnf:
    """`syntax.distribute` of a `to_propositional` tree, with literals
    ordered as `syntax.cnf_matrix` orders atoms q0, q1, ... named after
    variables 1, 2, ..."""
    clauses = S.distribute(tree, lambda v: (f"q{abs(v) - 1}", v < 0))
    return PropCnf(len(amap.atoms), tuple(clauses))


# ---------------------------------------------------------------------------
# the propositional solver


@dataclass(frozen=True)
class SatVerdict:
    status: str  # "sat" | "unsat" | "inconclusive"
    structure: Optional[Structure] = None
    assignment: Optional[dict] = None
    bound: Optional[analysis.TetrationExpr] = None
    details: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {"sat": 0, "unsat": 1, "inconclusive": 2}[self.status]


def dpll_sat(c: PropCnf) -> SatVerdict:
    """Complete CDCL: two watched literals, first-UIP clause learning and
    non-chronological backjumping, without restarts, activity or clause
    deletion.  Each decision sets the lowest unassigned variable false, so
    on a Horn set every true variable is forced at level 0 and nothing
    conflicts above it; on a 2-CNF set every learnt clause has at most two
    literals."""
    n = c.num_vars
    unsat = SatVerdict("unsat", details={"backend": "cdcl"})
    # val and watches are indexed by literal: -v wraps to the back half
    val = [0] * (2 * n + 1)  # 1 true, -1 false, 0 unassigned
    watches: list[list] = [[] for _ in range(2 * n + 1)]
    level = [0] * (n + 1)
    reason: list = [None] * (n + 1)  # implying clause, implied literal first
    trail: list[int] = []
    starts: list[int] = []  # trail length at the start of each decision level

    def enqueue(lit, why):
        val[lit], val[-lit] = 1, -1
        level[abs(lit)] = len(starts)
        reason[abs(lit)] = why
        trail.append(lit)

    # a tautology needs no special case: it can never become unit
    for cl in c.clauses:
        lits = list(dict.fromkeys(cl))  # the two watched literals must differ
        if len(lits) > 1:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        elif not lits or val[lits[0]] == -1:
            return unsat
        elif not val[lits[0]]:
            enqueue(lits[0], None)

    head = 0
    nxt = 1  # no variable below nxt is unassigned
    while True:
        conflict = None
        while head < len(trail) and conflict is None:
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            watches[false_lit] = kept = []
            for i, cl in enumerate(ws):
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], false_lit
                first = cl[0]
                if val[first] == 1:
                    kept.append(cl)
                    continue
                for j in range(2, len(cl)):
                    lit = cl[j]
                    if val[lit] != -1:
                        cl[1], cl[j] = lit, false_lit
                        watches[lit].append(cl)
                        break
                else:
                    kept.append(cl)
                    if val[first] == -1:
                        kept.extend(ws[i + 1 :])
                        conflict = cl
                        break
                    enqueue(first, cl)

        if conflict is None:
            while nxt <= n and val[nxt]:
                nxt += 1
            if nxt > n:
                assignment = {v: val[v] == 1 for v in range(1, n + 1)}
                return SatVerdict("sat", assignment=assignment, details={"backend": "cdcl"})
            starts.append(len(trail))
            enqueue(-nxt, None)
            continue
        if not starts:
            return unsat

        # resolve back to the first unique implication point of this level
        learnt = [0]
        seen = set()
        pending = 0
        walk = reversed(trail)
        cl = conflict
        while True:
            for lit in cl:
                v = abs(lit)
                if v not in seen and level[v]:
                    seen.add(v)
                    if level[v] == len(starts):
                        pending += 1
                    else:
                        learnt.append(lit)
            uip = next(lit for lit in walk if abs(lit) in seen)
            pending -= 1
            if not pending:
                break
            cl = reason[abs(uip)]
        learnt[0] = -uip

        # backjump to the second-highest level in the learnt clause
        learnt[1:] = sorted(learnt[1:], key=lambda lit: -level[abs(lit)])
        back = level[abs(learnt[1])] if len(learnt) > 1 else 0
        if len(learnt) > 1:
            watches[learnt[0]].append(learnt)
            watches[learnt[1]].append(learnt)
        cut = starts[back]
        for lit in trail[cut:]:
            val[lit] = val[-lit] = 0
            nxt = min(nxt, abs(lit))
        del trail[cut:], starts[back:]
        head = len(trail)
        enqueue(learnt[0], learnt)


def horn_sat(c: PropCnf) -> SatVerdict:
    """`dpll_sat` on a Horn set; any other input raises NotHorn."""
    if any(sum(1 for l in cl if l > 0) > 1 for cl in c.clauses):
        raise NotHorn("a clause has more than one positive literal")
    return dpll_sat(c)


def krom_sat(c: PropCnf) -> SatVerdict:
    """`dpll_sat` on a 2-CNF set; any other input raises NotKrom."""
    if any(len(cl) > 2 for cl in c.clauses):
        raise NotKrom("a clause has more than two literals")
    return dpll_sat(c)


# ---------------------------------------------------------------------------
# the full decision pipeline


@dataclass
class DecideConfig:
    max_model_size: int = 5


def _herbrand_structure(assignment, amap: AtomMap, eq_pred) -> Structure:
    """Build a model of the ground sentence from a propositional
    assignment, then quotient by the congruence predicate if equality was
    eliminated.  The atoms of `amap` are every atom of the sentence, so
    they name all its constants and predicates; a sentence without
    constants gets the one-element universe {e1}."""
    consts = sorted({t.name for atom in amap.atoms for t in atom.args})
    tables: dict[str, set] = {}
    for i, atom in enumerate(amap.atoms):
        if assignment.get(i + 1, False):
            tables.setdefault(atom.name, set()).add(tuple(t.name for t in atom.args))
    for atom in amap.atoms:
        tables.setdefault(atom.name, set())
    structure = Structure(
        tuple(consts) or ("e1",),
        {c: c for c in consts},
        {p: frozenset(t) for p, t in tables.items()},
    )
    if eq_pred is None:
        return structure
    # quotient by the congruence classes of the eliminated equality;
    # mapping true tuples through class representatives realizes the
    # congruence saturation and the quotient in one step
    eq = structure.predicates.get(eq_pred, frozenset())
    parent = {c: c for c in consts}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c, d in eq:
        rc, rd = find(c), find(d)
        if rc != rd:
            parent[max(rc, rd)] = min(rc, rd)
    rep = {c: find(c) for c in consts}
    universe2 = tuple(sorted(set(rep.values())))
    tables2 = {
        p: frozenset(tuple(rep[e] for e in t) for t in table)
        for p, table in structure.predicates.items()
        if p != eq_pred
    }
    return Structure(universe2, {c: rep[c] for c in consts}, tables2)


def _existential_path(sentence: S.Formula, ground: S.Formula) -> SatVerdict:
    # the predicate names, and None for an equation, in one walk
    names = {a.name if type(a) is S.Pred else None for a in S.atoms_iter(ground)}
    has_eq = None in names
    g, eq_pred, axioms = ground, None, ()
    if has_eq:
        g, eq_pred = S.equality_as_predicate(ground, names)
        axioms = equality_axioms(ground, eq_pred)
    tree, amap = to_propositional(g, axioms)
    cnf = prop_cnf(tree, amap)
    verdict = dpll_sat(cnf)
    details = {
        **verdict.details,
        "path": "propositional",
        "equality_eliminated": has_eq,
        "variables": cnf.num_vars,
        "clauses": len(cnf.clauses),
    }
    if verdict.status == "unsat":
        return SatVerdict("unsat", details=details)
    witness = _herbrand_structure(verdict.assignment, amap, eq_pred)
    if not evaluate(witness, {}, sentence):
        raise RuntimeError("internal error: propositional witness fails re-evaluation")
    return SatVerdict("sat", structure=witness, assignment=verdict.assignment, details=details)


def _analysis_bound(sf: S.StandardForm):
    """Smallest exactly evaluated bound of the analysis (degree, BSR, MFO)
    and the symbolic degree bound; (None, None) outside the fragment."""
    if not analysis.is_sf(sf):
        return None, None
    rep = analysis.bounds(sf)
    exact = (rep.model_size.evaluate(), rep.bsr_model_size, rep.mfo_model_size)
    return min((b for b in exact if b is not None), default=None), rep.model_size


def _translation_bound(sf: S.StandardForm) -> Optional[int]:
    """Leading existentials of the BSR form plus the constants; None
    outside the fragment, for input already in BSR form, or when `to_bsr`
    exceeds these caps."""
    if not analysis.is_sf(sf) or analysis.is_bsr(sf):
        return None
    try:
        leading = translate.bsr_leading_count(
            sf, selection_cap=2000, conjunct_cap=2000, clause_budget=2000,
            dnf_term_cap=512,
        )
    except BudgetExceeded:
        return None
    return max(leading + len(S.constants_of(sf.matrix)), 1)


def decide_sat(f: S.Formula, cfg: Optional[DecideConfig] = None) -> SatVerdict:
    """Decide satisfiability of a function-free sentence.

    Counting quantifiers are expanded first.  Universal-free sentences go
    through the propositional route.  Everything else is searched at size
    1 first, as written: a one-element model is below every bound, so the
    translation to BSR form runs only when size 1 has none.  The search
    then goes on up to min(size bound, cfg.max_model_size) on a form
    prepared once, returning an inconclusive verdict carrying the bound
    when the search space was not exhausted.
    """
    cfg = cfg or DecideConfig()
    expanded = expand_counting(f).formula
    sf = S.to_standard_form(expanded)
    if not sf.universal_vars:
        return _existential_path(f, skolemize_existential(sf))

    bound, symbolic = _analysis_bound(sf)
    details = {} if symbolic is None else {"degree_bound": str(symbolic)}
    models = ModelSearch(expanded)
    witness = models.run(min(1, cfg.max_model_size))
    if witness is None:
        translated = _translation_bound(sf)
        if translated is not None:
            details["translation_bound"] = translated
            bound = translated if bound is None else min(bound, translated)
    limit = cfg.max_model_size if bound is None else min(bound, cfg.max_model_size)
    details.update({"path": "model-search", "bound": bound, "search_limit": limit})
    if witness is None and limit >= 2:
        witness = models.run(limit, min_size=2)
    if witness is not None:
        if not evaluate(witness, {}, f):
            raise RuntimeError("internal error: search witness fails re-evaluation")
        return SatVerdict("sat", structure=witness, details=details)
    if bound is not None and bound <= cfg.max_model_size:
        return SatVerdict("unsat", details=details)
    return SatVerdict(
        "inconclusive",
        bound=symbolic if bound is None else None,
        details=details,
    )

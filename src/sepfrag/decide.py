"""Satisfiability decision.

Sentences without universal quantifiers go through the propositional
route: Skolemize each existential variable to a fresh constant, eliminate
ground equations via a fresh congruence predicate, abstract ground atoms
to propositional variables, and decide the CNF with one CDCL solver
(`dpll_sat`), whose SAT assignment is re-checked against the sentence
as a Herbrand model.  Everything else is decided by bounded model search
against the best available small-model bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import analysis
from . import syntax as S
from . import translate
from .errors import (
    BudgetExceeded,
    HasUniversals,
    NotGround,
    NotHorn,
    NotKrom,
    UnexpandedCounting,
)
from .search import find_model
from .semantics import Structure, evaluate
from .generators import expand_counting

SKOLEM_PREFIX = "sk"


# ---------------------------------------------------------------------------
# Skolemization of purely existential sentences


def skolemize_existential(f: S.Formula) -> S.Formula:
    """Replace each existential variable of a universal-free sentence with
    a fresh constant sk1, sk2, ... in quantifier order; the result is
    ground and equisatisfiable."""
    if S.has_counting(f):
        raise UnexpandedCounting("expand counting quantifiers before Skolemization")
    g = S.to_nnf(f)
    uni, _ = S.bound_vars_by_kind(g)
    if uni:
        raise HasUniversals(f"universal variables {sorted(uni)}")
    fresh = S.FreshNames(S.constants_of(g) | S.all_var_names(g))
    counter = [0]

    def walk(h):
        if isinstance(h, S.Exists):
            binding = {}
            for v in h.vars:
                counter[0] += 1
                binding[v] = S.Const(fresh.fresh(f"{SKOLEM_PREFIX}{counter[0]}"))
            return walk(S.substitute(h.body, binding))
        return S.rebuild(h, [walk(k) for k in S.children(h)])

    out = walk(g)
    if S.free_vars(out):
        raise HasUniversals("input must be a sentence")
    return out


# ---------------------------------------------------------------------------
# ground equality elimination


def ground_equality_elim(g: S.Formula) -> S.Formula:
    """Replace ground equations c = d with E(c, d) and append ground
    instances of reflexivity, symmetry, transitivity, and congruence.

    Congruence instances are restricted to pairs of non-equational atoms
    that actually occur in the input, which keeps the output cubic in the
    input length."""
    out, _ = _ground_equality_elim_info(g)
    return out


def _ground_equality_elim_info(g: S.Formula):
    if S.free_vars(g) or not S.is_quantifier_free(g):
        raise NotGround("input must be ground")
    sig = S.infer_signature(g)
    replaced, ename = S.equality_as_predicate(g, sig.predicates)
    consts = sorted(sig.constants)

    def e(c, d):
        return S.Pred(ename, (S.Const(c), S.Const(d)))

    axioms = [e(c, c) for c in consts]
    axioms += [
        S.Implies(e(c, d), e(d, c)) for c in consts for d in consts if c != d
    ]
    axioms += [
        S.Implies(S.And((e(c, d), e(d, f))), e(c, f))
        for c in consts
        for d in consts
        for f in consts
        if len({c, d, f}) > 1
    ]
    occurring = {}
    for a in S.atoms_iter(g):
        if isinstance(a, S.Pred):
            occurring.setdefault(a.name, set()).add(
                tuple(t.name for t in a.args)
            )
    for pname in sorted(occurring):
        tuples = sorted(occurring[pname])
        for left in tuples:
            for right in tuples:
                if left == right:
                    continue
                prem = [e(c, d) for c, d in zip(left, right)]
                axioms.append(
                    S.Implies(
                        S.conj(prem + [S.Pred(pname, tuple(S.Const(c) for c in left))]),
                        S.Pred(pname, tuple(S.Const(c) for c in right)),
                    )
                )
    return S.conj([replaced] + axioms), ename


# ---------------------------------------------------------------------------
# propositional abstraction


@dataclass(frozen=True)
class AtomMap:
    """Bijection between the ground atoms of a formula and propositional
    variable indices (0-based, first-occurrence order)."""

    atoms: tuple[S.Pred, ...]


@dataclass(frozen=True)
class PropCnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]  # nonzero ints; +v / -v encode polarity


def to_propositional(g: S.Formula):
    """Abstract each distinct ground atom to a propositional variable;
    returns the abstracted tree (atoms become nullary predicates q<i>)
    and the atom map.  Structure is untouched, so Horn stays Horn and
    Krom stays Krom."""
    if S.free_vars(g) or not S.is_quantifier_free(g):
        raise NotGround("input must be ground")
    atoms: list[S.Pred] = []
    index: dict = {}

    def walk(h):
        if isinstance(h, S.Pred):
            key = S.atom_key(h)
            if key not in index:
                index[key] = len(atoms)
                atoms.append(h)
            return S.Pred(f"q{index[key]}", ())
        if isinstance(h, S.Eq):
            raise NotGround("eliminate equality before propositional abstraction")
        return S.rebuild(h, [walk(k) for k in S.children(h)])

    tree = walk(g)
    return tree, AtomMap(tuple(atoms))


def prop_cnf(tree: S.Formula, amap: AtomMap) -> PropCnf:
    matrix = S.cnf_matrix(S.to_nnf(tree))
    clauses = []
    for cl in matrix.clauses:
        lits = []
        for lit in cl:
            v = int(lit.atom.name[1:]) + 1
            lits.append(v if lit.positive else -v)
        clauses.append(tuple(lits))
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


def _existential_path(sentence: S.Formula, ground: S.Formula, cfg: DecideConfig) -> SatVerdict:
    has_eq = any(isinstance(a, S.Eq) for a in S.atoms_iter(ground))
    eq_pred = None
    g = ground
    if has_eq:
        g, eq_pred = _ground_equality_elim_info(ground)
    tree, amap = to_propositional(g)
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


def _model_bound(sf: S.StandardForm):
    """Smallest exactly-evaluated size bound available for the sentence;
    None when every applicable bound stays symbolic."""
    if not analysis.is_sf(sf):
        return None, None, {}
    rep = analysis.bounds(sf)
    details = {"degree_bound": str(rep.model_size)}
    candidates = [
        b
        for b in (rep.model_size.evaluate(), rep.bsr_model_size, rep.mfo_model_size)
        if b is not None
    ]
    if not analysis.is_bsr(sf):
        try:
            bsr = translate.to_bsr(
                sf, selection_cap=2000, conjunct_cap=2000, clause_budget=2000,
                dnf_term_cap=512,
            )
            n_consts = len(S.constants_of(sf.matrix))
            candidates.append(max(len(bsr.leading) + n_consts, 1))
            details["translation_bound"] = candidates[-1]
        except BudgetExceeded:
            pass
    if not candidates:
        return None, rep.model_size, details
    return min(candidates), None, details


def decide_sat(f: S.Formula, cfg: Optional[DecideConfig] = None) -> SatVerdict:
    """Decide satisfiability of a function-free sentence.

    Counting quantifiers are expanded first.  Universal-free sentences go
    through the propositional route; everything else is searched up to
    min(size bound, cfg.max_model_size), returning an inconclusive
    verdict carrying the bound when the search space was not exhausted.
    """
    cfg = cfg or DecideConfig()
    expanded = expand_counting(f).formula
    sf = S.to_standard_form(expanded)
    if not sf.universal_vars:
        ground = skolemize_existential(sf.to_formula())
        return _existential_path(f, ground, cfg)

    bound, symbolic, details = _model_bound(sf)
    limit = cfg.max_model_size if bound is None else min(bound, cfg.max_model_size)
    details.update({"path": "model-search", "bound": bound, "search_limit": limit})
    witness = find_model(expanded, max_size=limit)
    if witness is not None:
        if not evaluate(witness, {}, f):
            raise RuntimeError("internal error: search witness fails re-evaluation")
        return SatVerdict("sat", structure=witness, details=details)
    if bound is not None and bound <= cfg.max_model_size:
        return SatVerdict("unsat", details=details)
    return SatVerdict(
        "inconclusive",
        bound=symbolic,
        details=details,
    )

"""Satisfiability decision.

One walk (`syntax.survey`) finds whether a variable bound universally,
by polarity, occurs in an atom; counting is expanded and surveyed again
only where it occurs.  Sentences without such a variable go through the
propositional route: Skolemize the NNF of the sentence in one walk, with
no prenex form (`skolemize_existential`), abstract its atoms to signed
ints, reading each ground equation s = t as the atom E(s, t) of a fresh
predicate E (`to_propositional`), emit the ground equality axioms of E
as integer clauses (`equality_axioms`), encode the tree with the
Plaisted-Greenbaum gates of `syntax.Gates` (`prop_cnf`), and decide it
with one CDCL solver (`dpll_sat`), whose SAT assignment is re-checked
against the sentence as a Herbrand model.  Everything else is searched
for a model of the sentence as written (`search.ModelSearch`), sizes 1
and 2 first: the standard form and all size bounds, the BSR
translation's included, are built only when neither size has a model,
and a sat verdict at size 1 or 2 carries only "path" and "search_limit".
A size with more than `search._SCAN_BITS` (30) ground atoms is one SAT
call on the same solver, listed in "sat_sizes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, product
from typing import Optional

from . import analysis
from . import syntax as S
from . import translate
from .errors import BadParams, BudgetExceeded, HasUniversals, NotGround
from .errors import NotHorn, NotKrom, depth_guarded
from .search import ModelSearch, find_model  # noqa: F401  (bench/tracer.py wraps it)
from .semantics import Structure, evaluate
from .generators import expand_counting

SKOLEM_PREFIX = "sk"


# ---------------------------------------------------------------------------
# Skolemization of purely existential sentences


def skolemize_existential(f: S.Formula, survey: Optional[S.Survey] = None) -> S.Formula:
    """The ground, equisatisfiable NNF of a counting-free sentence
    without universals.  One `syntax.rewrite` of `syntax.to_nnf(f)`
    drops the quantifiers and names the i-th
    existential variable, in binder pre-order, by a constant sk<i> fresh
    against the constants and binder names of f, read off `survey`, the
    `syntax.survey` of f, when given.  A universal variable that reaches
    an atom raises HasUniversals, a free one NotASentence."""
    s = survey or S.survey(f)
    s.signature(sentence=True)
    fresh = S.FreshNames(s.consts | set(s.binders))
    numbers = count(1)

    def rule(g, env, walk):
        t = type(g)
        if t is S.Pred or t is S.Eq:
            if not env:
                return g
            args = g.args if t is S.Pred else (g.left, g.right)
            terms = [env[a.name] if type(a) is S.Var else a for a in args]
            if any(a is None for a in terms):
                raise HasUniversals(f"a universal variable occurs in {S.print_formula(g)}")
            return S.Pred(g.name, tuple(terms)) if t is S.Pred else S.Eq(*terms)
        if t is not S.Exists and t is not S.Forall:
            return None
        inner = {**env, **dict.fromkeys(g.vars)}  # None marks a universal
        if t is S.Exists:
            for v in g.vars:
                inner[v] = S.Const(fresh.fresh(f"{SKOLEM_PREFIX}{next(numbers)}"))
        return walk(g.body, inner)

    return S.rewrite(S.to_nnf(f), rule, {}) if s.binders else S.to_nnf(f)


# ---------------------------------------------------------------------------
# propositional abstraction


@dataclass(frozen=True)
class AtomMap:
    """Bijection between the ground atoms of a formula and propositional
    variables: atoms[v - 1] is variable v, in first-occurrence order.
    `equality` names the predicate that stands for equality once its
    axioms are added, and is None otherwise."""

    atoms: tuple[S.Pred, ...]
    equality: Optional[str] = None


@dataclass(frozen=True)
class PropCnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]  # nonzero ints; +v / -v encode polarity


def equality_axioms(amap: AtomMap, ename: str):
    """Ground instances of reflexivity, symmetry and transitivity of the
    predicate `ename` over the constants of the atoms of `amap`, then of
    congruence, as clauses of signed ints: the negated premises, then the
    conclusion.  Returns the atom map extended by the E atoms the
    axioms add, and the clauses.

    Each E(c, d) is numbered once, into a table over the sorted
    constants: the atoms of `amap` keep their variables, and the others
    are numbered in order of first use, reflexivity first, then symmetry.
    Congruence instances are restricted to pairs of the atoms of `amap`
    that are not E atoms, which keeps the output cubic in the length of
    the formula."""
    atoms = list(amap.atoms)
    consts = sorted({t.name for a in atoms for t in a.args})
    pos = {c: i for i, c in enumerate(consts)}
    e = [[0] * len(consts) for _ in consts]
    occurring: dict[str, dict] = {}
    for v, a in enumerate(atoms, 1):
        args = tuple(t.name for t in a.args)
        if a.name == ename:
            e[pos[args[0]]][pos[args[1]]] = v
        else:
            occurring.setdefault(a.name, {})[args] = v

    def number(i: int, j: int) -> int:
        if not e[i][j]:
            atoms.append(S.Pred(ename, (S.Const(consts[i]), S.Const(consts[j]))))
            e[i][j] = len(atoms)
        return e[i][j]

    k = range(len(consts))
    clauses = [(number(i, i),) for i in k]
    clauses += [(-number(i, j), number(j, i)) for i, j in product(k, repeat=2) if i != j]
    for i, j in product(k, repeat=2):
        ei, ej = e[i], e[j]
        clauses += [(-ei[j], -ej[l], ei[l]) for l in k if i != j or j != l]
    for _, table in sorted(occurring.items()):
        for left, right in product(sorted(table), repeat=2):
            if left != right:
                prem = tuple(-e[pos[c]][pos[d]] for c, d in zip(left, right))
                clauses.append(prem + (-table[left], table[right]))
    return AtomMap(tuple(atoms), ename), clauses


def to_propositional(g: S.Formula, ename: Optional[str] = None):
    """Abstract each distinct ground atom of g, which must be in NNF
    (`syntax.to_nnf`), to a propositional variable, in one walk
    (`syntax.nnf_tree`), so Horn stays Horn and Krom stays Krom.
    Variables are numbered 1, 2, ... in first-occurrence order.  An
    equation s = t is the atom E(s, t) of a binary predicate E that g
    does not use: `ename` when given, else `syntax.equality_name` of the
    predicate names in the atom list, chosen once the walk is done.  The
    integer clauses of `equality_axioms` are built from the atom map when
    `ename` is given or an equation occurs.  Returns the tree, the atom
    map (axiom atoms numbered after g's) and the axiom clauses.  An
    implication, a biconditional or a negation over a non-atom raises
    NotNNF; a quantifier or a variable raises NotGround."""
    index: dict = {}
    atoms: list[S.Pred] = []

    def var(a) -> int:
        v = index.get(a)
        if v is None:
            # an equation's name stays None until E is chosen
            p = S.Pred(ename, (a.left, a.right)) if type(a) is S.Eq else a
            if type(p) is not S.Pred or any(type(t) is not S.Const for t in p.args):
                raise NotGround("expected ground atoms")
            atoms.append(p)
            v = index[a] = len(atoms)
        return v

    tree = S.nnf_tree(g, var)
    if ename is None:
        names = {a.name for a in atoms}
        if None not in names:
            return tree, AtomMap(tuple(atoms)), []
        ename = S.equality_name(names)
        atoms = [S.Pred(ename, a.args) if a.name is None else a for a in atoms]
    return (tree, *equality_axioms(AtomMap(tuple(atoms)), ename))


def prop_cnf(tree, amap: AtomMap, axioms=()) -> PropCnf:
    """The definitional CNF of a `to_propositional` tree (`syntax.Gates`,
    whose gate variables follow the atoms of `amap`), with the integer
    clauses `axioms` added as they are.  It is equisatisfiable with the
    tree and the axioms, and each of its models, restricted to the atom
    variables, satisfies both."""
    enc = S.Gates(len(amap.atoms))
    enc.require(tree)
    enc.clauses += axioms
    return PropCnf(enc.n, tuple(enc.clauses))


# ---------------------------------------------------------------------------
# ground equality elimination


def ground_equality_elim(g: S.Formula) -> S.Formula:
    """Replace ground equations c = d with E(c, d) and append the clauses
    of `equality_axioms`, each as its conclusion alone or as
    premises -> conclusion."""
    if S.free_vars(g) or not S.is_quantifier_free(g):
        raise NotGround("input must be ground")
    replaced, ename = S.equality_as_predicate(g, S.infer_signature(g).predicates)
    _, amap, axioms = to_propositional(S.to_nnf(g), ename)
    atom = amap.atoms
    return S.conj(
        [replaced]
        + [
            S.Implies(S.conj([atom[-p - 1] for p in cl[:-1]]), atom[cl[-1] - 1])
            if len(cl) > 1
            else atom[cl[0] - 1]
            for cl in axioms
        ]
    )


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
    unsat = SatVerdict("unsat")
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
                return SatVerdict("sat", assignment=assignment)
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


def _herbrand_structure(assignment, amap: AtomMap) -> Structure:
    """Build a model of the ground sentence from a propositional
    assignment, quotiented by `amap.equality` if equality was eliminated.
    The atoms of `amap` are every atom of the sentence, so they name all
    its constants and predicates; a sentence without constants gets the
    one-element universe {e1}."""
    consts = sorted({t.name for atom in amap.atoms for t in atom.args})
    eq_pred = amap.equality
    true = [atom for v, atom in enumerate(amap.atoms, 1) if assignment.get(v, False)]
    # mapping true tuples to the least members of the E classes saturates and quotients
    eqs = [tuple(t.name for t in atom.args) for atom in true if atom.name == eq_pred]
    rep = analysis.least_members(consts, eqs)
    tables: dict[str, set] = {a.name: set() for a in amap.atoms if a.name != eq_pred}
    for atom in true:
        if atom.name != eq_pred:
            tables[atom.name].add(tuple(rep[t.name] for t in atom.args))
    universe = tuple(sorted(set(rep.values()))) or ("e1",)
    return Structure(universe, rep, {p: frozenset(t) for p, t in tables.items()})


def _existential_path(sentence: S.Formula, ground: S.Formula) -> SatVerdict:
    tree, amap, axioms = to_propositional(ground)
    cnf = prop_cnf(tree, amap, axioms)
    verdict = dpll_sat(cnf)
    details = {
        "path": "propositional",
        "equality_eliminated": amap.equality is not None,
        "variables": cnf.num_vars,
        "clauses": len(cnf.clauses),
    }
    if verdict.status == "unsat":
        return SatVerdict("unsat", details=details)
    assignment = {v: verdict.assignment[v] for v in range(1, len(amap.atoms) + 1)}
    witness = _herbrand_structure(assignment, amap)
    if not evaluate(witness, {}, sentence):
        raise RuntimeError("internal error: propositional witness fails re-evaluation")
    return SatVerdict("sat", structure=witness, assignment=assignment, details=details)


def _bound(sf: S.StandardForm, details: dict):
    """Smallest exactly evaluated size bound (degree, BSR, MFO and, outside
    BSR form, the BSR translation's leading existentials plus the
    constants) and the symbolic degree bound, both None outside the
    fragment; records "degree_bound" and "translation_bound" in `details`.
    A translation past `translate`'s limits gives no bound."""
    if not analysis.is_sf(sf):
        return None, None
    rep = analysis.bounds(sf)
    details["degree_bound"] = str(rep.model_size)
    exact = [rep.model_size.evaluate(), rep.bsr_model_size, rep.mfo_model_size]
    if not analysis.is_bsr(sf):
        try:
            leading = translate.bsr_leading_count(sf)
            details["translation_bound"] = max(leading + len(S.constants_of(sf.matrix)), 1)
            exact.append(details["translation_bound"])
        except BudgetExceeded:
            pass
    return min((b for b in exact if b is not None), default=None), rep.model_size


def _search_path(f: S.Formula, expanded: S.Formula, max_size: int, survey: S.Survey):
    """Sizes 1 and 2, then the bound only if neither has a model."""
    models = ModelSearch(f, survey)
    witness = models.run(min(2, max_size))
    bound = symbolic = None
    if witness is not None:
        details = {"path": "model-search", "search_limit": len(witness.universe)}
    else:
        details = {}
        bound, symbolic = _bound(S.to_standard_form(expanded), details)
        limit = max_size if bound is None else min(max(bound, 2), max_size)
        details.update({"path": "model-search", "bound": bound, "search_limit": limit})
        witness = models.run(limit, min_size=3)
    if models.sat_sizes:
        details["sat_sizes"] = models.sat_sizes
    if witness is not None:
        return SatVerdict("sat", structure=witness, details=details)
    if bound is not None and bound <= max_size:
        return SatVerdict("unsat", details=details)
    return SatVerdict("inconclusive", bound=symbolic if bound is None else None, details=details)


@depth_guarded
def decide_sat(f: S.Formula, cfg: Optional[DecideConfig] = None) -> SatVerdict:
    """Decide satisfiability of a function-free sentence.

    The route is read off `syntax.survey` of f, or of its counting
    expansion where counting occurs: a sentence in which no universally
    bound variable reaches an atom is Skolemized and decided on the
    propositional route.  Everything else is searched for a model of
    size 1 or 2 first; a model of size s there carries {"path":
    "model-search", "search_limit": s}.  Only when neither has a model
    are the standard form and the size bounds built; the search goes on,
    on a form prepared once, up to "search_limit": min(bound,
    cfg.max_model_size), or 2 where that is 1 and size 2 was searched.
    The verdict is inconclusive, carrying the bound, when the search
    space was not exhausted.  Sizes decided by one SAT call, not the
    packed scan, are listed in details["sat_sizes"].  A negative
    cfg.max_model_size raises BadParams, an open formula NotASentence
    and a predicate at two arities ArityMismatch.
    """
    cfg = cfg or DecideConfig()
    if cfg.max_model_size < 0:
        raise BadParams(f"model search needs max_model_size >= 0, got {cfg.max_model_size}")
    survey = S.survey(f)
    expanded = expand_counting(f, survey).formula if survey.counting else f
    routed = S.survey(expanded) if survey.counting else survey
    if routed.universal:
        return _search_path(f, expanded, cfg.max_model_size, survey)
    return _existential_path(f, skolemize_existential(expanded, routed))

"""Equivalence-preserving translation of separated sentences into
exists*forall* (BSR) form.

The pipeline turns the matrix into CNF, then works innermost-out over the
quantifier blocks.  Each existential block is pushed inward with the
selection-function expansion: an existentially quantified conjunction of
clauses r_i v (disjunction of the options o_k) is equivalent to the
conjunction, over all nonempty subsets s of the clause indices, of

    (disjunction of the residues r_i, i in s)
    v (disjunction over selection functions f of
       exists y. conjunction of o_f(i), i in s)

Each universal block then moves inward by ordinary miniscoping.  The
working form is a conjunction of disjunctions of *units*: literals,
closed universal subformulas over universal-side variables, and closed
existential subformulas over existential-side variables.  Units are
interned by their alpha-invariant printed form, which is what makes the
idempotence-based deduplication effective.  A block builds, prints and
interns each of its units once: a selection body of an existential block,
or the universal part of a conjunct, is interned the first time it
appears in the block, and every repeat counts as a dedup hit.  A new unit
takes its free variables from its interned parts, and an existential unit
its count of prefix slots: its bound variables plus its parts' counts.

One subset-and-selection loop (`_selections`) serves both `to_bsr` and
the lemma as a standalone operation (`expand_selections`), which interns
its residues and options as units.  One plan (`_plan`) gives both the
prefix length that `bsr_leading_count` returns and the sentence that
`to_bsr` builds, whose prefix is allocated from that count before any
unit is instantiated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from . import analysis
from . import syntax as S
from .errors import (
    BadParams,
    BoundVariableInResidue,
    EmptyIndexSet,
    NotSF,
    OverlappingSets,
    SelectionBudgetExceeded,
)

DEFAULT_SELECTION_CAP = 100_000
DEFAULT_CONJUNCT_CAP = 100_000
DEFAULT_DNF_CAP = 4096


# ---------------------------------------------------------------------------
# the selection-function expansion as a standalone operation


@dataclass(frozen=True)
class SelectionInstance:
    """One existentially quantified CNF-shaped formula: conjunct i reads
    residue[i] v (disjunction of option[k] for k in k_sets[i]), where the
    residues are free of the bound variables `ys`.

    Index sets are finite, nonempty, and pairwise disjoint; every index
    has its residue or option; no bound variable may occur in any
    residue."""

    index_set: tuple
    k_sets: dict
    residue: dict
    option: dict
    ys: tuple[str, ...]

    def validate(self):
        if not self.index_set:
            raise EmptyIndexSet("index set I must be nonempty")
        seen = set()
        yset = set(self.ys)
        for i in self.index_set:
            ks = self.k_sets.get(i, ())
            if not ks:
                raise EmptyIndexSet(f"K[{i!r}] must be nonempty")
            if i not in self.residue:
                raise BadParams(f"residue[{i!r}] is missing")
            for k in ks:
                if k in seen:
                    raise OverlappingSets(f"index {k!r} occurs twice in the K sets")
                if k not in self.option:
                    raise BadParams(f"option[{k!r}] is missing")
                seen.add(k)
            bad = S.free_vars(self.residue[i]) & yset
            if bad:
                raise BoundVariableInResidue(
                    f"residue[{i!r}] mentions bound variables {sorted(bad)}"
                )

    def to_formula(self) -> S.Formula:
        conjs = [
            S.disj([self.residue[i]] + [self.option[k] for k in self.k_sets[i]])
            for i in self.index_set
        ]
        return S.exists(self.ys, S.conj(conjs))


def expand_selections(inst: SelectionInstance) -> S.Formula:
    """Expand the block: one conjunct per nonempty subset s of I, each a
    disjunction of the selected residues and one existential unit per
    selection function (deduplicated by restriction to s).  Residues and
    options are interned as units and expanded by the loop that pushes
    the existential blocks of `to_bsr`, so a unit binds only the bound
    variables that occur in it (an option free of them is a plain
    disjunct), equal units of a conjunct are one disjunct, and the
    disjuncts come in key order.  More than `DEFAULT_CONJUNCT_CAP`
    conjuncts raise `SelectionBudgetExceeded` before any is built."""
    inst.validate()
    units = _Units()
    split = [
        ([units.intern(inst.residue[i])], [units.intern(inst.option[k]) for k in inst.k_sets[i]])
        for i in inst.index_set
    ]
    conjs = _selections(split, units, inst.ys, DEFAULT_SELECTION_CAP, DEFAULT_CONJUNCT_CAP)
    return _sentence((), conjs, units)


# ---------------------------------------------------------------------------
# the working representation: interned units


@dataclass
class _Units:
    by_key: dict[str, S.Formula] = field(default_factory=dict)
    free: dict[str, frozenset] = field(default_factory=dict)
    # prefix slots of each existential unit, one per binder occurrence;
    # in a separated sentence its parts are literals and existential units
    slots: dict[str, int] = field(default_factory=dict)
    dedup_hits: int = 0

    def intern(self, f: S.Formula, free: Optional[frozenset] = None) -> str:
        """Key of f, recording f under it when new.  `free`, when given,
        is f's free variables, already known from interned parts."""
        key = S.canonical_key(f)
        if key not in self.by_key:
            self.by_key[key] = f
            self.free[key] = S.free_vars(f) if free is None else free
        else:
            self.dedup_hits += 1
        return key

    def quantified(self, quantify, connect, block, parts: frozenset, memo: dict) -> str:
        """Key of quantify(bound, connect(parts)) over interned `parts`,
        where bound holds the variables of `block` free in them.  Each set
        of parts is built, printed and interned once per block (`memo`); a
        repeat counts as the dedup hit its re-interning would have been."""
        key = memo.get(parts)
        if key is not None:
            self.dedup_hits += 1
            return key
        free = frozenset().union(*(self.free[k] for k in parts))
        bound = tuple(v for v in block if v in free)
        unit = quantify(bound, connect([self.by_key[k] for k in sorted(parts)]))
        memo[parts] = key = self.intern(unit, free.difference(bound))
        if quantify is S.exists:
            self.slots[key] = len(bound) + sum(self.slots.get(k, 0) for k in parts)
        return key


def _dedup_conjuncts(conjs, units: _Units):
    out = list(dict.fromkeys(conjs))
    units.dedup_hits += len(conjs) - len(out)
    return out


def _pushed(sf: S.StandardForm, selection_cap, conjunct_cap, clause_budget):
    """Run the full block-pushing pipeline on a separated sentence.

    Returns (conjuncts, units, leading) where each conjunct is a frozenset
    of unit keys understood as a disjunction, the whole list as a
    conjunction under exists(leading).
    """
    if not analysis.is_sf(sf):
        raise NotSF("translation applies to separated sentences only")
    units = _Units()
    matrix_cnf = S.cnf_matrix(sf.matrix, max_clauses=clause_budget)
    conjs = [
        frozenset(units.intern(lit.to_formula()) for lit in clause)
        for clause in matrix_cnf.clauses
    ]
    conjs = _dedup_conjuncts(conjs, units)

    for x_block, y_block in reversed(sf.blocks):
        if y_block:
            conjs = _push_existential(conjs, units, y_block, selection_cap, conjunct_cap)
        conjs = _push_universal(conjs, units, x_block)
        conjs = _dedup_conjuncts(conjs, units)
    return conjs, units, sf.leading


def _push_existential(conjs, units: _Units, y_block, selection_cap, conjunct_cap):
    yset = set(y_block)
    passthrough, split = [], []
    for c in conjs:
        carried = [k for k in c if units.free[k] & yset]
        if carried:
            split.append((c.difference(carried), carried))
        else:
            passthrough.append(c)
    if not split:
        return conjs
    return passthrough + _selections(split, units, y_block, selection_cap, conjunct_cap)


def _selections(split, units: _Units, y_block, selection_cap, conjunct_cap):
    """The selection-function expansion of exists y_block over conjuncts
    given as (residue keys, carried keys) pairs: one conjunct per nonempty
    subset s, holding the residues of s and one existential unit per
    selection function restricted to s.  Raises `SelectionBudgetExceeded`
    past `conjunct_cap` conjuncts before any is built, and past
    `selection_cap` selection functions for one subset."""
    if (1 << len(split)) - 1 > conjunct_cap:
        # 2^n - 1 itself may have too many digits to print
        raise SelectionBudgetExceeded(
            f"existential block expansion needs 2^{len(split)} - 1 "
            f"conjuncts, cap is {conjunct_cap}",
            limit=conjunct_cap,
        )
    out = []
    memo: dict[frozenset, str] = {}
    for size in range(1, len(split) + 1):
        for s in itertools.combinations(split, size):
            count = math.prod(len(carried) for _, carried in s)
            if count > selection_cap:
                raise SelectionBudgetExceeded(
                    f"{count} selection functions in one conjunct, cap is {selection_cap}",
                    limit=selection_cap,
                )
            bodies = {frozenset(choice) for choice in itertools.product(*(carried for _, carried in s))}
            keys = set().union(*(residue for residue, _ in s))
            for body in sorted(bodies, key=sorted):
                keys.add(units.quantified(S.exists, S.conj, y_block, body, memo))
            out.append(frozenset(keys))
    return out


def _push_universal(conjs, units: _Units, x_block):
    xset = set(x_block)
    out = []
    memo: dict[frozenset, str] = {}
    for c in conjs:
        inside = frozenset(k for k in c if units.free[k] & xset)
        if not inside:
            out.append(c)
            continue
        out.append((c - inside) | {units.quantified(S.forall, S.disj, x_block, inside, memo)})
    return out


def push_quantifiers(sf: S.StandardForm) -> S.Formula:
    """Move all quantifier blocks inward; in the result no universal
    quantifier lies inside an existential scope (beyond the leading
    block) and vice versa."""
    conjs, units, leading = _pushed(
        sf, DEFAULT_SELECTION_CAP, DEFAULT_CONJUNCT_CAP, S.DEFAULT_CLAUSE_BUDGET
    )
    return _sentence(leading, conjs, units)


def _sentence(leading, conjs, units: _Units) -> S.Formula:
    """exists leading. (conjunction of the unit disjunctions `conjs`),
    renamed apart."""
    body = S.conj([S.disj([units.by_key[k] for k in sorted(c)]) for c in conjs])
    return S.rename_apart(S.exists(leading, body))


# ---------------------------------------------------------------------------
# assembling the exists*forall* sentence


@dataclass(frozen=True)
class BsrStats:
    leading_existentials: int
    universal_count: int
    dedup_count: int
    strategy: str  # "factored" (shared prefix over a disjunction) or "direct"
    bound: analysis.TetrationExpr
    # may have far more digits than int-to-str conversion allows
    bound_exact: Optional[int] = field(repr=False)
    within_bound: Optional[bool]


@dataclass(frozen=True)
class BsrSentence:
    leading: tuple[str, ...]
    universal: tuple[str, ...]
    matrix: S.Formula
    stats: BsrStats

    def to_formula(self) -> S.Formula:
        return S.exists(self.leading, S.forall(self.universal, self.matrix))

    def check(self) -> bool:
        return S.is_quantifier_free(self.matrix)


def _flatten_unit(f, names):
    """Instantiate a quantified unit with prefix variables, flattening
    nested blocks of the same kind in one walk.  Returns the
    quantifier-free matrix; each quantified variable takes the next name
    of the iterator `names`, in pre-order.

    The renaming is carried down the walk; the prefix names are fresh
    against every name of the unit, so no binder inside can capture one."""

    def term(t, env):
        return env.get(t.name, t) if type(t) is S.Var else t

    def walk(g, env):
        t = type(g)
        if t is S.Forall or t is S.Exists:
            env = dict(env)
            for v in g.vars:
                env[v] = S.Var(next(names))
            return walk(g.body, env)
        if t is S.And:
            return S.conj([walk(p, env) for p in g.parts])
        if t is S.Or:
            return S.disj([walk(p, env) for p in g.parts])
        if t is S.Pred:
            return S.Pred(g.name, tuple([term(a, env) for a in g.args])) if env else g
        if t is S.Eq:
            return S.Eq(term(g.left, env), term(g.right, env)) if env else g
        if t is S.Not and type(g.sub) in (S.Pred, S.Eq):
            return S.Not(walk(g.sub, env)) if env else g
        if t is S.Top or t is S.Bottom:
            return g
        raise NotSF(f"unexpected unit shape: {S.print_formula(g)}")

    return walk(f, {})


def _minimize_terms(terms):
    """Drop terms that are supersets of another term.  Terms are distinct,
    so only a strictly shorter kept term can be a proper subset of t."""
    ordered = sorted(set(terms), key=lambda t: (len(t), sorted(t)))
    kept = []
    shorter, length = [], 0  # the kept terms strictly shorter than t
    for t in ordered:
        if len(t) > length:
            shorter, length = list(kept), len(t)
        if not any(k <= t for k in shorter):
            kept.append(t)
    return kept


def _plan(sf: S.StandardForm, selection_cap, conjunct_cap, clause_budget, dnf_term_cap):
    """The BSR plan of a separated sentence not in BSR form, raising what
    `to_bsr` raises: (conjuncts, units, leading, terms, n_exi), with the
    minimal DNF terms (None past `dnf_term_cap`) and the number of
    existential prefix slots.  An existential unit takes one slot per
    quantified variable: the factored strategy shares one prefix among the
    terms, the direct one gives every unit occurrence its own."""
    conjs, units, leading = _pushed(sf, selection_cap, conjunct_cap, clause_budget)
    slots = units.slots
    terms = _distribute(conjs, dnf_term_cap)
    if terms is None:
        n_exi = sum(slots.get(k, 0) for c in conjs for k in c)
    else:
        n_exi = max((sum(slots.get(k, 0) for k in t) for t in terms), default=0)
    return conjs, units, leading, terms, n_exi


def _numbered(fresh: S.FreshNames, base: str, taken: list):
    """Fresh names base1, base2, ... on demand, each recorded in `taken`."""
    for i in itertools.count(1):
        taken.append(fresh.fresh(f"{base}{i}"))
        yield taken[-1]


def to_bsr(
    sf: S.StandardForm,
    selection_cap: int = DEFAULT_SELECTION_CAP,
    conjunct_cap: int = DEFAULT_CONJUNCT_CAP,
    clause_budget: int = S.DEFAULT_CLAUSE_BUDGET,
    dnf_term_cap: int = DEFAULT_DNF_CAP,
) -> BsrSentence:
    """Full translation to an equivalent exists*forall* sentence.

    After pushing the blocks inward, the conjunction of unit-disjunctions
    is distributed into a disjunction of unit sets (with absorption),
    existential units are instantiated against a single prefix shared by
    all disjuncts, and universal units are hoisted with fresh variables.
    When distribution exceeds `dnf_term_cap` the conjunction shape is kept
    and every unit occurrence gets its own prefix variables instead.  The
    prefix is allocated from the count of the plan `bsr_leading_count` reads.
    """
    if not analysis.is_sf(sf):
        raise NotSF("translation applies to separated sentences only")
    bound = analysis.bounds(sf).translation_existentials
    # fast path: already exists*forall*
    if analysis.is_bsr(sf):
        uni = sf.blocks[0][0] if sf.blocks else ()
        stats = _stats(len(sf.leading), len(uni), 0, "direct", bound)
        return BsrSentence(sf.leading, tuple(uni), sf.matrix, stats)

    conjs, units, leading, terms, n_exi = _plan(
        sf, selection_cap, conjunct_cap, clause_budget, dnf_term_cap
    )

    # u and v names never collide, so no name depends on the order of allocation;
    # every prefix variable of a standard form occurs in its matrix, so these
    # are all the names of the units
    taken = {*leading, *sf.universal_vars, *sf.existential_vars}
    fresh = S.FreshNames(taken | S.constants_of(sf.matrix))
    exi = tuple(fresh.fresh(f"u{i}") for i in range(1, n_exi + 1))
    uni: list[str] = []
    uni_names = _numbered(fresh, "v", uni)  # universal occurrences never share variables

    def flat(keys, connect, exi_names):
        us = [units.by_key[k] for k in sorted(keys)]
        return connect([
            _flatten_unit(u, exi_names if isinstance(u, S.Exists) else uni_names) for u in us
        ])

    if terms is not None:
        # one existential prefix shared by all disjuncts; each disjunct
        # instantiates an initial slice of it
        matrix = S.disj([flat(t, S.conj, iter(exi)) for t in terms])
        strategy = "factored"
    else:
        # conjunction kept; every unit occurrence gets its own variables
        exi_names = iter(exi)
        matrix = S.conj([flat(c, S.disj, exi_names) for c in conjs])
        strategy = "direct"

    n_lead = len(leading) + n_exi
    stats = _stats(n_lead, len(uni), units.dedup_hits, strategy, bound)
    return BsrSentence(tuple(leading) + exi, tuple(uni), matrix, stats)


def bsr_leading_count(
    sf: S.StandardForm, selection_cap, conjunct_cap, clause_budget, dnf_term_cap
) -> int:
    """`len(to_bsr(sf, caps).leading)` for a separated sentence not in BSR
    form, read off the plan that `to_bsr` builds its sentence from, without
    building the matrix; raises what `to_bsr` raises."""
    _, _, leading, _, n_exi = _plan(sf, selection_cap, conjunct_cap, clause_budget, dnf_term_cap)
    return len(leading) + n_exi


def _stats(n_lead, n_uni, dedup, strategy, bound: analysis.TetrationExpr) -> BsrStats:
    exact = bound.evaluate()
    within = None if exact is None else n_lead <= exact
    return BsrStats(n_lead, n_uni, dedup, strategy, bound, exact, within)


def _distribute(conjs, cap):
    """Conjunction of unit-key disjunctions -> minimal disjunction of
    unit-key sets, or None when the cap is hit."""
    terms = [frozenset()]
    for c in sorted(conjs, key=lambda c: (len(c), sorted(c))):
        new = []
        for t in terms:
            if t & c:
                new.append(t)  # already satisfies this conjunct
                continue
            for u in sorted(c):
                new.append(t | {u})
        if len(new) > cap:
            return None
        terms = list(set(new))
        if len(terms) > 256:
            terms = _minimize_terms(terms)
        if len(terms) > cap:
            return None
    return _minimize_terms(terms)

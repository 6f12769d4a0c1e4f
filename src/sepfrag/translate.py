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
hash-consed by an alpha-invariant structural key into small int ids
(`_Units`), which is what makes the idempotence-based deduplication
effective.  A block keys each of its units once: a selection body of an
existential block, or the universal part of a conjunct, is keyed the
first time it appears in the block, and every repeat counts as a dedup
hit.  A new unit takes its free variables from its parts, and an
existential unit its count of prefix slots: its bound variables plus its
parts' counts.  Nothing in this module prints: planning builds no
formula, and a sentence is assembled from the units' structure, their
parts in id order, which unit numbering makes deterministic.

One subset-and-selection loop (`_selections`) serves both `to_bsr` and
the lemma as a standalone operation (`expand_selections`), which interns
its residues and options as units.  One plan (`_plan`) gives both the
prefix length that `bsr_leading_count` returns and the sentence that
`to_bsr` builds, whose prefix is allocated from that count before any
unit is instantiated.

Every caller translates under one set of limits, the module constants
below: past `CLAUSE_CAP` matrix clauses, `CONJUNCT_CAP` conjuncts of one
block's expansion or `SELECTION_CAP` selection functions for one subset
the translation raises a budget error, and past `DNF_TERM_CAP` DNF terms
`to_bsr` takes the direct strategy.
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

SELECTION_CAP = 2000
CONJUNCT_CAP = 2000
CLAUSE_CAP = 2000
DNF_TERM_CAP = 512


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
    disjuncts come in unit-id order.  A residue or option that is no
    literal equals only the same formula.  More than `CONJUNCT_CAP`
    conjuncts or `SELECTION_CAP` selection functions for one subset raise
    `SelectionBudgetExceeded`, the first before any conjunct is built."""
    inst.validate()
    units = _Units()
    split = [
        ([units.leaf(inst.residue[i])], [units.leaf(inst.option[k]) for k in inst.k_sets[i]])
        for i in inst.index_set
    ]
    conjs = _selections(split, units, inst.ys)
    return _sentence((), conjs, units)


# ---------------------------------------------------------------------------
# the working representation: hash-consed units


@dataclass
class _Units:
    """Units hash-consed by structure: each key gets a small int id.

    A literal's key is (sign, predicate, argument terms), with "=" for
    equality.  A quantified unit's key is (quantifier, bound count, sorted
    tuple of part ids), where the parts have the bound variables
    replaced by markers (height, position in the bound tuple); a unit's
    height is one more than its highest part's, a literal's 0.  A unit
    binds a height no unit inside it binds, so markers never clash and
    equal keys are alpha-variants.  An id made by marking has a free
    marker and is never a unit of the sentence.  A residue or option of
    `expand_selections` that is no literal is keyed by the formula itself.

    Nothing is built while planning, and nothing is ever printed.  A
    unit is made from the `source` of the first unit with its key, with
    parts in id order: `flat` instantiates it against the BSR prefix for
    `to_bsr`, and `formula` builds it for `push_quantifiers` and
    `expand_selections`."""

    ids: dict = field(default_factory=dict)  # key -> id
    keys: list = field(default_factory=list)  # id -> key
    free: list[frozenset] = field(default_factory=list)  # id -> free variable names
    height: list[int] = field(default_factory=list)
    # prefix slots of each existential unit, one per binder occurrence;
    # in a separated sentence its parts are literals and existential units
    slots: dict[int, int] = field(default_factory=dict)
    # id -> what a unit is built from: a literal's atom, a quantified
    # unit's (bound, parts), a leaf's formula; the first unit with the key
    source: dict = field(default_factory=dict)
    dedup_hits: int = 0
    _marked: dict = field(default_factory=dict)
    _formulas: dict = field(default_factory=dict)

    def _id(self, key, free: frozenset, height: int) -> int:
        """Id of `key`, recorded when new."""
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.free.append(free)
            self.height.append(height)
        return i

    def intern(self, key, source, free: frozenset, height: int = 0) -> int:
        """Id of a unit with structural key `key`, built from `source` when
        new; a known key counts as a dedup hit."""
        n = len(self.keys)
        i = self._id(key, free, height)
        if i < n:
            self.dedup_hits += 1
        else:
            self.source[i] = source
        return i

    def literal(self, positive: bool, atom: S.Atom) -> int:
        """Id of the literal of `atom` with sign `positive`."""
        if type(atom) is S.Eq:
            name, args = "=", (atom.left, atom.right)
        else:
            name, args = atom.name, atom.args
        free = frozenset(t.name for t in args if type(t) is S.Var)
        return self.intern((positive, name, args), atom, free)

    def leaf(self, f: S.Formula) -> int:
        """Id of a residue or option of `expand_selections`."""
        if type(f) is S.Pred or type(f) is S.Eq:
            return self.literal(True, f)
        if type(f) is S.Not and type(f.sub) in (S.Pred, S.Eq):
            return self.literal(False, f.sub)
        return self.intern(("formula", f, ()), f, S.free_vars(f))

    def quantified(self, quantify, block, parts: frozenset, memo: dict) -> int:
        """Id of quantify(bound, parts), a conjunction under `S.exists` and a
        disjunction under `S.forall`, over unit ids `parts`, where bound
        holds the variables of `block` free in them.  Each set of
        parts is keyed once per block (`memo`); a repeat counts as the
        dedup hit its re-interning would have been."""
        i = memo.get(parts)
        if i is not None:
            self.dedup_hits += 1
            return i
        free = frozenset().union(*(self.free[p] for p in parts))
        bound = tuple(v for v in block if v in free)
        if not bound and len(parts) == 1:
            # an option of `expand_selections` free of the block is itself
            self.dedup_hits += 1
            (i,) = parts
            memo[parts] = i
            return i
        height = 1 + max(self.height[p] for p in parts)
        key = (quantify, len(bound), tuple(sorted([self.mark(p, bound, height) for p in parts])))
        memo[parts] = i = self.intern(key, (bound, tuple(parts)), free.difference(bound), height)
        if quantify is S.exists:
            self.slots[i] = len(bound) + sum(self.slots.get(p, 0) for p in parts)
        return i

    def mark(self, i: int, bound: tuple, height: int) -> int:
        """Id of unit i with each variable of `bound` replaced by its marker
        (height, position); made once per (i, bound, height)."""
        free = self.free[i]
        if free.isdisjoint(bound):
            return i
        j = self._marked.get((i, bound, height))
        if j is None:
            key = self.keys[i]
            if type(key[0]) is bool:
                positive, name, args = key
                args = tuple([
                    (height, bound.index(t.name)) if type(t) is S.Var and t.name in bound else t
                    for t in args
                ])
                key = (positive, name, args)
            elif key[0] == "formula":
                _, f, marked = key
                new = tuple((v, (height, bound.index(v))) for v in free.intersection(bound))
                key = ("formula", f, tuple(sorted(marked + new)))
            else:
                quantify, count, parts = key
                key = (quantify, count, tuple(sorted([self.mark(p, bound, height) for p in parts])))
            j = self._id(key, free.difference(bound), self.height[i])
            self._marked[i, bound, height] = j
        return j

    def formula(self, i: int) -> S.Formula:
        """The formula of unit i, parts in id order, built on first use."""
        f = self._formulas.get(i)
        if f is None:
            head, source = self.keys[i][0], self.source[i]
            if type(head) is bool:
                f = source if head else S.Not(source)
            elif head == "formula":
                f = source
            else:
                bound, parts = source
                connect = S.conj if head is S.exists else S.disj
                f = head(bound, connect([self.formula(p) for p in sorted(parts)]))
            self._formulas[i] = f
        return f

    def flat(self, i: int, names, env: dict) -> S.Formula:
        """The quantifier-free instance of unit i of a plan: a literal's
        atom with each variable of `env` replaced by its value, a quantified
        unit's parts joined in id order with each bound variable taking the
        next name of the iterator `names`, in pre-order, so nested blocks
        of one kind flatten into one.  The prefix names are fresh against
        every name of the sentence, so no binder inside captures one."""
        key, source = self.keys[i], self.source[i]
        head = key[0]
        if type(head) is bool:
            if env:
                _, name, args = key
                args = tuple([env.get(t.name, t) if type(t) is S.Var else t for t in args])
                source = S.Eq(*args) if name == "=" else S.Pred(name, args)
            return source if head else S.Not(source)
        bound, parts = source
        env = {**env, **{v: S.Var(next(names)) for v in bound}}
        connect = S.conj if head is S.exists else S.disj
        return connect([self.flat(p, names, env) for p in sorted(parts)])


def _dedup_conjuncts(conjs, units: _Units):
    out = list(dict.fromkeys(conjs))
    units.dedup_hits += len(conjs) - len(out)
    return out


def _pushed(sf: S.StandardForm):
    """Run the full block-pushing pipeline on a separated sentence.

    Returns (conjuncts, units, leading) where each conjunct is a frozenset
    of unit ids understood as a disjunction, the whole list as a
    conjunction under exists(leading).
    """
    if not analysis.is_sf(sf):
        raise NotSF("translation applies to separated sentences only")
    units = _Units()
    matrix_cnf = S.cnf_matrix(sf.matrix, max_clauses=CLAUSE_CAP)
    conjs = [
        frozenset(units.literal(lit.positive, lit.atom) for lit in clause)
        for clause in matrix_cnf.clauses
    ]
    conjs = _dedup_conjuncts(conjs, units)

    for x_block, y_block in reversed(sf.blocks):
        if y_block:
            conjs = _push_existential(conjs, units, y_block)
        conjs = _push_universal(conjs, units, x_block)
        conjs = _dedup_conjuncts(conjs, units)
    return conjs, units, sf.leading


def _push_existential(conjs, units: _Units, y_block):
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
    return passthrough + _selections(split, units, y_block)


def _selections(split, units: _Units, y_block):
    """The selection-function expansion of exists y_block over conjuncts
    given as (residue ids, carried ids) pairs: one conjunct per nonempty
    subset s, holding the residues of s and one existential unit per
    selection function restricted to s.  Raises `SelectionBudgetExceeded`
    past `CONJUNCT_CAP` conjuncts before any is built, and past
    `SELECTION_CAP` selection functions for one subset."""
    if (1 << len(split)) - 1 > CONJUNCT_CAP:
        # 2^n - 1 itself may have too many digits to print
        raise SelectionBudgetExceeded(
            f"existential block expansion needs 2^{len(split)} - 1 "
            f"conjuncts, cap is {CONJUNCT_CAP}",
            limit=CONJUNCT_CAP,
        )
    out = []
    memo: dict[frozenset, int] = {}
    for size in range(1, len(split) + 1):
        for s in itertools.combinations(split, size):
            count = math.prod(len(carried) for _, carried in s)
            if count > SELECTION_CAP:
                raise SelectionBudgetExceeded(
                    f"{count} selection functions in one conjunct, cap is {SELECTION_CAP}",
                    limit=SELECTION_CAP,
                )
            bodies = {frozenset(choice) for choice in itertools.product(*(carried for _, carried in s))}
            ids = set().union(*(residue for residue, _ in s))
            for body in sorted(bodies, key=sorted):
                ids.add(units.quantified(S.exists, y_block, body, memo))
            out.append(frozenset(ids))
    return out


def _push_universal(conjs, units: _Units, x_block):
    xset = set(x_block)
    out = []
    memo: dict[frozenset, int] = {}
    for c in conjs:
        inside = frozenset(k for k in c if units.free[k] & xset)
        if not inside:
            out.append(c)
            continue
        out.append((c - inside) | {units.quantified(S.forall, x_block, inside, memo)})
    return out


def push_quantifiers(sf: S.StandardForm) -> S.Formula:
    """Move all quantifier blocks inward; in the result no universal
    quantifier lies inside an existential scope (beyond the leading
    block) and vice versa."""
    conjs, units, leading = _pushed(sf)
    return _sentence(leading, conjs, units)


def _sentence(leading, conjs, units: _Units) -> S.Formula:
    """exists leading. (conjunction of the unit disjunctions `conjs`),
    renamed apart."""
    body = S.conj([S.disj([units.formula(k) for k in sorted(c)]) for c in conjs])
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


def _minimize_terms(terms):
    """Drop terms that are supersets of another term, and return the rest
    in (length, sorted ids) order, the order of `to_bsr`'s disjuncts.
    Terms are distinct, so only a strictly shorter kept term can be a
    proper subset of t."""
    ordered = sorted(set(terms), key=lambda t: (len(t), sorted(t)))
    kept = []
    shorter, length = [], 0  # the kept terms strictly shorter than t
    for t in ordered:
        if len(t) > length:
            shorter, length = list(kept), len(t)
        if not any(k <= t for k in shorter):
            kept.append(t)
    return kept


def _plan(sf: S.StandardForm):
    """The BSR plan of a separated sentence not in BSR form, raising what
    `to_bsr` raises: (conjuncts, units, leading, terms, n_exi), with the
    minimal DNF terms (None past `DNF_TERM_CAP`) and the number of
    existential prefix slots.  An existential unit takes one slot per
    quantified variable: the factored strategy shares one prefix among the
    terms, the direct one gives every unit occurrence its own."""
    conjs, units, leading = _pushed(sf)
    slots = units.slots
    terms = _distribute(conjs)
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


def to_bsr(sf: S.StandardForm) -> BsrSentence:
    """Full translation to an equivalent exists*forall* sentence.

    After pushing the blocks inward, the conjunction of unit-disjunctions
    is distributed into a disjunction of unit sets (with absorption),
    existential units are instantiated against a single prefix shared by
    all disjuncts, and universal units are hoisted with fresh variables.
    When distribution exceeds `DNF_TERM_CAP` terms the conjunction shape
    is kept and every unit occurrence gets its own prefix variables
    instead.  Past `CLAUSE_CAP`, `CONJUNCT_CAP` or `SELECTION_CAP` it
    raises a budget error.  The prefix is allocated from the count of the
    plan `bsr_leading_count` reads.
    """
    if not analysis.is_sf(sf):
        raise NotSF("translation applies to separated sentences only")
    bound = analysis.bounds(sf).translation_existentials
    # fast path: already exists*forall*
    if analysis.is_bsr(sf):
        uni = sf.blocks[0][0] if sf.blocks else ()
        stats = _stats(len(sf.leading), len(uni), 0, "direct", bound)
        return BsrSentence(sf.leading, tuple(uni), sf.matrix, stats)

    conjs, units, leading, terms, n_exi = _plan(sf)

    # u and v names never collide, so no name depends on the order of allocation;
    # every prefix variable of a standard form occurs in its matrix, so these
    # are all the names of the units
    taken = {*leading, *sf.universal_vars, *sf.existential_vars}
    fresh = S.FreshNames(taken | S.constants_of(sf.matrix))
    exi = tuple(fresh.fresh(f"u{i}") for i in range(1, n_exi + 1))
    uni: list[str] = []
    uni_names = _numbered(fresh, "v", uni)  # universal occurrences never share variables

    def flat(ids, connect, exi_names):
        return connect([
            units.flat(k, exi_names if units.keys[k][0] is S.exists else uni_names, {})
            for k in sorted(ids)
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


def bsr_leading_count(sf: S.StandardForm) -> int:
    """`len(to_bsr(sf).leading)` for a separated sentence not in BSR
    form, read off the plan that `to_bsr` builds its sentence from, without
    building the matrix; raises what `to_bsr` raises."""
    _, _, leading, _, n_exi = _plan(sf)
    return len(leading) + n_exi


def _stats(n_lead, n_uni, dedup, strategy, bound: analysis.TetrationExpr) -> BsrStats:
    exact = bound.evaluate()
    within = None if exact is None else n_lead <= exact
    return BsrStats(n_lead, n_uni, dedup, strategy, bound, exact, within)


def _distribute(conjs):
    """Conjunction of unit-id disjunctions -> minimal disjunction of
    unit-id sets, or None past `DNF_TERM_CAP` terms."""
    terms = [frozenset()]
    for c in sorted(conjs, key=lambda c: (len(c), sorted(c))):
        new = []
        for t in terms:
            if t & c:
                new.append(t)  # already satisfies this conjunct
                continue
            for u in sorted(c):
                new.append(t | {u})
        if len(new) > DNF_TERM_CAP:
            return None
        terms = list(set(new))
        if len(terms) > 256:
            terms = _minimize_terms(terms)
        if len(terms) > DNF_TERM_CAP:
            return None
    return _minimize_terms(terms)

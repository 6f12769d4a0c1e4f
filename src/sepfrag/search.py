"""Exhaustive model enumeration, model search, and the equivalence oracle.

Structures over a finite signature and universe {e1..em} are identified
with bit codes: one bit per ground atom, ordered predicate-major.  The
evaluator computes a formula's truth over 2^20 structures at a time as a
packed uint64 vector, which makes the brute-force oracles cheap enough to
back every other module's tests.  The evaluator enumerates each
quantifier block as written.  `ModelSearch` evaluates size 1 on the
sentence itself, where every block has one binding, and builds the
`scope_minimized` form, whose blocks are as narrow as possible, once for
all larger sizes; that changes cost, never truth values.

`Eq`, `Top` and `Bottom` evaluate to Python bools, which connectives
and quantifier loops fold, stopping at a dominating one; a bool becomes
a vector only at the root.  A subformula whose free variables are a
strict subset of those its parent varies is memoized under their
values, so it is evaluated once per binding of its free variables, not
once per binding of every enclosing quantifier.  Which subformulas
qualify is computed once per formula and search; the memo holds at most
`_MEMO_WORDS` words per chunk evaluation and, once full, is only read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import syntax as S
from .errors import BudgetExceeded, NotASentence
from .semantics import Structure, evaluate

_CHUNK_BITS = 20

# word with bit j set iff bit k of j is set, for k < 6
_WORD_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Memo budget of one chunk evaluation, in uint64 words (2 MB).  An entry
# is also charged _ENTRY_WORDS for its key, dict slot and array header
# (about 350 bytes under tracemalloc), which dominate one-word vectors.
_MEMO_WORDS = 1 << 18
_ENTRY_WORDS = 40


# Structures one `equivalent_upto` call may evaluate over all sizes and maps.
DEFAULT_BUDGET = 10_000_000


class GroundSpace:
    """Ground atoms of a signature over universe {e1..em}, in canonical
    order: predicates sorted by name, argument tuples lexicographic."""

    def __init__(self, sig: S.Signature, size: int):
        if size < 1:
            raise ValueError("universe size must be >= 1")
        self.sig = sig
        self.size = size
        self.universe = tuple(f"e{i + 1}" for i in range(size))
        self.atoms: list[tuple[str, tuple[int, ...]]] = []
        self.atom_index: dict[tuple[str, tuple[int, ...]], int] = {}
        for name in sorted(sig.predicates):
            for combo in itertools.product(range(size), repeat=sig.predicates[name]):
                self.atom_index[(name, combo)] = len(self.atoms)
                self.atoms.append((name, combo))
        self.n_bits = len(self.atoms)
        self.const_names = tuple(sorted(sig.constants))
        self.chunk_bits = min(self.n_bits, _CHUNK_BITS)
        self.n_chunks = 1 << max(0, self.n_bits - self.chunk_bits)
        self.n_words = 1 << max(0, self.chunk_bits - 6)
        if self.chunk_bits < 6:
            self.valid_mask = np.uint64((1 << (1 << self.chunk_bits)) - 1)
        else:
            self.valid_mask = _ALL_ONES

    @property
    def n_structures(self) -> int:
        return self.size ** len(self.const_names) << self.n_bits

    def const_maps(self, canonical: bool = False) -> Iterator[dict[str, int]]:
        """Constant interpretations in lexicographic order.  With
        `canonical` only restricted-growth assignments are produced, which
        is complete up to isomorphism when all structures over the
        remaining symbols are enumerated."""
        for combo in itertools.product(range(self.size), repeat=len(self.const_names)):
            # restricted growth: the indices first occur in the order 0, 1, 2, ...
            if canonical and list(dict.fromkeys(combo)) != list(range(len(set(combo)))):
                continue
            yield dict(zip(self.const_names, combo))

    def decode(self, cmap: dict[str, int], code: int) -> Structure:
        tables: dict[str, set] = {name: set() for name in self.sig.predicates}
        for bit, (name, combo) in enumerate(self.atoms):
            if (code >> bit) & 1:
                tables[name].add(tuple(self.universe[i] for i in combo))
        return Structure(
            self.universe,
            {c: self.universe[i] for c, i in cmap.items()},
            {name: frozenset(t) for name, t in tables.items()},
        )

    # -- packed evaluation ------------------------------------------------

    def _atom_vec(self, bit: int, chunk: int, cache: dict) -> np.ndarray:
        vec = cache.get(bit)
        if vec is not None:
            return vec
        if bit >= self.chunk_bits:
            on = (chunk >> (bit - self.chunk_bits)) & 1
            vec = np.full(self.n_words, _ALL_ONES if on else 0, dtype=np.uint64)
        elif bit < 6:
            vec = np.full(self.n_words, np.uint64(_WORD_PATTERNS[bit]), dtype=np.uint64)
        else:
            run = 1 << (bit - 6)
            pattern = np.concatenate(
                [np.zeros(run, dtype=np.uint64), np.full(run, _ALL_ONES, dtype=np.uint64)]
            )
            vec = np.tile(pattern, self.n_words // (2 * run))
        cache[bit] = vec
        return vec

    def eval_chunk(
        self, f: S.Formula, cmap: dict[str, int], chunk: int, plan: Optional[dict] = None
    ) -> np.ndarray:
        """Truth of sentence f on every structure in the chunk, one bit
        per structure code.  `plan` is f's `_memo_plan`, built here when
        not given."""
        out = _VecEval(self, cmap, chunk, _memo_plan(f) if plan is None else plan).eval(f, {})
        if type(out) is bool:
            return np.full(self.n_words, self.valid_mask if out else 0, dtype=np.uint64)
        return out & self.valid_mask

    def first_true(self, vec: np.ndarray, chunk: int) -> Optional[int]:
        nz = np.nonzero(vec)[0]
        if len(nz) == 0:
            return None
        w = int(nz[0])
        word = int(vec[w])
        bit = (word & -word).bit_length() - 1
        return (chunk << self.chunk_bits) + w * 64 + bit


class _VecEval:
    """Packed evaluation of one formula on one chunk.

    A value is a bool where the predicate tables do not matter (folded
    `Eq`, `Top`, `Bottom`) and a packed vector otherwise.  Subformulas in
    `plan` (see `_memo_plan`) are memoized under the values of their free
    variables; an entry is charged its vector's words plus `_ENTRY_WORDS`,
    and once `_MEMO_WORDS` are charged the memo is only read.  Returned
    vectors may be shared with the atom cache or the memo and are never
    written to.  Quantifier blocks are enumerated as written;
    `scope_minimized` fixes how they nest.
    """

    def __init__(self, space: GroundSpace, cmap, chunk, plan):
        self.space = space
        self.cmap = cmap
        self.chunk = chunk
        self.plan = plan
        self.cache: dict[int, np.ndarray] = {}
        self.memo: dict = {}
        self.room = _MEMO_WORDS

    def _resolve(self, t: S.Term, env) -> int:
        if isinstance(t, S.Var):
            return env[t.name]
        return self.cmap[t.name]

    def _instances(self, g, env):
        """Values of a quantifier's body under each binding of its block."""
        for combo in itertools.product(range(self.space.size), repeat=len(g.vars)):
            env2 = dict(env)
            env2.update(zip(g.vars, combo))
            yield self.eval(g.body, env2)

    def eval(self, g: S.Formula, env):
        marked = self.plan.get(id(g))
        if marked is None:
            return self._eval(g, env)
        slot, names = marked
        key = (slot, tuple([env[v] for v in names]))
        out = self.memo.get(key)
        if out is None:
            out = self._eval(g, env)
            cost = _ENTRY_WORDS if type(out) is bool else _ENTRY_WORDS + len(out)
            if cost <= self.room:
                self.room -= cost
                self.memo[key] = out
        return out

    def _eval(self, g: S.Formula, env):
        rule = _RULES.get(type(g))
        if rule is None:
            raise TypeError(f"not a formula: {g!r}")
        return rule(self, g, env)

    def _pred(self, g: S.Pred, env):
        bit = self.space.atom_index[(g.name, tuple(self._resolve(t, env) for t in g.args))]
        return self.space._atom_vec(bit, self.chunk, self.cache)

    def _implies(self, g: S.Implies, env):
        left = self.eval(g.left, env)
        if left is False:
            return True
        return _or(_not(left), self.eval(g.right, env))

    def _iff(self, g: S.Iff, env):
        left = self.eval(g.left, env)
        right = self.eval(g.right, env)
        if type(left) is bool:
            return right if left else _not(right)
        if type(right) is bool:
            return left if right else ~left
        return ~(left ^ right)

    def _count(self, g: S.CountingExists, env):
        # levels[i]: at least i witness tuples so far
        levels = [True] + [False] * g.n
        for v in self._instances(g, env):
            if v is False:
                continue
            for i in range(g.n, 0, -1):
                levels[i] = _or(levels[i], _and(levels[i - 1], v))
            if levels[g.n] is True:
                return True
        return levels[g.n]


# `_VecEval._eval` by node type
_RULES = {
    S.Pred: _VecEval._pred,
    S.Eq: lambda ev, g, env: ev._resolve(g.left, env) == ev._resolve(g.right, env),
    S.Top: lambda ev, g, env: True,
    S.Bottom: lambda ev, g, env: False,
    S.Not: lambda ev, g, env: _not(ev.eval(g.sub, env)),
    S.And: lambda ev, g, env: _combine(True, (ev.eval(p, env) for p in g.parts)),
    S.Or: lambda ev, g, env: _combine(False, (ev.eval(p, env) for p in g.parts)),
    S.Implies: _VecEval._implies,
    S.Iff: _VecEval._iff,
    S.Forall: lambda ev, g, env: _combine(True, ev._instances(g, env)),
    S.Exists: lambda ev, g, env: _combine(False, ev._instances(g, env)),
    S.CountingExists: _VecEval._count,
}


def _not(a):
    return (not a) if type(a) is bool else ~a


def _and(a, b):
    if a is False or b is True:
        return a
    if a is True or b is False:
        return b
    return a & b


def _or(a, b):
    if a is True or b is False:
        return a
    if a is False or b is True:
        return b
    return a | b


def _combine(is_and, values):
    """Conjunction (disjunction) of values, stopping at the first
    dominating bool; allocates only once two vectors meet."""
    acc = is_and
    owned = False
    for v in values:
        if type(v) is bool:
            if v is not is_and:
                return v
        elif type(acc) is bool:
            acc = v
        elif owned:
            (np.bitwise_and if is_and else np.bitwise_or)(acc, v, out=acc)
        else:
            acc = acc & v if is_and else acc | v
            owned = True
    return acc


def _memo_plan(f: S.Formula) -> dict[int, tuple[int, tuple[str, ...]]]:
    """Subformulas of f that `_VecEval` memoizes: id -> (slot, free
    variables).

    A subformula is marked when its free variables are a strict subset of
    those its parent varies while evaluating it (the parent's free
    variables, and for a quantifier its bound ones too): only then can it
    be requested again under the same values.  Equal subformulas share a
    slot.  Atoms stay out: `Pred` has the atom cache, and `Eq`, `Top` and
    `Bottom` are bools.
    """
    plan: dict[int, tuple[int, tuple[str, ...]]] = {}
    slots: dict[S.Formula, int] = {}

    def walk(g) -> frozenset:
        if isinstance(g, _ATOMS):
            return S.free_vars(g)
        kids = S.children(g)
        bound = frozenset(g.vars) if isinstance(g, _QUANTIFIERS) else frozenset()
        kid_vars = [walk(k) for k in kids]
        varied = bound.union(*kid_vars)
        for k, kv in zip(kids, kid_vars):
            if kv < varied and not isinstance(k, _ATOMS):
                plan[id(k)] = (slots.setdefault(k, len(slots)), tuple(sorted(kv)))
        return varied - bound

    walk(f)
    return plan


_ATOMS = (S.Top, S.Bottom, S.Pred, S.Eq)
_QUANTIFIERS = (S.Forall, S.Exists, S.CountingExists)


# ---------------------------------------------------------------------------
# scope minimization
#
# Fixes the whole evaluation schedule before packed evaluation, which
# enumerates every quantifier block exactly as written.  Blocks merge
# into adjacent same-kind blocks, distribute over their own connective,
# and split across independent parts of the dual connective.  A block
# whose dual-connective body stays connected peels its first variable
# and minimizes the rest beneath it, so parts that share only that
# variable still split once it is bound.  This rewriting only changes
# evaluation cost; its truth-preservation is cross-checked against the
# reference evaluator in the test suite.


def scope_minimized(f: S.Formula) -> S.Formula:
    # id -> (free variables, node); holding the node keeps its id unique
    memo: dict[int, tuple[frozenset, S.Formula]] = {}

    def free(g: S.Formula) -> frozenset:
        hit = memo.get(id(g))
        if hit is None:
            kids = S.children(g)
            fv = frozenset().union(*map(free, kids)) if kids else S.free_vars(g)
            if isinstance(g, _QUANTIFIERS):
                fv -= frozenset(g.vars)
            hit = memo[id(g)] = (fv, g)
        return hit[0]

    def walk(g: S.Formula) -> S.Formula:
        if isinstance(g, (S.Forall, S.Exists)):
            return _block(type(g), g.vars, walk(g.body), free)
        return S.rebuild(g, [walk(k) for k in S.children(g)])

    return walk(f)


def _block(quant, names, body: S.Formula, free) -> S.Formula:
    """Minimized form of `quant names. body` for an already minimized body."""
    names = tuple(v for v in names if v in free(body))
    if not names:
        return body
    if type(body) is quant and not set(names) & set(body.vars):
        return _block(quant, names + body.vars, body.body, free)
    if not isinstance(body, (S.And, S.Or)):
        return quant(names, body)
    conn = type(body)
    if (quant is S.Forall) == (conn is S.And):
        return conn(tuple(_block(quant, names, p, free) for p in body.parts))
    groups: list[tuple[set, list]] = []
    free_parts = []
    nameset = set(names)
    for p in body.parts:
        pv = free(p) & nameset
        if not pv:
            free_parts.append(p)
            continue
        hit = [g for g in groups if g[0] & pv]
        merged = (set(pv), [p])
        for g in hit:
            merged[0].update(g[0])
            merged[1].extend(g[1])
            groups.remove(g)
        groups.append(merged)
    if free_parts or len(groups) > 1:
        order = {id(p): i for i, p in enumerate(body.parts)}
        pieces = []
        for gvars, gparts in groups:
            gparts.sort(key=lambda p: order[id(p)])
            sub = gparts[0] if len(gparts) == 1 else conn(tuple(gparts))
            pieces.append(_block(quant, tuple(v for v in names if v in gvars), sub, free))
        pieces.extend(free_parts)
        return conn(tuple(pieces))
    if len(names) > 1:
        return quant(names[:1], _block(quant, names[1:], body, free))
    return quant(names, body)


# ---------------------------------------------------------------------------
# public operations


def enumerate_structures(sig: S.Signature, size: int) -> Iterator[Structure]:
    """Every structure over sig with universe {e1..e_size}, constant maps
    lexicographic outermost, predicate table codes ascending innermost."""
    space = GroundSpace(sig, size)
    for cmap in space.const_maps():
        for code in range(1 << space.n_bits):
            yield space.decode(cmap, code)


class ModelSearch:
    """Model search on one sentence, prepared once.  Size 1 evaluates the
    sentence as written: every quantifier block has one binding there, so
    scope minimization and memoization save nothing.  The scope-minimized
    form and its memo plan are built on the first search at size 2 or
    more and reused for every later size and call."""

    def __init__(self, f: S.Formula):
        if S.free_vars(f):
            raise NotASentence(f"free variables: {sorted(S.free_vars(f))}")
        self.f = f
        self.sig = S.infer_signature(f)
        self._reduced = None  # (scope-minimized form, its memo plan)

    def run(self, max_size: int, min_size: int = 1) -> Optional[Structure]:
        """`find_model` on the prepared sentence."""
        for size in range(min_size, max_size + 1):
            if size > 1 and self._reduced is None:
                reduced = scope_minimized(self.f)
                self._reduced = (reduced, _memo_plan(reduced))
            g, plan = (self.f, {}) if size == 1 else self._reduced
            space = GroundSpace(self.sig, size)
            for cmap in space.const_maps(canonical=True):
                for chunk in range(space.n_chunks):
                    code = space.first_true(space.eval_chunk(g, cmap, chunk, plan), chunk)
                    if code is not None:
                        witness = space.decode(cmap, code)
                        if not evaluate(witness, {}, self.f):
                            raise RuntimeError(
                                "internal error: packed evaluation disagrees with "
                                "the reference evaluator on the returned witness"
                            )
                        return witness
        return None


def find_model(f: S.Formula, max_size: int = 4, min_size: int = 1) -> Optional[Structure]:
    """First structure (sizes min_size..max_size, canonical enumeration
    order) satisfying the sentence, or None.  Constants are pinned to
    canonical universe prefixes, which is complete up to isomorphism."""
    return ModelSearch(f).run(max_size, min_size)


@dataclass(frozen=True)
class Counterexample:
    structure: Structure
    assignment: dict
    which: str  # "left" or "right": the input that evaluates to true


@dataclass(frozen=True)
class EquivVerdict:
    equal: bool
    counterexample: Optional[Counterexample] = None


def equivalent_upto(
    f: S.Formula,
    g: S.Formula,
    size: int,
    budget: int = DEFAULT_BUDGET,
) -> EquivVerdict:
    """Exhaustively compare f and g on every structure with universe size
    1..size over their joint signature.

    Free variables are handled by binding them to fresh constants, so the
    check covers all assignments as well.  Constant maps are enumerated
    canonically (restricted growth), which is complete up to isomorphism;
    the canonical map is the lex-least of its orbit, so the first
    disagreement is the one a full enumeration would meet first.  It is
    reported; exceeding the structure budget, counted over all constant
    maps, raises.
    """
    fv = sorted(S.free_vars(f) | S.free_vars(g))
    fresh = S.FreshNames(S.constants_of(f) | S.constants_of(g) | set(fv))
    var_consts = {v: fresh.fresh(f"{v}_val") for v in fv}
    if var_consts:
        binding = {v: S.Const(c) for v, c in var_consts.items()}
        f = S.substitute(f, binding)
        g = S.substitute(g, binding)
    sig = S.infer_signature(g, S.infer_signature(f))

    fr = scope_minimized(f)
    gr = scope_minimized(g)
    fplan, gplan = _memo_plan(fr), _memo_plan(gr)
    spent = 0
    for m in range(1, size + 1):
        space = GroundSpace(sig, m)
        spent += space.n_structures
        if spent > budget:
            raise BudgetExceeded(
                f"equivalence check needs {spent} structure evaluations, "
                f"budget is {budget}",
                needed=spent,
                limit=budget,
            )
        for cmap in space.const_maps(canonical=True):
            for chunk in range(space.n_chunks):
                va = space.eval_chunk(fr, cmap, chunk, fplan)
                vb = space.eval_chunk(gr, cmap, chunk, gplan)
                code = space.first_true(va ^ vb, chunk)
                if code is None:
                    continue
                witness = space.decode(cmap, code)
                assignment = {
                    v: witness.constants[c] for v, c in var_consts.items()
                }
                consts = {
                    c: e for c, e in witness.constants.items() if c not in var_consts.values()
                }
                local = code - (chunk << space.chunk_bits)
                left_true = bool((int(va[local >> 6]) >> (local & 63)) & 1)
                return EquivVerdict(
                    False,
                    Counterexample(
                        Structure(witness.universe, consts, witness.predicates),
                        assignment,
                        "left" if left_true else "right",
                    ),
                )
    return EquivVerdict(True)

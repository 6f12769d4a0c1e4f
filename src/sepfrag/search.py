"""Exhaustive model enumeration, model search, and the equivalence oracle.

Structures over a finite signature and universe {e1..em} are identified
with bit codes: one bit per ground atom, ordered predicate-major.  The
evaluator computes a formula's truth over a chunk of 2^18 structures at
a time as a Python int with one bit per structure, which makes the
brute-force oracles cheap enough to back every other module's tests.
The evaluator enumerates each quantifier block as written.
`ModelSearch` is the one model search: it evaluates size 1 on the
sentence itself, where every block has one binding, and builds the
`scope_minimized` form, whose blocks are as narrow as possible, once for
all larger sizes; that changes cost, never truth values.  A size with
more than `_SCAN_BITS` ground atoms is not scanned: the scope-minimized
form is encoded as one CNF over that size, MACE-style (`_SatEncoding`),
and handed to the CDCL solver `decide.dpll_sat`.  Only the packed scan
promises the first structure in canonical enumeration order; the SAT
route returns any model.  Every structure `ModelSearch` returns is
re-checked by the reference evaluator.  The equivalence oracle is a
model search for `f <-> ~g`, which holds exactly where f and g disagree.

`Eq`, `Top`, `Bottom` and atoms whose bit lies above the chunk, which
are constant on it, evaluate to Python bools.  Connectives and
quantifier loops fold them, stopping at a dominating one; a vector with
no bit (every bit) set stops a conjunction (disjunction) the same way,
and a bool becomes a vector only at the root.  A subformula whose free
variables are a strict subset of those its parent varies is memoized
under their values, so it is evaluated once per binding of its free
variables, not once per binding of every enclosing quantifier.  Which
subformulas qualify is computed once per formula and search; the memo
holds at most `_MEMO_WORDS` words per chunk evaluation and, once full,
is only read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import syntax as S
from .errors import BadParams, BudgetExceeded, NotASentence, depth_guarded
from .generators import expand_counting
from .semantics import Structure, evaluate

_CHUNK_BITS = 18

# Largest size, in ground atoms, that the model search scans; a larger
# one is a single SAT call.  A scan costs 2^(n_bits - 18) chunk
# evaluations per constant map, up to 24 ms each on the decide-fo
# benchmark inputs: predictable, and up to 30 bits at most minutes.  SAT
# can be far slower on a size with no model: hard n=1 against its BSR
# form takes 0.05 s scanned against 1.7 s by SAT at 16 bits, and 1.1 s
# against over 60 s at 24 bits.  Beyond 30 bits a scan is 2^13 or more
# chunk evaluations per map, and the lower-bound sentences at size 2 (52
# and 88 bits) take SAT 25-50 ms.
_SCAN_BITS = 30

# byte with bit j set iff bit k of j is set, for k < 3
_BYTE_PATTERNS = (0xAA, 0xCC, 0xF0)

# (chunk_bits, bit) -> vector with bit j set iff bit `bit` of j is set;
# at most 18 entries of 32 KB each at 18 chunk bits
_PATTERNS: dict[tuple[int, int], int] = {}

# Memo budget of one chunk evaluation, in 64-bit words of vector (2 MB).
# An entry is also charged _ENTRY_WORDS for its key, dict slot and int
# header, which dominate one-word vectors.
_MEMO_WORDS = 1 << 18
_ENTRY_WORDS = 40


# Structures one `equivalent_upto` call may evaluate over all sizes and maps.
DEFAULT_BUDGET = 10_000_000


class GroundSpace:
    """Ground atoms of a signature over universe {e1..em}, in canonical
    order: predicates sorted by name, argument tuples lexicographic."""

    def __init__(self, sig: S.Signature, size: int):
        if size < 1:
            raise BadParams(f"universe size must be >= 1, got {size}")
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
        self.valid_mask = (1 << (1 << self.chunk_bits)) - 1
        # vector of each atom whose bit varies within a chunk
        self.patterns = [_pattern(self.chunk_bits, bit) for bit in range(self.chunk_bits)]

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

    def _atom_vec(self, bit: int, chunk: int):
        """An atom's vector, or its bool where it is constant on the chunk."""
        if bit < self.chunk_bits:
            return self.patterns[bit]
        return bool((chunk >> (bit - self.chunk_bits)) & 1)

    def eval_chunk(
        self, f: S.Formula, cmap: dict[str, int], chunk: int, plan: Optional[dict] = None
    ) -> int:
        """Truth of sentence f on every structure in the chunk: bit j is
        set iff f holds on structure code (chunk << chunk_bits) + j.
        `plan` is f's `_memo_plan`, built here when not given."""
        out = _VecEval(self, cmap, chunk, _memo_plan(f) if plan is None else plan).eval(f, {})
        if type(out) is bool:
            return self.valid_mask if out else 0
        return out

    def first_true(self, vec: int, chunk: int) -> Optional[int]:
        if not vec:
            return None
        return (chunk << self.chunk_bits) + (vec & -vec).bit_length() - 1


def _pattern(chunk_bits: int, bit: int) -> int:
    """Vector of 2^chunk_bits bits with bit j set iff bit `bit` of j is
    set, built from a repeated byte pattern and cached."""
    vec = _PATTERNS.get((chunk_bits, bit))
    if vec is None:
        if bit < 3:
            unit = bytes([_BYTE_PATTERNS[bit]])
        else:
            run = 1 << (bit - 3)
            unit = bytes(run) + b"\xff" * run
        n_units = max(1, (1 << chunk_bits) >> 3) // len(unit)
        vec = int.from_bytes(unit * n_units, "little") & ((1 << (1 << chunk_bits)) - 1)
        _PATTERNS[(chunk_bits, bit)] = vec
    return vec


class _VecEval:
    """Packed evaluation of one formula on one chunk.

    A value is a bool where the predicate tables do not matter (folded
    `Eq`, `Top`, `Bottom`, atoms constant on the chunk, and connectives
    that met a dominating value) and otherwise an int vector with one bit
    per structure of the chunk and no bit above them.  Subformulas in
    `plan` (see `_memo_plan`) are memoized under the values of their free
    variables; an entry is charged the chunk's `n_words` plus
    `_ENTRY_WORDS`, and once `_MEMO_WORDS` are charged the memo is only
    read.  Quantifier blocks are enumerated as written;
    `scope_minimized` fixes how they nest.
    """

    def __init__(self, space: GroundSpace, cmap, chunk, plan):
        self.space = space
        self.cmap = cmap
        self.chunk = chunk
        self.plan = plan
        self.mask = space.valid_mask
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
            cost = _ENTRY_WORDS if type(out) is bool else _ENTRY_WORDS + self.space.n_words
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
        return self.space._atom_vec(bit, self.chunk)

    def _implies(self, g: S.Implies, env):
        left = self.eval(g.left, env)
        if left is False:
            return True
        return _or(_not(left, self.mask), self.eval(g.right, env))

    def _iff(self, g: S.Iff, env):
        left = self.eval(g.left, env)
        right = self.eval(g.right, env)
        if type(left) is bool:
            return right if left else _not(right, self.mask)
        if type(right) is bool:
            return left if right else left ^ self.mask
        return left ^ right ^ self.mask

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
    S.Not: lambda ev, g, env: _not(ev.eval(g.sub, env), ev.mask),
    S.And: lambda ev, g, env: _combine(True, (ev.eval(p, env) for p in g.parts), ev.mask),
    S.Or: lambda ev, g, env: _combine(False, (ev.eval(p, env) for p in g.parts), ev.mask),
    S.Implies: _VecEval._implies,
    S.Iff: _VecEval._iff,
    S.Forall: lambda ev, g, env: _combine(True, ev._instances(g, env), ev.mask),
    S.Exists: lambda ev, g, env: _combine(False, ev._instances(g, env), ev.mask),
    S.CountingExists: _VecEval._count,
}


def _not(a, mask):
    return (not a) if type(a) is bool else a ^ mask


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


def _combine(is_and, values, mask):
    """Conjunction (disjunction) of values, stopping at the first
    dominating one: a bool, or a vector with no bit (every bit) set,
    which becomes that bool."""
    stop = 0 if is_and else mask
    acc = is_and
    for v in values:
        if type(v) is bool:
            if v is not is_and:
                return v
            continue
        acc = v if type(acc) is bool else (acc & v if is_and else acc | v)
        if acc == stop:
            return not is_and
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
    memo: dict = {}  # `syntax.free_vars` of every non-atom node of f
    S.free_vars(f, memo)
    for fv, g in memo.values():
        varied = fv.union(g.vars) if isinstance(g, _QUANTIFIERS) else fv
        for k in S.children(g):
            if not isinstance(k, _ATOMS) and memo[id(k)][0] < varied:
                plan[id(k)] = (slots.setdefault(k, len(slots)), tuple(sorted(memo[id(k)][0])))
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
    memo: dict = {}  # `syntax.free_vars` of the nodes met

    def walk(g: S.Formula) -> S.Formula:
        if isinstance(g, (S.Forall, S.Exists)):
            return _block(type(g), g.vars, walk(g.body), memo)
        return S.rebuild(g, [walk(k) for k in S.children(g)])

    return walk(f)


def _block(quant, names, body: S.Formula, memo: dict) -> S.Formula:
    """Minimized form of `quant names. body` for an already minimized
    body; `memo` is the `syntax.free_vars` memo of the whole walk."""
    free = S.free_vars(body, memo)
    names = tuple(v for v in names if v in free)
    if not names:
        return body
    if type(body) is quant and not set(names) & set(body.vars):
        return _block(quant, names + body.vars, body.body, memo)
    if not isinstance(body, (S.And, S.Or)):
        return quant(names, body)
    conn = type(body)
    if (quant is S.Forall) == (conn is S.And):
        return conn(tuple(_block(quant, names, p, memo) for p in body.parts))
    groups: list[tuple[set, list]] = []
    free_parts = []
    nameset = set(names)
    for p in body.parts:
        pv = S.free_vars(p, memo) & nameset
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
            pieces.append(_block(quant, tuple(v for v in names if v in gvars), sub, memo))
        pieces.extend(free_parts)
        return conn(tuple(pieces))
    if len(names) > 1:
        return quant(names[:1], _block(quant, names[1:], body, memo))
    return quant(names, body)


# ---------------------------------------------------------------------------
# SAT encoding of one size (Claessen & Sörensson 2003, MACE-style)


class _SatEncoding(S.Gates):
    """Clauses whose models are the structures over `space` on which a
    counting-free sentence is true, built by one memoized walk.

    Variable bit + 1 is the ground atom `space.atoms[bit]`, so `decode`
    reads the predicate tables off an assignment.  Each constant takes
    one value through one-hot variables.  The i-th constant in sorted
    order may only name e1..e(i+1), which keeps a structure of every
    isomorphism class; a constant left with one value has no variable.
    The sentence is in NNF (`syntax.to_nnf`), so every gate occurs
    positively, as the Plaisted-Greenbaum gates of `syntax.Gates`
    require, and a subformula is encoded once per values of its free
    variables.  An atom with constant arguments is the disjunction, over
    the values its constants can take, of those values and the ground
    atom; its negation is the dual conjunction.
    """

    def __init__(self, space: GroundSpace, free_memo: dict):
        super().__init__(space.n_bits)
        self.space = space
        self.free_memo = free_memo  # `syntax.free_vars` memo over the encoded sentence
        self.memo: dict = {}
        self.values: dict[str, list] = {}  # constant -> literal per value it can take
        for i, c in enumerate(space.const_names):
            k = min(i + 1, space.size)
            if k == 1:
                self.values[c] = [True]
                continue
            lits = list(range(self.n + 1, self.n + k + 1))
            self.n += k
            self.clauses.append(tuple(lits))
            self.clauses += [(-a, -b) for a, b in itertools.combinations(lits, 2)]
            self.values[c] = lits

    def walk(self, g: S.Formula, env: dict):
        t = type(g)
        if t is S.Top or t is S.Bottom:
            return t is S.Top
        positive = t is not S.Not
        a = g if positive else g.sub
        ta = type(a)
        if ta is S.Pred or ta is S.Eq:
            terms = (a.left, a.right) if ta is S.Eq else a.args
            if all(type(u) is S.Var for u in terms):
                args = tuple([env[u.name] for u in terms])
                if ta is S.Eq:
                    return (args[0] == args[1]) == positive
                lit = self.space.atom_index[(a.name, args)] + 1
                return lit if positive else -lit
        key = (id(g), tuple([env[v] for v in S.free_vars(g, self.free_memo)]))
        out = self.memo.get(key)
        if out is None:
            if ta is S.Pred or ta is S.Eq:
                out = self._atom(a, terms, env, positive)
            else:
                out = self._encode(g, t, env)
            self.memo[key] = out
        return out

    def _encode(self, g, t, env):
        if t is S.And or t is S.Or:
            return self.gate("&" if t is S.And else "|", (self.walk(p, env) for p in g.parts))
        if t is S.Forall or t is S.Exists:
            combos = itertools.product(range(self.space.size), repeat=len(g.vars))
            return self.gate(
                "&" if t is S.Forall else "|",
                (self.walk(g.body, {**env, **dict(zip(g.vars, c))}) for c in combos),
            )
        raise TypeError(f"not a counting-free NNF formula: {g!r}")

    def _atom(self, g, terms, env, positive):
        eq = type(g) is S.Eq
        consts = [u.name for u in dict.fromkeys(terms) if type(u) is S.Const]
        parts = []
        for combo in itertools.product(*(enumerate(self.values[c]) for c in consts)):
            value = dict(zip(consts, [e for e, _ in combo]))
            args = [env[u.name] if type(u) is S.Var else value[u.name] for u in terms]
            lit = args[0] == args[1] if eq else self.space.atom_index[(g.name, tuple(args))] + 1
            lits = [l for _, l in combo] + [lit]
            if positive:
                parts.append(self.gate("&", lits))
            else:
                parts.append(self.gate("|", [(not l) if type(l) is bool else -l for l in lits]))
        return self.gate("|" if positive else "&", parts)

    def decode(self, assignment: dict) -> Structure:
        code = sum(1 << bit for bit in range(self.space.n_bits) if assignment[bit + 1])
        cmap = {
            c: next(e for e, l in enumerate(lits) if l is True or assignment[l])
            for c, lits in self.values.items()
        }
        return self.space.decode(cmap, code)


# ---------------------------------------------------------------------------
# public operations


def _n_structures(sig: S.Signature, size: int) -> int:
    """Structures over sig with universe {e1..e_size}, all constant maps."""
    return size ** len(sig.constants) << sum(size**a for a in sig.predicates.values())


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
    form is built on the first search at size 2 or more and reused for
    every later size and call; its memo plan only when a size is scanned.
    A size with more than `_SCAN_BITS` ground atoms is decided by one SAT
    call (`sat`), every other size by the packed scan (`scan`);
    `sat_sizes` lists the sizes decided by SAT."""

    def __init__(self, f: S.Formula):
        if S.free_vars(f):
            raise NotASentence(f"free variables: {sorted(S.free_vars(f))}")
        self.f = f
        self.sig = S.infer_signature(f)
        self._minimized = None  # scope-minimized form
        self._plan = None  # its memo plan, for the scan
        self._encoded = None  # (its counting-free NNF, `syntax.free_vars` memo over it)
        self.sat_sizes: list[int] = []

    def _reduced(self) -> S.Formula:
        if self._minimized is None:
            self._minimized = scope_minimized(self.f)
        return self._minimized

    def run(self, max_size: int, min_size: int = 1) -> Optional[Structure]:
        """`find_model` on the prepared sentence."""
        for size in range(min_size, max_size + 1):
            space = GroundSpace(self.sig, size)
            if space.n_bits > _SCAN_BITS:
                self.sat_sizes.append(size)
                witness = self.sat(space)
            else:
                witness = self.scan(space)
            if witness is not None:
                if not evaluate(witness, {}, self.f):
                    raise RuntimeError(
                        "internal error: model search disagrees with "
                        "the reference evaluator on the returned witness"
                    )
                return witness
        return None

    def scan(self, space: GroundSpace) -> Optional[Structure]:
        """First structure over `space`, in canonical enumeration order,
        on which packed evaluation finds the sentence true; not
        re-checked."""
        if space.size == 1:
            g, plan = self.f, {}
        else:
            g = self._reduced()
            if self._plan is None:
                self._plan = _memo_plan(g)
            plan = self._plan
        for cmap in space.const_maps(canonical=True):
            for chunk in range(space.n_chunks):
                code = space.first_true(space.eval_chunk(g, cmap, chunk, plan), chunk)
                if code is not None:
                    return space.decode(cmap, code)
        return None

    def sat(self, space: GroundSpace) -> Optional[Structure]:
        """A structure over `space` satisfying the encoding of the
        sentence (`_SatEncoding`), found by one call of the CDCL solver
        `decide.dpll_sat`, or None; not re-checked."""
        from . import decide  # imported here: decide imports this module

        if self._encoded is None:
            self._encoded = (S.to_nnf(expand_counting(self._reduced()).formula), {})
        g, free_memo = self._encoded
        enc = _SatEncoding(space, free_memo)
        enc.require(enc.walk(g, {}))
        verdict = decide.dpll_sat(decide.PropCnf(enc.n, tuple(enc.clauses)))
        return enc.decode(verdict.assignment) if verdict.status == "sat" else None


@depth_guarded
def find_model(f: S.Formula, max_size: int = 4, min_size: int = 1) -> Optional[Structure]:
    """Smallest-size structure (sizes min_size..max_size) satisfying the
    sentence, or None.  At a packed-scan size it is the first in
    canonical enumeration order; at a size decided by SAT it is the
    solver's model.  Constants are pinned to canonical universe prefixes,
    which is complete up to isomorphism.  A size below 1 raises
    BadParams."""
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


@depth_guarded
def equivalent_upto(
    f: S.Formula,
    g: S.Formula,
    size: int,
    budget: int = DEFAULT_BUDGET,
) -> EquivVerdict:
    """Exhaustively compare f and g on every structure with universe size
    1..size over their joint signature.

    Free variables are handled by binding them to fresh constants, so the
    check covers all assignments as well.  The comparison is a model
    search for `f <-> ~g`, which holds exactly where f and g disagree;
    its model is re-checked by the reference evaluator.  Exceeding the
    structure budget, counted over all constant maps and checked before
    each size, raises.  Within the default budget every size has at most
    23 ground atoms, so it is scanned and the counterexample is the first
    disagreement a full enumeration would meet; only a budget above
    2^30 structures reaches sizes decided by SAT.  A size below 1
    compares nothing and raises BadParams.
    """
    if size < 1:
        raise BadParams(f"equivalence check needs size >= 1, got {size}")
    fv = sorted(S.free_vars(f) | S.free_vars(g))
    fresh = S.FreshNames(S.constants_of(f) | S.constants_of(g) | set(fv))
    var_consts = {v: fresh.fresh(f"{v}_val") for v in fv}
    if var_consts:
        binding = {v: S.Const(c) for v, c in var_consts.items()}
        f = S.substitute(f, binding)
        g = S.substitute(g, binding)
    differ = ModelSearch(S.Iff(f, S.Not(g)))
    spent = 0
    for m in range(1, size + 1):
        spent += _n_structures(differ.sig, m)
        if spent > budget:
            raise BudgetExceeded(
                f"equivalence check needs {spent} structure evaluations, "
                f"budget is {budget}",
                needed=spent,
                limit=budget,
            )
        witness = differ.run(m, min_size=m)
        if witness is not None:
            consts = {
                c: e for c, e in witness.constants.items() if c not in var_consts.values()
            }
            return EquivVerdict(
                False,
                Counterexample(
                    Structure(witness.universe, consts, witness.predicates),
                    {v: witness.constants[c] for v, c in var_consts.items()},
                    "left" if evaluate(witness, {}, f) else "right",
                ),
            )
    return EquivVerdict(True)

"""Benchmark generators and their canonical-model oracles.

This module contains the constructive side of the package: counting
quantifier expansion, the small-model-property translation into the
strongly separated fragment, the kappa-level index hierarchy with its
intended model, the torus/domino encoding on top of it, the hard family
whose equivalent exists*forall* sentences need many leading existentials,
and equality elimination for separated sentences.

Hierarchy signature (fixed): constants lvl0..lvlK, c1..cMU, d1..dK,
e1..eK, bit0, bit1; predicates L/2, MinIdx/2, MaxIdx/2, J/4, Jstar/4,
Succ/3.  J(lvl, j, i, b) reads "bit i of index j at this level is b";
Jstar(lvl, j, i, bit1) means every bit of j strictly less significant
than position i is 1.  Level-l indices for l >= 1 are bit strings over
the level-(l-1) chain, least significant position first; the admissible
strings are those with most significant bit 0 plus the single string
0...01, giving 2^^l(mu-1)+1 indices per level.

Each axiom family of the lower-bound constructions is stated once.  The
minimal- and maximal-index axioms are one schema with a MinIdx row and a
MaxIdx row; the four binary-increment implications are one truth table
(below a run of ones the bit flips, so the new bit is b xor s); the
domino encoding's torus axioms and adjacency rule are one schema
instantiated for the horizontal (H) and vertical (V) axis.  Every axiom
forall x. p1 & ... & pn -> c of the hierarchy, the domino encoding and
the equality axioms is built by `_rule`.  The tiler and the canonical
models do not read these schemas: they are independent oracles against
which the tests check the encodings.

`smp_to_sf` and `sf_equality_elim` rewrite each node object of a shared
NNF once, so their output keeps the sharing of `to_nnf`'s DAG.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

from . import analysis
from . import syntax as S
from .errors import (
    BadParams,
    CapExceeded,
    EmptyDominoComponent,
    InfeasibleN,
    InvalidTiling,
    NotNNF,
    SizeMismatch,
    WordTooLong,
)
from .semantics import Structure, json_list
from .syntax import (
    And,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Var,
    conj,
    disj,
)

ELEMENT_CAP = 64


# ---------------------------------------------------------------------------
# counting quantifiers


@dataclass(frozen=True)
class ExpansionResult:
    formula: S.Formula
    breaks_separation: bool
    sites: int


def expand_counting(f: S.Formula) -> ExpansionResult:
    """Rewrite every counting quantifier into plain existentials: n fresh
    copies of the bound block, the body instantiated to each, plus
    pairwise disequalities between the copies.

    The result flags when an expansion puts fresh existential variables
    into an atom together with a universally quantified variable, since
    separatedness is lost in that case.  A sentence without counting
    quantifiers is returned as it is.
    """
    if not S.has_counting(f):
        return ExpansionResult(f, False, 0)
    fresh = S.FreshNames(S.all_var_names(f) | S.constants_of(f))
    introduced: set[str] = set()
    sites = 0

    def walk(g):
        nonlocal sites
        if not isinstance(g, S.CountingExists):
            return S.rebuild(g, [walk(k) for k in S.children(g)])
        body = walk(g.body)
        sites += 1
        groups = []
        for _ in range(g.n):
            grp = tuple(fresh.fresh(v) for v in g.vars)
            introduced.update(grp)
            groups.append(grp)
        copies = [
            S.substitute(body, {v: Var(nv) for v, nv in zip(g.vars, grp)})
            for grp in groups
        ]
        diseqs = []
        for a, b in itertools.combinations(groups, 2):
            diseqs.append(disj([Not(Eq(Var(u), Var(w))) for u, w in zip(a, b)]))
        return Exists(
            tuple(v for grp in groups for v in grp), conj(copies + diseqs)
        )

    out = walk(f)
    uni, _ = S.bound_vars_by_kind(out)
    breaks = False
    if introduced and uni:
        for a in S.atoms_iter(out):
            av = S.atom_vars(a)
            if av & introduced and av & uni:
                breaks = True
                break
    return ExpansionResult(out, breaks, sites)


# ---------------------------------------------------------------------------
# small-model-property translation


def smp_to_sf(f: S.Formula, bound: int) -> S.Formula:
    """Translate an NNF sentence of known model bound into the strongly
    separated fragment.

    With m = ceil(log2 bound) fresh unary predicates Q1..Qm, the
    indistinguishability formula hat(s, t) = /\\_i Qi(s) <-> Qi(t) is
    forced to coincide with equality by the axiom
    forall x y. hat(x, y) -> x = y, which caps the domain at 2^m
    elements.  Each subformula exists y. psi then becomes
    exists y. forall v. hat(y, v) -> psi[y/v], so existential variables
    survive only inside unary atoms.
    """
    if bound < 1:
        raise BadParams("model bound must be >= 1")
    if not S.is_nnf(f):
        raise NotNNF("input must be in negation normal form")
    m = max(0, math.ceil(math.log2(bound))) if bound > 1 else 0
    sig = S.infer_signature(f)
    qnames = []
    i = 0
    while len(qnames) < m:
        i += 1
        name = f"Q{i}"
        if name not in sig.predicates:
            qnames.append(name)
    fresh = S.FreshNames(S.all_var_names(f) | S.constants_of(f) | {"x", "y"})

    def eq_hat(s: S.Term, t: S.Term) -> S.Formula:
        return conj([Iff(Pred(q, (s,)), Pred(q, (t,))) for q in qnames])

    memo: dict[int, S.Formula] = {}  # id of a node of the input -> its rewrite

    def walk(g):
        if id(g) in memo:
            return memo[id(g)]
        if isinstance(g, S.CountingExists):
            raise NotNNF("input must be in negation normal form")
        if isinstance(g, S.Exists):
            out = walk(g.body)
            for y in reversed(g.vars):
                v = fresh.fresh("v")
                guarded = Implies(eq_hat(Var(y), Var(v)), S.substitute(out, {y: Var(v)}))
                out = Exists((y,), Forall((v,), guarded))
        else:
            kids = S.children(g)
            new = [walk(k) for k in kids]
            out = g if all(a is b for a, b in zip(new, kids)) else S.rebuild(g, new)
        memo[id(g)] = out
        return out

    ax_fin = Forall(("x", "y"), Implies(eq_hat(Var("x"), Var("y")), Eq(Var("x"), Var("y"))))
    return And((ax_fin, walk(S.rename_apart(f, reserved={"x", "y"}))))


# ---------------------------------------------------------------------------
# index hierarchy


@dataclass(frozen=True)
class HierarchyParams:
    kappa: int
    mu: int

    def __post_init__(self):
        if self.kappa < 1 or self.mu < 2:
            raise BadParams("hierarchy needs kappa >= 1 and mu >= 2")

    def torus_size(self) -> analysis.TetrationExpr:
        return analysis.add(analysis.twoup(self.kappa, self.mu - 1), analysis.nat(1))


def _lvl(l: int) -> S.Term:
    return Const(f"lvl{l}")


_BIT = (Const("bit0"), Const("bit1"))


def _L(l, j):
    return Pred("L", (_lvl(l), j))


def _min_idx(l, j):
    return Pred("MinIdx", (_lvl(l), j))


def _max_idx(l, j):
    return Pred("MaxIdx", (_lvl(l), j))


def _succ(l, j, jp):
    return Pred("Succ", (_lvl(l), j, jp))


def _J(l, j, i, b):
    return Pred("J", (_lvl(l), j, i, _BIT[b]))


def _Jstar(l, j, i, b):
    return Pred("Jstar", (_lvl(l), j, i, _BIT[b]))


def _rule(binders, premises, conclusion) -> S.Formula:
    """forall binders. p1 & ... & pn -> conclusion: the shape of every
    axiom below that has a premise; with no binders, the implication."""
    return S.forall(binders, Implies(conj(premises), conclusion))


def _index_equality(
    l: int, j: S.Term, tj: S.Term, mu: int, fresh: S.FreshNames
) -> S.Formula:
    """Bitwise agreement of two level-l indices, inlined recursively:
    positions are matched through level-(l-1) index equality."""
    if l == 1:
        cs = [Const(f"c{k}") for k in range(1, mu + 1)]
        bits = [Iff(_J(1, j, c, b), _J(1, tj, c, b)) for c in cs for b in (0, 1)]
        return conj([_L(1, j), _L(1, tj)] + bits)
    i, ti = Var(fresh.fresh("i")), Var(fresh.fresh("ti"))
    bits = [Iff(_J(l, j, i, b), _J(l, tj, ti, b)) for b in (0, 1)]
    inner = conj([_L(l - 1, ti), _index_equality(l - 1, i, ti, mu, fresh)] + bits)
    positions = _rule((i.name,), [_L(l - 1, i)], Exists((ti.name,), inner))
    return conj([_L(l, j), _L(l, tj), positions])


def generate_index_hierarchy(p: HierarchyParams) -> S.Formula:
    """The level axioms: chains of successor-linked indices per level,
    binary increment across levels, and the non-Horn totality/uniqueness
    sentences that pin the intended model sizes 2^^l(mu-1)+1."""
    K = p.kappa
    fresh = S.FreshNames()
    j, jp, jpp = Var("j"), Var("j2"), Var("j3")
    i, ip = Var("i"), Var("i2")
    parts: list[S.Formula] = []

    # each index belongs to at most one level
    for l in range(K + 1):
        for lp in range(K + 1):
            if lp != l:
                parts.append(_rule(("j",), [_L(l, j)], Not(_L(lp, j))))
    # One schema for the minimal and the maximal indices: membership, no
    # predecessor (successor), the pinned constant and uniqueness through
    # it.  A row names the predicate, its level-0 constant, the prefix of
    # its constants on higher levels, and the Succ edge it has none of.
    ends = (("MinIdx", "c1", "d", (jp, j)), ("MaxIdx", f"c{p.mu}", "e", (j, jp)))
    for name, first, prefix, edge in ends:
        for l in range(K + 1):
            end = Pred(name, (_lvl(l), j))
            pinned = Const(first if l == 0 else f"{prefix}{l}")
            parts += [
                _rule(("j",), [end], _L(l, j)),
                _rule(("j", "j2"), [end], Not(_succ(l, *edge))),
                Pred(name, (_lvl(l), pinned)),
                _rule(("j",), [end], Eq(j, pinned)),
            ]
    # successor typing, irreflexivity, functionality both ways
    for l in range(K + 1):
        parts.append(_rule(("j", "j2"), [_succ(l, j, jp)], And((_L(l, j), _L(l, jp)))))
        functional = [
            _rule((), [_succ(l, j, jp), _succ(l, j, jpp)], Eq(jp, jpp)),
            _rule((), [_succ(l, jp, j), _succ(l, jpp, j)], Eq(jp, jpp)),
        ]
        parts.append(Forall(("j", "j2", "j3"), conj([Not(_succ(l, j, j))] + functional)))
    # level 0 is the chain c1 ... cMU
    for k in range(1, p.mu):
        parts.append(_succ(0, Const(f"c{k}"), Const(f"c{k + 1}")))
    # binary increment, as one truth table: bit b of j becomes bit b ^ s of
    # its successor, where s = 1 marks a run of ones below the position
    for l in range(1, K + 1):
        table = [
            _rule((), [_Jstar(l, j, i, s), _J(l, j, i, b)], _J(l, jp, i, b ^ s))
            for s in (1, 0)
            for b in (1, 0)
        ]
        parts.append(_rule(("j", "j2", "i"), [_succ(l, j, jp), _L(l - 1, i)], conj(table)))
    for l in range(1, K + 1):
        # minimal index is all zeros
        parts.append(_rule(("j", "i"), [_min_idx(l, j), _L(l - 1, i)], _J(l, j, i, 0)))
        # maximal: most significant bit 1, and that bit implies maximality
        parts.append(_rule(("j", "i"), [_max_idx(l, j), _max_idx(l - 1, i)], _J(l, j, i, 1)))
        top_bit = [_L(l, j), _max_idx(l - 1, i), _J(l, j, i, 1)]
        parts.append(_rule(("j", "i"), top_bit, _max_idx(l, j)))
        # bits and run-of-ones markers are functional
        one_bit = [Implies(bit(l, j, i, 0), Not(bit(l, j, i, 1))) for bit in (_J, _Jstar)]
        parts.append(_rule(("j", "i"), [_L(l, j), _L(l - 1, i)], conj(one_bit)))
        # the least significant position trivially has an all-ones run below
        parts.append(_rule(("j", "i"), [_L(l, j), _min_idx(l - 1, i)], _Jstar(l, j, i, 1)))
        # run-of-ones recursion along the position chain
        run = [
            Iff(_Jstar(l, j, ip, 1), And((_Jstar(l, j, i, 1), _J(l, j, i, 1)))),
            Implies(_J(l, j, i, 0), _Jstar(l, j, ip, 0)),
            Implies(_Jstar(l, j, i, 0), _Jstar(l, j, ip, 0)),
        ]
        parts.append(_rule(("j", "i", "i2"), [_L(l, j), _succ(l - 1, i, ip)], conj(run)))
    # every non-maximal index has a successor (through index equality)
    for l in range(1, K + 1):
        tj, tjp = Var(fresh.fresh("tj")), Var(fresh.fresh("tj2"))
        same = _index_equality(l, j, tj, p.mu, fresh)
        successor = Exists((tj.name, tjp.name), And((same, _succ(l, tj, tjp))))
        low_bit = [_L(l, j), _max_idx(l - 1, i), _J(l, j, i, 0)]
        parts.append(_rule(("j", "i"), low_bit, successor))
    # spurious-element removal (not Horn): level 0 is exactly c1..cMU,
    # bits are total, and bitwise-equal indices are identical
    level0 = disj([Eq(j, Const(f"c{k}")) for k in range(1, p.mu + 1)])
    parts.append(_rule(("j",), [_L(0, j)], level0))
    for l in range(1, K + 1):
        total = Or((_J(l, j, i, 0), _J(l, j, i, 1)))
        parts.append(_rule(("j", "i"), [_L(l, j), _L(l - 1, i)], total))
    for l in range(1, K + 1):
        tj, tjp, ti = (Var(fresh.fresh(base)) for base in ("tj", "tj2", "ti"))
        same_bits = _rule((ti.name,), [_L(l - 1, ti)], Iff(_J(l, tj, ti, 0), _J(l, tjp, ti, 0)))
        identical = [
            _index_equality(l, j, tj, p.mu, fresh),
            _index_equality(l, jp, tjp, p.mu, fresh),
            Implies(same_bits, Eq(j, jp)),
        ]
        witnesses = Exists((tj.name, tjp.name), conj(identical))
        parts.append(_rule(("j", "j2"), [_L(l, j), _L(l, jp)], witnesses))
    return S.rename_apart(conj(parts))


def _admissible_strings(width: int) -> list[str]:
    """Level strings of the given width: most significant (last) bit 0,
    plus 0...01; ordered by numeric value, least significant first."""
    out = []
    for value in range(1 << (width - 1)):
        out.append("".join("1" if (value >> k) & 1 else "0" for k in range(width)))
    out.append("0" * (width - 1) + "1")
    return out


def canonical_hierarchy_model(p: HierarchyParams) -> Structure:
    """The intended model: level l >= 1 holds exactly the admissible bit
    strings over the previous level's chain."""
    top = p.torus_size().evaluate()
    if top is None or top > ELEMENT_CAP:
        raise CapExceeded(
            f"level {p.kappa} needs {top or 'astronomically many'} elements, "
            f"cap is {ELEMENT_CAP}",
            limit=ELEMENT_CAP,
        )
    K = p.kappa
    chains: list[list[str]] = [[f"c{k}" for k in range(1, p.mu + 1)]]
    for l in range(1, K + 1):
        chains.append([f"i{l}_{s}" for s in _admissible_strings(len(chains[l - 1]))])

    universe = (
        [f"lvl{l}" for l in range(K + 1)]
        + ["bit0", "bit1"]
        + [e for chain in chains for e in chain]
    )
    constants = {f"lvl{l}": f"lvl{l}" for l in range(K + 1)}
    constants.update({"bit0": "bit0", "bit1": "bit1"})
    constants.update({f"c{k}": f"c{k}" for k in range(1, p.mu + 1)})
    for l in range(1, K + 1):
        constants[f"d{l}"] = chains[l][0]
        constants[f"e{l}"] = chains[l][-1]

    L = set()
    min_idx = set()
    max_idx = set()
    succ = set()
    j_table = set()
    jstar_table = set()
    for l in range(K + 1):
        chain = chains[l]
        for e in chain:
            L.add((f"lvl{l}", e))
        min_idx.add((f"lvl{l}", chain[0]))
        max_idx.add((f"lvl{l}", chain[-1]))
        for a, b in zip(chain, chain[1:]):
            succ.add((f"lvl{l}", a, b))
        if l == 0:
            continue
        below = chains[l - 1]
        for e in chain:
            bits = e.split("_", 1)[1]
            for pos, carrier in enumerate(below):
                b = bits[pos]
                j_table.add((f"lvl{l}", e, carrier, f"bit{b}"))
                run = "1" if all(c == "1" for c in bits[:pos]) else "0"
                jstar_table.add((f"lvl{l}", e, carrier, f"bit{run}"))
    return Structure(
        tuple(universe),
        constants,
        {
            "L": frozenset(L),
            "MinIdx": frozenset(min_idx),
            "MaxIdx": frozenset(max_idx),
            "Succ": frozenset(succ),
            "J": frozenset(j_table),
            "Jstar": frozenset(jstar_table),
        },
    )


def hierarchy_level_sets(structure: Structure, kappa: int) -> list[list[str]]:
    """Extract each level's members in successor-chain order; raises if a
    level is not a single complete chain."""
    out = []
    for l in range(kappa + 1):
        members = {
            t[1] for t in structure.predicates["L"] if t[0] == f"lvl{l}"
        }
        succs = {
            (t[1], t[2])
            for t in structure.predicates["Succ"]
            if t[0] == f"lvl{l}" and t[1] in members and t[2] in members
        }
        preds = {b for _, b in succs}
        starts = [m for m in members if m not in preds]
        if len(starts) != 1:
            raise InvalidTiling(f"level {l} is not a chain")
        chain = [starts[0]]
        nexts = dict(succs)
        if len(nexts) != len(succs):
            raise InvalidTiling(f"level {l} successor not functional")
        while chain[-1] in nexts:
            chain.append(nexts[chain[-1]])
        if len(chain) != len(members):
            raise InvalidTiling(f"level {l} chain does not cover the level")
        out.append(chain)
    return out


# ---------------------------------------------------------------------------
# domino systems


@dataclass(frozen=True)
class DominoSystem:
    tiles: tuple[str, ...]
    horizontal: frozenset
    vertical: frozenset

    def __post_init__(self):
        for a, b in list(self.horizontal) + list(self.vertical):
            if a not in self.tiles or b not in self.tiles:
                raise BadParams(f"adjacency over unknown tiles: {(a, b)}")

    @staticmethod
    def from_json(text: str) -> tuple["DominoSystem", tuple[str, ...]]:
        try:
            data = json.loads(text)
            system = DominoSystem(
                tuple(json_list(data["tiles"])),
                frozenset(tuple(json_list(e)) for e in json_list(data["H"])),
                frozenset(tuple(json_list(e)) for e in json_list(data["V"])),
            )
            return system, tuple(json_list(data.get("word", [])))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise BadParams(f"malformed domino system JSON ({exc!r})") from None


@dataclass(frozen=True)
class Tiling:
    t: int
    cells: dict  # (x, y) -> tile

    def tile(self, x: int, y: int) -> str:
        return self.cells[(x % self.t, y % self.t)]


def valid_tiling(system: DominoSystem, word, tl: Tiling) -> bool:
    t = tl.t
    if set(tl.cells) != {(x, y) for x in range(t) for y in range(t)}:
        return False
    for (x, y), tile in tl.cells.items():
        if tile not in system.tiles:
            return False
        if (tile, tl.tile(x + 1, y)) not in system.horizontal:
            return False
        if (tile, tl.tile(x, y + 1)) not in system.vertical:
            return False
    return all(tl.cells[(i, 0)] == w for i, w in enumerate(word))


def brute_force_tiler(system: DominoSystem, word, t: int) -> Optional[Tiling]:
    """Row-major backtracking search for a torus tiling respecting the
    initial word; an independent oracle for the encodings below."""
    if t < 1:
        raise BadParams("torus size must be >= 1")
    if len(word) > t:
        raise WordTooLong(f"word of length {len(word)} exceeds torus size {t}")
    cells: dict = {}

    def candidates(x, y):
        if y == 0 and x < len(word):
            return [word[x]]
        return list(system.tiles)

    def consistent(x, y, tile):
        probe = dict(cells)
        probe[(x, y)] = tile
        checks = []
        if x > 0:
            checks.append((probe.get((x - 1, y)), tile, system.horizontal))
        if y > 0:
            checks.append((probe.get((x, y - 1)), tile, system.vertical))
        if x == t - 1:
            checks.append((tile, probe.get((0, y)), system.horizontal))
        if y == t - 1:
            checks.append((tile, probe.get((x, 0)), system.vertical))
        for a, b, rel in checks:
            if a is not None and b is not None and (a, b) not in rel:
                return False
        return True

    def place(pos):
        if pos == t * t:
            return True
        x, y = pos % t, pos // t
        for tile in candidates(x, y):
            if consistent(x, y, tile):
                cells[(x, y)] = tile
                if place(pos + 1):
                    return True
                del cells[(x, y)]
        return False

    if not place(0):
        return None
    tl = Tiling(t, dict(cells))
    if not valid_tiling(system, word, tl):
        raise RuntimeError("internal error: search produced an invalid tiling")
    return tl


def _tile_pred(tile: str) -> str:
    return f"D{tile}"


def generate_domino_encoding(
    system: DominoSystem, word, p: HierarchyParams
) -> S.Formula:
    """Torus axioms over the top hierarchy level plus the adjacency and
    initial-condition constraints of the domino system.

    Both axes come from one schema: typing, successor, neighbor
    existence, wrap-around and the two wrap-consistency axioms, then the
    adjacency rule, each stated once and instantiated for H and for V.
    `brute_force_tiler` and `canonical_domino_model` are kept apart from
    it, as oracles."""
    if not system.tiles or not system.horizontal or not system.vertical:
        raise EmptyDominoComponent("tiles and both adjacency relations must be nonempty")
    t_exact = p.torus_size().evaluate()
    if t_exact is not None and len(word) > t_exact:
        raise WordTooLong(f"word of length {len(word)} exceeds torus size {t_exact}")
    K = p.kappa
    fresh = S.FreshNames()
    x, y, xp, yp, i = Var("x"), Var("y"), Var("x2"), Var("y2"), Var("i")

    def tile_at(tile, a, b):
        return Pred(_tile_pred(tile), (a, b))

    # One torus schema, instantiated per axis.  A row names the relation,
    # the coordinate that steps and its primed copy, the fixed coordinate
    # and its primed copy, the adjacency pairs, and to(a, b, s): where a
    # step from (a, b) that lands on s arrives; step(row, ...) is the
    # neighbor atom R(a, b, *to(a, b, s)).
    axes = (
        ("H", x, xp, y, yp, system.horizontal, lambda a, b, s: (s, b)),
        ("V", y, yp, x, xp, system.vertical, lambda a, b, s: (a, s)),
    )

    def step(row, a, b, s):
        return Pred(row[0], (a, b) + row[-1](a, b, s))

    corners = ("x", "y", "x2", "y2")
    parts: list[S.Formula] = [generate_index_hierarchy(p)]
    for row in axes:
        rel, s, sp, fix, fixp, _, _ = row
        edge = Pred(rel, (x, y, xp, yp))
        # neighbor typing and successor compatibility
        typed = conj([_L(K, x), _L(K, y), _L(K, xp), _L(K, yp), Eq(fix, fixp)])
        parts.append(_rule(corners, [edge], typed))
        stepped = [edge, _max_idx(K - 1, i), _J(K, s, i, 0)]
        parts.append(_rule(corners + ("i",), stepped, _succ(K, s, sp)))
        # every non-edge point has a neighbor with the same tiles
        tx, ty = Var(fresh.fresh("tx")), Var(fresh.fresh("ty"))
        tsp = Var(fresh.fresh(f"t{s.name}2"))
        same = [_index_equality(K, x, tx, p.mu, fresh), _index_equality(K, y, ty, p.mu, fresh)]
        same += [Iff(tile_at(d, x, y), tile_at(d, tx, ty)) for d in system.tiles]
        inside = [_L(K, x), _L(K, y), _max_idx(K - 1, i), _J(K, s, i, 0)]
        neighbor = Exists((tx.name, ty.name, tsp.name), conj(same + [step(row, tx, ty, tsp)]))
        parts.append(_rule(("x", "y", "i"), inside, neighbor))
        # wrap-around; membership guards keep the typing axiom
        # satisfiable on mixed domains
        wraps = [_L(K, fix), _max_idx(K, s), _min_idx(K, sp)]
        parts.append(_rule(("x", "y", sp.name), wraps, step(row, x, y, sp)))
        # wrap consistency, both ways
        for a, b in ((_max_idx(K, s), _min_idx(K, sp)), (_min_idx(K, sp), _max_idx(K, s))):
            parts.append(_rule(corners, [edge, a], b))
    # tiles live on the torus, one per point
    for d in system.tiles:
        parts.append(_rule(("x", "y"), [tile_at(d, x, y)], And((_L(K, x), _L(K, y)))))
    for d in system.tiles:
        for dp in system.tiles:
            if dp != d:
                parts.append(_rule(("x", "y"), [tile_at(d, x, y)], Not(tile_at(dp, x, y))))
    # adjacency rules
    for row in axes:
        _, _, sp, _, _, pairs, to = row
        fits = [And((tile_at(d, x, y), tile_at(dp, *to(x, y, sp)))) for d, dp in sorted(pairs)]
        binders = tuple(sorted(("x", "y", sp.name)))
        parts.append(_rule(binders, [step(row, x, y, sp)], disj(fits)))
    # initial condition along the bottom row
    if word:
        z = Var("z")
        chain_links = [Eq(Const("f1"), z)]
        for k in range(1, len(word)):
            chain_links.append(step(axes[0], Const(f"f{k}"), z, Const(f"f{k + 1}")))
        parts.append(_rule(("z",), [_min_idx(K, z)], conj(chain_links)))
        tiles = [tile_at(w, Const(f"f{k + 1}"), z) for k, w in enumerate(word)]
        parts.append(_rule(("z",), [_min_idx(K, z)], conj(tiles)))
    return S.rename_apart(conj(parts))


def canonical_domino_model(
    system: DominoSystem,
    word,
    p: HierarchyParams,
    tl: Tiling,
) -> Structure:
    """Extend the canonical hierarchy model with the torus neighbor
    relations along the top-level chain, the given tiling, and the
    initial-condition constants."""
    t_exact = p.torus_size().evaluate()
    if t_exact is None or tl.t != t_exact:
        raise SizeMismatch(f"tiling is {tl.t}x{tl.t}, torus needs {t_exact}")
    if not valid_tiling(system, word, tl):
        raise InvalidTiling("tiling violates the domino system or the word")
    base = canonical_hierarchy_model(p)
    chain = hierarchy_level_sets(base, p.kappa)[p.kappa]
    r = len(chain)
    lvl_k = f"lvl{p.kappa}"
    h_table = set()
    v_table = set()
    for s in range(r):
        for t_ in range(r):
            h_table.add((chain[s], chain[t_], chain[(s + 1) % r], chain[t_]))
            v_table.add((chain[s], chain[t_], chain[s], chain[(t_ + 1) % r]))
    tile_tables = {_tile_pred(d): set() for d in system.tiles}
    for (xx, yy), d in tl.cells.items():
        tile_tables[_tile_pred(d)].add((chain[xx], chain[yy]))
    constants = dict(base.constants)
    for k in range(len(word)):
        constants[f"f{k + 1}"] = chain[k]
    predicates = dict(base.predicates)
    predicates["H"] = frozenset(h_table)
    predicates["V"] = frozenset(v_table)
    for name, table in tile_tables.items():
        predicates[name] = frozenset(table)
    return Structure(base.universe, constants, predicates)


# ---------------------------------------------------------------------------
# the hard family


def generate_hard_family(n: int) -> S.Formula:
    """forall x_n exists y_n ... forall x_1 exists y_1 of the conjunction
    of P_i(x_1..x_n) <-> Q_i(y_1..y_n) for i = 1..4n; its degree is n and
    its CNF is both Horn and Krom."""
    if n < 1:
        raise BadParams("family parameter must be >= 1")
    xs = [Var(f"x{k}") for k in range(1, n + 1)]
    ys = [Var(f"y{k}") for k in range(1, n + 1)]
    matrix = conj(
        [
            Iff(Pred(f"P{i}", tuple(xs)), Pred(f"Q{i}", tuple(ys)))
            for i in range(1, 4 * n + 1)
        ]
    )
    f = matrix
    for k in range(1, n + 1):
        f = Exists((f"y{k}",), f)
        f = Forall((f"x{k}",), f)
    return f


def hard_family_model(n: int) -> Structure:
    """The witness structure for the n = 1 family member: one a/b element
    pair per 2-element subset of {1..4}, with P_i on the a-side chains and
    Q_i on the b-side.  Larger n would need binomially many elements."""
    if n != 1:
        raise InfeasibleN(
            "level-2 index sets have size C(|S1|, |S1|/2), which is "
            "astronomically large for n >= 2"
        )
    subsets = list(itertools.combinations(range(1, 5), 2))
    a = {s: f"a{s[0]}{s[1]}" for s in subsets}
    b = {s: f"b{s[0]}{s[1]}" for s in subsets}
    universe = tuple(sorted(a.values()) + sorted(b.values()))
    predicates = {}
    for i in range(1, 5):
        predicates[f"P{i}"] = frozenset((a[s],) for s in subsets if i in s)
        predicates[f"Q{i}"] = frozenset((b[s],) for s in subsets if i in s)
    return Structure(universe, {}, predicates)


# ---------------------------------------------------------------------------
# equality elimination for separated sentences


def sf_equality_elim(sf: S.StandardForm) -> S.Formula:
    """Replace equations with a fresh binary predicate and conjoin
    universally quantified reflexivity, symmetry, transitivity, and
    per-argument congruence axioms for every predicate of the sentence.
    The result is equisatisfiable, and separated whenever the input is."""
    sig = S.infer_signature(sf.matrix)
    matrix, ename = S.equality_as_predicate(sf.matrix, sig.predicates)
    replaced = S.StandardForm(sf.leading, sf.blocks, matrix).to_formula()

    def E(u, w):
        return Pred(ename, (u, w))

    w0, w1, w2, w3 = (Var(f"w{k}") for k in range(4))
    axioms = [
        Forall(("w1",), E(w1, w1)),
        _rule(("w1", "w2"), [E(w1, w2)], E(w2, w1)),
        _rule(("w1", "w2", "w3"), [E(w1, w2), E(w2, w3)], E(w1, w3)),
    ]
    for pname in sorted(sig.predicates):
        args = [Var(f"w{k + 1}") for k in range(sig.predicates[pname])]
        for pos in range(len(args)):
            swapped = args[:pos] + [w0] + args[pos + 1 :]
            premises = [E(args[pos], w0), Pred(pname, tuple(args))]
            axioms.append(
                _rule(["w0"] + [a.name for a in args], premises, Pred(pname, tuple(swapped)))
            )
    # the sentence's binders are distinct already: only the axioms move
    binders, free, consts = S.names_in(replaced)
    return conj([replaced, S.rename_apart(conj(axioms), set(binders) | free | consts)])

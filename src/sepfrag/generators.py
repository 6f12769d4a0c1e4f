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
"""

from __future__ import annotations

import itertools
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
from .semantics import Structure
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
    separatedness is lost in that case.
    """
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

    def walk(g):
        if isinstance(g, S.CountingExists):
            raise NotNNF("input must be in negation normal form")
        if isinstance(g, S.Exists):
            if len(g.vars) > 1:
                inner = walk(Exists(g.vars[1:], g.body))
            else:
                inner = walk(g.body)
            y = g.vars[0]
            v = fresh.fresh("v")
            guarded = Implies(eq_hat(Var(y), Var(v)), S.substitute(inner, {y: Var(v)}))
            return Exists((y,), Forall((v,), guarded))
        return S.rebuild(g, [walk(k) for k in S.children(g)])

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


def _min_const(l) -> S.Term:
    # the level-0 chain starts at c1; higher levels have their own d/e
    return Const("c1") if l == 0 else Const(f"d{l}")


def _max_const(p: HierarchyParams, l) -> S.Term:
    return Const(f"c{p.mu}") if l == 0 else Const(f"e{l}")


def _index_equality(
    l: int, j: S.Term, tj: S.Term, mu: int, fresh: S.FreshNames
) -> S.Formula:
    """Bitwise agreement of two level-l indices, inlined recursively:
    positions are matched through level-(l-1) index equality."""
    if l == 1:
        parts = [_L(1, j), _L(1, tj)]
        for i in range(1, mu + 1):
            ci = Const(f"c{i}")
            parts.append(Iff(_J(1, j, ci, 0), _J(1, tj, ci, 0)))
            parts.append(Iff(_J(1, j, ci, 1), _J(1, tj, ci, 1)))
        return conj(parts)
    i = Var(fresh.fresh("i"))
    ti = Var(fresh.fresh("ti"))
    inner = conj(
        [
            _L(l - 1, ti),
            _index_equality(l - 1, i, ti, mu, fresh),
            Iff(_J(l, j, i, 0), _J(l, tj, ti, 0)),
            Iff(_J(l, j, i, 1), _J(l, tj, ti, 1)),
        ]
    )
    return conj(
        [
            _L(l, j),
            _L(l, tj),
            Forall((i.name,), Implies(_L(l - 1, i), Exists((ti.name,), inner))),
        ]
    )


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
                parts.append(Forall(("j",), Implies(_L(l, j), Not(_L(lp, j)))))
    # minimal indices: membership, no predecessor, uniqueness via d-constants
    for l in range(K + 1):
        parts.append(Forall(("j",), Implies(_min_idx(l, j), _L(l, j))))
        parts.append(
            Forall(("j", "j2"), Implies(_min_idx(l, j), Not(_succ(l, jp, j))))
        )
        parts.append(_min_idx(l, _min_const(l)))
        parts.append(Forall(("j",), Implies(_min_idx(l, j), Eq(j, _min_const(l)))))
    # maximal indices, dually
    for l in range(K + 1):
        parts.append(Forall(("j",), Implies(_max_idx(l, j), _L(l, j))))
        parts.append(
            Forall(("j", "j2"), Implies(_max_idx(l, j), Not(_succ(l, j, jp))))
        )
        parts.append(_max_idx(l, _max_const(p, l)))
        parts.append(Forall(("j",), Implies(_max_idx(l, j), Eq(j, _max_const(p, l)))))
    # successor typing, irreflexivity, functionality both ways
    for l in range(K + 1):
        parts.append(
            Forall(("j", "j2"), Implies(_succ(l, j, jp), And((_L(l, j), _L(l, jp)))))
        )
        parts.append(
            Forall(
                ("j", "j2", "j3"),
                conj(
                    [
                        Not(_succ(l, j, j)),
                        Implies(And((_succ(l, j, jp), _succ(l, j, jpp))), Eq(jp, jpp)),
                        Implies(And((_succ(l, jp, j), _succ(l, jpp, j))), Eq(jp, jpp)),
                    ]
                ),
            )
        )
    # level 0 is the chain c1 ... cMU
    for k in range(1, p.mu):
        parts.append(_succ(0, Const(f"c{k}"), Const(f"c{k + 1}")))
    # binary increment: successor flips exactly the low run of ones
    for l in range(1, K + 1):
        parts.append(
            Forall(
                ("j", "j2", "i"),
                Implies(
                    And((_succ(l, j, jp), _L(l - 1, i))),
                    conj(
                        [
                            Implies(And((_Jstar(l, j, i, 1), _J(l, j, i, 1))), _J(l, jp, i, 0)),
                            Implies(And((_Jstar(l, j, i, 1), _J(l, j, i, 0))), _J(l, jp, i, 1)),
                            Implies(And((_Jstar(l, j, i, 0), _J(l, j, i, 1))), _J(l, jp, i, 1)),
                            Implies(And((_Jstar(l, j, i, 0), _J(l, j, i, 0))), _J(l, jp, i, 0)),
                        ]
                    ),
                ),
            )
        )
    for l in range(1, K + 1):
        # minimal index is all zeros
        parts.append(
            Forall(
                ("j", "i"),
                Implies(And((_min_idx(l, j), _L(l - 1, i))), _J(l, j, i, 0)),
            )
        )
        # maximal: most significant bit 1, and that bit implies maximality
        parts.append(
            Forall(
                ("j", "i"),
                Implies(And((_max_idx(l, j), _max_idx(l - 1, i))), _J(l, j, i, 1)),
            )
        )
        parts.append(
            Forall(
                ("j", "i"),
                Implies(
                    conj([_L(l, j), _max_idx(l - 1, i), _J(l, j, i, 1)]),
                    _max_idx(l, j),
                ),
            )
        )
        # bits and run-of-ones markers are functional
        parts.append(
            Forall(
                ("j", "i"),
                Implies(
                    And((_L(l, j), _L(l - 1, i))),
                    And(
                        (
                            Implies(_J(l, j, i, 0), Not(_J(l, j, i, 1))),
                            Implies(_Jstar(l, j, i, 0), Not(_Jstar(l, j, i, 1))),
                        )
                    ),
                ),
            )
        )
        # the least significant position trivially has an all-ones run below
        parts.append(
            Forall(
                ("j", "i"),
                Implies(And((_L(l, j), _min_idx(l - 1, i))), _Jstar(l, j, i, 1)),
            )
        )
        # run-of-ones recursion along the position chain
        parts.append(
            Forall(
                ("j", "i", "i2"),
                Implies(
                    And((_L(l, j), _succ(l - 1, i, ip))),
                    conj(
                        [
                            Iff(_Jstar(l, j, ip, 1), And((_Jstar(l, j, i, 1), _J(l, j, i, 1)))),
                            Implies(_J(l, j, i, 0), _Jstar(l, j, ip, 0)),
                            Implies(_Jstar(l, j, i, 0), _Jstar(l, j, ip, 0)),
                        ]
                    ),
                ),
            )
        )
    # every non-maximal index has a successor (through index equality)
    for l in range(1, K + 1):
        tj = fresh.fresh("tj")
        tjp = fresh.fresh("tj2")
        parts.append(
            Forall(
                ("j", "i"),
                Implies(
                    conj([_L(l, j), _max_idx(l - 1, i), _J(l, j, i, 0)]),
                    Exists(
                        (tj, tjp),
                        And(
                            (
                                _index_equality(l, j, Var(tj), p.mu, fresh),
                                _succ(l, Var(tj), Var(tjp)),
                            )
                        ),
                    ),
                ),
            )
        )
    # spurious-element removal (not Horn): level 0 is exactly c1..cMU,
    # bits are total, and bitwise-equal indices are identical
    parts.append(
        Forall(
            ("j",),
            Implies(_L(0, j), disj([Eq(j, Const(f"c{k}")) for k in range(1, p.mu + 1)])),
        )
    )
    for l in range(1, K + 1):
        parts.append(
            Forall(
                ("j", "i"),
                Implies(
                    And((_L(l, j), _L(l - 1, i))),
                    Or((_J(l, j, i, 0), _J(l, j, i, 1))),
                ),
            )
        )
    for l in range(1, K + 1):
        tj = fresh.fresh("tj")
        tjp = fresh.fresh("tj2")
        ti = fresh.fresh("ti")
        same_bits = Forall(
            (ti,),
            Implies(
                _L(l - 1, Var(ti)),
                Iff(_J(l, Var(tj), Var(ti), 0), _J(l, Var(tjp), Var(ti), 0)),
            ),
        )
        parts.append(
            Forall(
                ("j", "j2"),
                Implies(
                    And((_L(l, j), _L(l, jp))),
                    Exists(
                        (tj, tjp),
                        conj(
                            [
                                _index_equality(l, j, Var(tj), p.mu, fresh),
                                _index_equality(l, jp, Var(tjp), p.mu, fresh),
                                Implies(same_bits, Eq(j, jp)),
                            ]
                        ),
                    ),
                ),
            )
        )
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
    def from_json(data) -> tuple["DominoSystem", tuple[str, ...]]:
        system = DominoSystem(
            tuple(data["tiles"]),
            frozenset(tuple(e) for e in data["H"]),
            frozenset(tuple(e) for e in data["V"]),
        )
        return system, tuple(data.get("word", ()))


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
    initial-condition constraints of the domino system."""
    if not system.tiles or not system.horizontal or not system.vertical:
        raise EmptyDominoComponent("tiles and both adjacency relations must be nonempty")
    t_exact = p.torus_size().evaluate()
    if t_exact is not None and len(word) > t_exact:
        raise WordTooLong(f"word of length {len(word)} exceeds torus size {t_exact}")
    K = p.kappa
    fresh = S.FreshNames()
    x, y, xp, yp, i = Var("x"), Var("y"), Var("x2"), Var("y2"), Var("i")

    def H(a, b, c, d):
        return Pred("H", (a, b, c, d))

    def V(a, b, c, d):
        return Pred("V", (a, b, c, d))

    def tile_at(tile, a, b):
        return Pred(_tile_pred(tile), (a, b))

    parts: list[S.Formula] = [generate_index_hierarchy(p)]
    # horizontal neighbor typing and successor compatibility
    parts.append(
        Forall(
            ("x", "y", "x2", "y2"),
            Implies(
                H(x, y, xp, yp),
                conj([_L(K, x), _L(K, y), _L(K, xp), _L(K, yp), Eq(y, yp)]),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "x2", "y2", "i"),
            Implies(
                conj([H(x, y, xp, yp), _max_idx(K - 1, i), _J(K, x, i, 0)]),
                _succ(K, x, xp),
            ),
        )
    )
    # every non-edge point has a horizontal neighbor with the same tiles
    tx, ty, txp = fresh.fresh("tx"), fresh.fresh("ty"), fresh.fresh("tx2")
    parts.append(
        Forall(
            ("x", "y", "i"),
            Implies(
                conj([_L(K, x), _L(K, y), _max_idx(K - 1, i), _J(K, x, i, 0)]),
                Exists(
                    (tx, ty, txp),
                    conj(
                        [
                            _index_equality(K, x, Var(tx), p.mu, fresh),
                            _index_equality(K, y, Var(ty), p.mu, fresh),
                        ]
                        + [
                            Iff(tile_at(d, x, y), tile_at(d, Var(tx), Var(ty)))
                            for d in system.tiles
                        ]
                        + [H(Var(tx), Var(ty), Var(txp), Var(ty))]
                    ),
                ),
            ),
        )
    )
    # horizontal wrap-around; membership guards keep the typing axiom
    # satisfiable on mixed domains
    parts.append(
        Forall(
            ("x", "y", "x2"),
            Implies(
                conj([_L(K, y), _max_idx(K, x), _min_idx(K, xp)]),
                H(x, y, xp, y),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "x2", "y2"),
            Implies(And((H(x, y, xp, yp), _max_idx(K, x))), _min_idx(K, xp)),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "x2", "y2"),
            Implies(And((H(x, y, xp, yp), _min_idx(K, xp))), _max_idx(K, x)),
        )
    )
    # vertical versions
    parts.append(
        Forall(
            ("x", "y", "x2", "y2"),
            Implies(
                V(x, y, xp, yp),
                conj([_L(K, x), _L(K, y), _L(K, xp), _L(K, yp), Eq(x, xp)]),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "x2", "y2", "i"),
            Implies(
                conj([V(x, y, xp, yp), _max_idx(K - 1, i), _J(K, y, i, 0)]),
                _succ(K, y, yp),
            ),
        )
    )
    tx2, ty2, typ = fresh.fresh("tx"), fresh.fresh("ty"), fresh.fresh("ty2")
    parts.append(
        Forall(
            ("x", "y", "i"),
            Implies(
                conj([_L(K, x), _L(K, y), _max_idx(K - 1, i), _J(K, y, i, 0)]),
                Exists(
                    (tx2, ty2, typ),
                    conj(
                        [
                            _index_equality(K, x, Var(tx2), p.mu, fresh),
                            _index_equality(K, y, Var(ty2), p.mu, fresh),
                        ]
                        + [
                            Iff(tile_at(d, x, y), tile_at(d, Var(tx2), Var(ty2)))
                            for d in system.tiles
                        ]
                        + [V(Var(tx2), Var(ty2), Var(tx2), Var(typ))]
                    ),
                ),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "y2"),
            Implies(
                conj([_L(K, x), _max_idx(K, y), _min_idx(K, yp)]),
                V(x, y, x, yp),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "x2", "y", "y2"),
            Implies(And((V(x, y, xp, yp), _max_idx(K, y))), _min_idx(K, yp)),
        )
    )
    parts.append(
        Forall(
            ("x", "x2", "y", "y2"),
            Implies(And((V(x, y, xp, yp), _min_idx(K, yp))), _max_idx(K, y)),
        )
    )
    # tiles live on the torus, one per point
    for d in system.tiles:
        parts.append(
            Forall(
                ("x", "y"),
                Implies(tile_at(d, x, y), And((_L(K, x), _L(K, y)))),
            )
        )
    for d in system.tiles:
        for dp in system.tiles:
            if dp == d:
                continue
            parts.append(
                Forall(("x", "y"), Implies(tile_at(d, x, y), Not(tile_at(dp, x, y))))
            )
    # adjacency rules
    parts.append(
        Forall(
            ("x", "x2", "y"),
            Implies(
                H(x, y, xp, y),
                disj(
                    [
                        And((tile_at(d, x, y), tile_at(dp, xp, y)))
                        for d, dp in sorted(system.horizontal)
                    ]
                ),
            ),
        )
    )
    parts.append(
        Forall(
            ("x", "y", "y2"),
            Implies(
                V(x, y, x, yp),
                disj(
                    [
                        And((tile_at(d, x, y), tile_at(dp, x, yp)))
                        for d, dp in sorted(system.vertical)
                    ]
                ),
            ),
        )
    )
    # initial condition along the bottom row
    if word:
        z = Var("z")
        chain_links = [Eq(Const("f1"), z)]
        for k in range(1, len(word)):
            chain_links.append(H(Const(f"f{k}"), z, Const(f"f{k + 1}"), z))
        parts.append(Forall(("z",), Implies(_min_idx(K, z), conj(chain_links))))
        parts.append(
            Forall(
                ("z",),
                Implies(
                    _min_idx(K, z),
                    conj(
                        [tile_at(word[k], Const(f"f{k + 1}"), z) for k in range(len(word))]
                    ),
                ),
            )
        )
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

    w1, w2, w3 = Var("w1"), Var("w2"), Var("w3")
    axioms = [
        Forall(("w1",), E(w1, w1)),
        Forall(("w1", "w2"), Implies(E(w1, w2), E(w2, w1))),
        Forall(("w1", "w2", "w3"), Implies(And((E(w1, w2), E(w2, w3))), E(w1, w3))),
    ]
    for pname in sorted(sig.predicates):
        arity = sig.predicates[pname]
        if arity == 0:
            continue
        args = [Var(f"w{k + 1}") for k in range(arity)]
        for pos in range(arity):
            swapped = list(args)
            swapped[pos] = Var("w0")
            axioms.append(
                Forall(
                    tuple(["w0"] + [f"w{k + 1}" for k in range(arity)]),
                    Implies(
                        And((E(args[pos], Var("w0")), Pred(pname, tuple(args)))),
                        Pred(pname, tuple(swapped)),
                    ),
                )
            )
    return S.rename_apart(conj([replaced] + axioms))

"""Fragment membership, the interaction degree, and small-model bounds.

A standard-form sentence is separated when no atom mixes universal
variables with non-leading existential ones.  The degree measures how
many distinct existential blocks are linked through chains of joint atom
occurrences; every size bound in this module is reported as an
overflow-safe tetration expression because the interesting values dwarf
machine integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .errors import NotSF, OverlappingSets

DEFAULT_EXACT_BITS = 1 << 20


# ---------------------------------------------------------------------------
# tetration expressions


@dataclass(frozen=True)
class TetrationExpr:
    """Symbolic natural-number expression over +, *, ^ and the iterated
    exponential tower(k, m) = 2^2^...^2^m with k twos.

    Values are computed exactly while they fit in `bit_cap` bits and stay
    symbolic beyond that, retaining a true lower bound.
    """

    kind: str  # "nat" | "add" | "mul" | "pow" | "tower"
    args: tuple = ()

    def evaluate(self, bit_cap: int = DEFAULT_EXACT_BITS) -> Optional[int]:
        if self.kind == "nat":
            return self.args[0]
        if self.kind in ("add", "mul", "pow"):
            a = self.args[0].evaluate(bit_cap)
            b = self.args[1].evaluate(bit_cap)
            if a is None or b is None:
                return None
            if self.kind == "add":
                return a + b if max(a, b).bit_length() + 1 <= bit_cap else None
            if self.kind == "mul":
                if a.bit_length() + b.bit_length() > bit_cap:
                    return None
                return a * b
            if b * max(1, a.bit_length()) > bit_cap:
                return None
            return a**b
        k, m = self.args
        v = m.evaluate(bit_cap)
        if v is None:
            return None
        for _ in range(k):
            if v > bit_cap:
                return None
            v = 1 << v
        return v

    def lower_bound(self, bit_cap: int = DEFAULT_EXACT_BITS) -> int:
        """Exact value when available, otherwise a saturated lower bound."""
        exact = self.evaluate(bit_cap)
        if exact is not None:
            return exact
        sat = 1 << bit_cap

        def go(e):
            if e.kind == "nat":
                return e.args[0]
            if e.kind == "add":
                return min(sat, go(e.args[0]) + go(e.args[1]))
            if e.kind == "mul":
                return min(sat, go(e.args[0]) * go(e.args[1]))
            if e.kind == "pow":
                a, b = go(e.args[0]), min(go(e.args[1]), bit_cap)
                return min(sat, a**b)
            k, m = e.args
            v = min(go(m), bit_cap)
            for _ in range(k):
                if v >= bit_cap:
                    return sat
                v = 1 << v
            return min(sat, v)

        return go(self)

    def tower_height(self) -> int:
        if self.kind == "nat":
            return 0
        if self.kind == "tower":
            return self.args[0] + self.args[1].tower_height()
        return max(a.tower_height() for a in self.args)

    def __str__(self) -> str:
        if self.kind == "nat":
            return str(self.args[0])
        if self.kind == "add":
            return f"{self.args[0]} + {self.args[1]}"
        if self.kind == "mul":
            return f"{self._wrap(self.args[0], ('add',))}*{self._wrap(self.args[1], ('add',))}"
        if self.kind == "pow":
            return f"{self._wrap(self.args[0], ('add', 'mul', 'pow'))}^{self._wrap(self.args[1], ('add', 'mul'))}"
        return f"2↑{self.args[0]}({self.args[1]})"

    @staticmethod
    def _wrap(e, kinds) -> str:
        s = str(e)
        return f"({s})" if e.kind in kinds else s

    def to_json(self):
        exact = self.evaluate()
        out = {"expr": str(self), "exact": None, "lower_bound": None}
        if exact is not None:
            out["exact"] = exact if exact.bit_length() <= 64 else str(exact)
        else:
            lo = self.lower_bound()
            out["lower_bound"] = (
                str(lo) if lo.bit_length() <= 200 else f">=2^{lo.bit_length() - 1}"
            )
            out["tower_height"] = self.tower_height()
        return out


def nat(n: int) -> TetrationExpr:
    return TetrationExpr("nat", (n,))


def add(a: TetrationExpr, b: TetrationExpr) -> TetrationExpr:
    return TetrationExpr("add", (a, b))


def mul(a: TetrationExpr, b: TetrationExpr) -> TetrationExpr:
    return TetrationExpr("mul", (a, b))


def power(a: TetrationExpr, b: TetrationExpr) -> TetrationExpr:
    return TetrationExpr("pow", (a, b))


def twoup(k: int, m) -> TetrationExpr:
    """Iterated exponential 2↑k(m): 2↑0(m) = m, 2↑(k+1)(m) = 2^(2↑k(m))."""
    if k < 0:
        raise ValueError("tower height must be >= 0")
    m_expr = m if isinstance(m, TetrationExpr) else nat(m)
    return TetrationExpr("tower", (k, m_expr))


# ---------------------------------------------------------------------------
# separatedness


def _once_per_form(fn):
    """Compute fn(sf) once per StandardForm.  The form is immutable, so
    the value is kept on the form itself and lives exactly as long as it;
    one decision asks the same form several times."""
    slot = "_" + fn.__name__

    @functools.wraps(fn)
    def cached(sf: S.StandardForm):
        memo = sf.__dict__
        if slot not in memo:
            memo[slot] = fn(sf)
        return memo[slot]

    return cached


def is_separated(xs, ys, f: S.Formula) -> bool:
    """True iff no atom of f contains variables from both sets."""
    xs, ys = frozenset(xs), frozenset(ys)
    if xs & ys:
        raise OverlappingSets(f"sets share {sorted(xs & ys)}")
    for a in S.atoms_iter(f):
        av = S.atom_vars(a)
        if av & xs and av & ys:
            return False
    return True


@_once_per_form
def is_sf(sf: S.StandardForm) -> bool:
    """Separated fragment: universal variables never share an atom with
    non-leading existential ones.  The leading block is exempt."""
    return is_separated(sf.universal_vars, sf.existential_vars, sf.matrix)


def is_ssf(sf: S.StandardForm) -> bool:
    """Strongly separated: the universal set and every existential block
    are *pairwise* separated."""
    if not is_sf(sf):
        raise NotSF("not a separated sentence")
    sets = [frozenset(sf.universal_vars)] + [frozenset(y) for _, y in sf.blocks]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not is_separated(sets[i], sets[j], sf.matrix):
                return False
    return True


def is_mfo(sf: S.StandardForm) -> bool:
    """Relational monadic without equality: every predicate unary, no
    equations (constants are allowed)."""
    for a in S.atoms_iter(sf.matrix):
        if isinstance(a, S.Eq):
            return False
        if len(a.args) != 1:
            return False
    return True


def is_bsr(sf: S.StandardForm) -> bool:
    """exists* forall* prefix."""
    if not sf.blocks:
        return True
    return len(sf.blocks) == 1 and not sf.blocks[0][1]


# ---------------------------------------------------------------------------
# interaction partition and degree


@dataclass(frozen=True)
class InteractionPartition:
    """Connected components of existential variables under joint atom
    occurrence (transitively closed), with each variable's block level."""

    components: tuple[tuple[frozenset[str], frozenset[int]], ...]
    levels: dict[str, int]


def interaction_partition(sf: S.StandardForm) -> InteractionPartition:
    if not is_sf(sf):
        raise NotSF("interaction partition is defined for separated sentences")
    levels = sf.levels()
    parent = {v: v for v in levels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a in S.atoms_iter(sf.matrix):
        joint = sorted(S.atom_vars(a) & set(levels))
        for other in joint[1:]:
            union(joint[0], other)
    groups: dict[str, set] = {}
    for v in levels:
        groups.setdefault(find(v), set()).add(v)
    components = tuple(
        (frozenset(g), frozenset(levels[v] for v in g))
        for g in sorted(groups.values(), key=lambda g: sorted(g))
    )
    return InteractionPartition(components, levels)


def degree(sf: S.StandardForm) -> int:
    """Interaction degree: zero without universal quantifiers, otherwise
    the maximum number of distinct block levels linked inside one
    component (at least one).

    Components realize the minimum over all pairwise-separated partitions
    of the existential variables: any such partition coarsens the
    components, and coarsening cannot decrease the level count.
    """
    if not sf.universal_vars:
        return 0
    part = interaction_partition(sf)
    if not part.components:
        return 1
    return max(1, max(len(lv) for _, lv in part.components))


@dataclass(frozen=True)
class DegreeReport:
    is_sf: bool
    is_ssf: bool
    is_mfo: bool
    is_bsr: bool
    degree: Optional[int]
    alternations: int
    partition: Optional[InteractionPartition]
    irregular_prefix: bool  # empty x1 or y1, outside the usual setup

    def to_json(self):
        out = {
            "is_sf": self.is_sf,
            "is_ssf": self.is_ssf,
            "is_mfo": self.is_mfo,
            "is_bsr": self.is_bsr,
            "degree": self.degree,
            "alternations": self.alternations,
            "irregular_prefix": self.irregular_prefix,
        }
        if self.partition is not None:
            out["components"] = [sorted(vs) for vs, _ in self.partition.components]
            out["levels"] = dict(sorted(self.partition.levels.items()))
        else:
            out["components"] = None
            out["levels"] = None
        return out


def analyze(sf: S.StandardForm) -> DegreeReport:
    sep = is_sf(sf)
    part = interaction_partition(sf) if sep else None
    irregular = bool(sf.blocks) and (not sf.blocks[0][0] or not sf.blocks[0][1])
    return DegreeReport(
        is_sf=sep,
        is_ssf=is_ssf(sf) if sep else False,
        is_mfo=is_mfo(sf),
        is_bsr=is_bsr(sf),
        degree=degree(sf) if sep else None,
        alternations=len(sf.blocks),
        partition=part,
        irregular_prefix=irregular,
    )


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class BoundReport:
    """Size bounds as tetration expressions.

    translation_existentials: leading existential quantifiers sufficient
        for an equivalent exists*forall* sentence, driven by the degree
        and the number of literals containing existential variables.
    model_size: small-model bound derived from that translation.
    alternation_model_size: the older bound driven by the number of
        quantifier alternations instead of the degree.
    bsr_model_size: |leading| + #constants (exists*forall* sentences only).
    mfo_model_size: 2^k for k predicate symbols (monadic, no equality).
    """

    translation_existentials: TetrationExpr
    model_size: TetrationExpr
    alternation_model_size: TetrationExpr
    bsr_model_size: Optional[int]
    mfo_model_size: Optional[int]

    def to_json(self):
        return {
            "lemma12": self.translation_existentials.to_json(),
            "expr1": self.model_size.to_json(),
            "prop9": self.alternation_model_size.to_json(),
            "prop5": self.bsr_model_size,
            "prop6": self.mfo_model_size,
        }


def existential_literal_count(sf: S.StandardForm) -> int:
    """Distinct literals of the matrix containing at least one non-leading
    existential variable."""
    ys = set(sf.existential_vars)
    seen = set()
    for g in S.subformulas(sf.matrix):
        if isinstance(g, S.Not) and isinstance(g.sub, (S.Pred, S.Eq)):
            lit = (S.atom_key(g.sub), True)
            av = S.atom_vars(g.sub)
        elif isinstance(g, (S.Pred, S.Eq)):
            lit = (S.atom_key(g), False)
            av = S.atom_vars(g)
        else:
            continue
        if av & ys:
            seen.add(lit)
    return len(seen)


@_once_per_form
def bounds(sf: S.StandardForm) -> BoundReport:
    if not is_sf(sf):
        raise NotSF("bounds are defined for separated sentences")
    d = degree(sf)
    n = len(sf.blocks)
    ln = S.formula_len(sf.to_formula())
    n_lits = existential_literal_count(sf)
    n_y = len(sf.existential_vars)
    n_z = len(sf.leading)

    if d == 0:
        translation = nat(n_z)
        model_size = nat(ln)
    else:
        translation = add(nat(n_z), mul(nat(n_y * d), power(twoup(d, n_lits), nat(d))))
        model_size = add(nat(ln), mul(nat(ln * d), power(twoup(d, ln), nat(d))))
    if n == 0:
        by_alternations = nat(ln)
    else:
        by_alternations = add(nat(ln), mul(nat(n * ln), power(twoup(n, ln), nat(n))))

    bsr_bound = None
    if is_bsr(sf):
        bsr_bound = max(n_z + len(S.constants_of(sf.matrix)), 1)
    mfo_bound = None
    if is_mfo(sf):
        preds = {a.name for a in S.atoms_iter(sf.matrix) if isinstance(a, S.Pred)}
        mfo_bound = 2 ** len(preds)
    return BoundReport(translation, model_size, by_alternations, bsr_bound, mfo_bound)

"""Finite structures and formula evaluation.

A structure interprets constants as universe elements and predicates as
sets of element tuples; equality is identity on the universe.  All
operations here are pure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import ConstantOutsideSubset, SignatureMismatch, UnassignedVariable
from . import syntax as S


@dataclass(frozen=True)
class Structure:
    universe: tuple[str, ...]
    constants: dict[str, str] = field(default_factory=dict)
    predicates: dict[str, frozenset[tuple[str, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.universe:
            raise SignatureMismatch("universe must be nonempty")
        elems = set(self.universe)
        for c, e in self.constants.items():
            if e not in elems:
                raise SignatureMismatch(f"constant {c!r} maps outside the universe")
        for p, table in self.predicates.items():
            arities = {len(t) for t in table}
            if len(arities) > 1:
                raise SignatureMismatch(f"mixed tuple arities for {p!r}")
            for t in table:
                if any(e not in elems for e in t):
                    raise SignatureMismatch(f"tuple outside universe in {p!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "universe": list(self.universe),
                "constants": dict(sorted(self.constants.items())),
                "predicates": {
                    p: sorted(list(t) for t in table)
                    for p, table in sorted(self.predicates.items())
                },
            }
        )

    @staticmethod
    def from_json(text: str) -> "Structure":
        try:
            data = json.loads(text)
            return Structure(
                tuple(json_list(data["universe"])),
                dict(data.get("constants", {})),
                {
                    p: frozenset(tuple(json_list(t)) for t in json_list(table))
                    for p, table in data.get("predicates", {}).items()
                },
            )
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise SignatureMismatch(f"malformed structure JSON ({exc!r})") from None


def json_list(value) -> list:
    """`value` if it is a JSON list; anything else, a string above all,
    which would otherwise be split into characters, raises TypeError."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


Assignment = dict  # variable name -> element label


def _resolve(structure: Structure, beta, t: S.Term) -> str:
    if isinstance(t, S.Var):
        try:
            return beta[t.name]
        except KeyError:
            raise UnassignedVariable(t.name) from None
    try:
        return structure.constants[t.name]
    except KeyError:
        raise SignatureMismatch(f"constant {t.name!r} not interpreted") from None


def evaluate(structure: Structure, beta: Assignment, f: S.Formula) -> bool:
    """Standard Tarskian truth; equality is identity, and a counting
    quantifier holds iff at least n distinct witness tuples satisfy the
    body."""
    elems = set(structure.universe)
    for v, e in beta.items():
        if e not in elems:
            raise SignatureMismatch(f"assignment of {v!r} outside the universe")

    def ev(g, env):
        if isinstance(g, S.Top):
            return True
        if isinstance(g, S.Bottom):
            return False
        if isinstance(g, S.Pred):
            table = structure.predicates.get(g.name)
            if table is None:
                raise SignatureMismatch(f"predicate {g.name!r} not interpreted")
            key = tuple(_resolve(structure, env, t) for t in g.args)
            if key in table:
                return True
            if table and len(next(iter(table))) != len(key):
                raise SignatureMismatch(
                    f"predicate {g.name!r} is used with {len(key)} arguments, unlike its table"
                )
            return False
        if isinstance(g, S.Eq):
            return _resolve(structure, env, g.left) == _resolve(structure, env, g.right)
        if isinstance(g, S.Not):
            return not ev(g.sub, env)
        if isinstance(g, S.And):
            return all(ev(p, env) for p in g.parts)
        if isinstance(g, S.Or):
            return any(ev(p, env) for p in g.parts)
        if isinstance(g, S.Implies):
            return (not ev(g.left, env)) or ev(g.right, env)
        if isinstance(g, S.Iff):
            return ev(g.left, env) == ev(g.right, env)
        if isinstance(g, S.Forall):
            for combo in itertools.product(structure.universe, repeat=len(g.vars)):
                inner = dict(env)
                inner.update(zip(g.vars, combo))
                if not ev(g.body, inner):
                    return False
            return True
        if isinstance(g, S.Exists):
            for combo in itertools.product(structure.universe, repeat=len(g.vars)):
                inner = dict(env)
                inner.update(zip(g.vars, combo))
                if ev(g.body, inner):
                    return True
            return False
        if isinstance(g, S.CountingExists):
            count = 0
            for combo in itertools.product(structure.universe, repeat=len(g.vars)):
                inner = dict(env)
                inner.update(zip(g.vars, combo))
                if ev(g.body, inner):
                    count += 1
                    if count >= g.n:
                        return True
            return False
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, dict(beta))


def models(structure: Structure, f: S.Formula) -> bool:
    """structure |= f for a sentence f."""
    return evaluate(structure, {}, f)


def substructure(big: Structure, subset) -> Structure:
    """Restrict to a nonempty subset that contains every constant's image;
    predicate tables are intersected with tuples over the subset."""
    subset = set(subset)
    kept = tuple(e for e in big.universe if e in subset)
    if not kept:
        raise ConstantOutsideSubset("subset must be nonempty")
    for c, e in big.constants.items():
        if e not in subset:
            raise ConstantOutsideSubset(f"constant {c!r} maps to removed element {e!r}")
    return Structure(
        kept,
        dict(big.constants),
        {
            p: frozenset(t for t in table if all(e in subset for e in t))
            for p, table in big.predicates.items()
        },
    )

"""First-order formulas over relational signatures with constants.

Terms are variables or constants; there are no non-constant function
symbols.  Formula trees are immutable, so every transformation returns a
new tree.

Concrete syntax::

    formula := quant | iff
    quant   := ("forall" | "exists" | "exists>="NAT) ident+ "." formula
    iff     := imp ("<->" imp)*
    imp     := disj ("->" imp)?
    disj    := conj ("|" conj)*
    conj    := neg ("&" neg)*
    neg     := "~" neg | "true" | "false" | atom | "(" formula ")"
    atom    := PRED "(" term ("," term)* ")" | term "=" term

where PRED matches ``[A-Z][A-Za-z0-9_]*`` and ident/term match
``[a-z_][A-Za-z0-9_]*``.  Negation binds strongest, then "&", then "|",
then "->" (right associative), then "<->"; quantifier scopes stretch as
far to the right as possible.  An identifier is a variable exactly when
it is bound by an enclosing quantifier; all other lowercase identifiers
denote constants.

Parsing: one `findall` of one regex returns the tokens as strings, each
passed through `sys.intern`, so every parse shares one object per name;
a token's kind is read off its first character, and token positions are
computed only for a `ParseError`.  A character that starts no token is
reported before any syntax error.  The parser records the binder names
and the constants, and `parse_formula` calls `rename_apart` only when a
binder name repeats or is also a constant.  `rename_apart` returns its
input after one scan when no binder needs a new name.

Traversal: `children` and `rebuild` are the only code that knows which
fields of a node are subformulas, so a new node type is added in those
two functions only.  `subformulas` is a pre-order over `children`, and
`rewrite` is the one memoized rewrite: a rule handles the node types it
changes and passes every other node back.  `equality_as_predicate`,
`expand_counting`, `smp_to_sf`, `skolemize_existential`,
`scope_minimized` and `substitute` are rules.  Walks stay hand-written
where a rule does not serve: `to_nnf` memoizes only the operands of <->
(on `rewrite` it was 2-4 times slower over the benchmark corpora);
`rename_apart` (`_rebind`) and `translate._flatten_unit` name every
occurrence of a shared binder apart, and the latter flattens nested &
and |; `nnf_tree` builds int tuples; and the evaluators, the printer,
`free_vars`, `survey`, `formula_len` and prenexing fold into values.
`to_nnf` is the only code that rewrites -> and <-> and pushes ~ inward;
`nnf_tree`, `cnf_matrix` and the model search's SAT encoding read its
output.  `survey` collects in one walk what a caller needs to know of a
formula's names and shape: binders, free variables, constants,
predicate arities, whether counting occurs and whether a universally
bound variable reaches an atom; `names_in`, `constants_of` and
`infer_signature` are views of it.

Sharing: `to_nnf` shares the operands of <->, so a formula may be a DAG.
A walk visits each node object once: `subformulas` yields it at its
first occurrence, `rewrite`, so `substitute` too, rewrites it once per
binding and keeps the sharing of its input, and `free_vars`, `survey`,
`formula_len`, prenexing, `to_nnf` and `nnf_tree` memoize by node id.
The printer and `rename_apart` visit every occurrence, as each
quantifier occurrence gets its own names.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Union

from .errors import (
    ArityMismatch,
    ClauseBudgetExceeded,
    NotASentence,
    NotNNF,
    ParseError,
    UnexpandedCounting,
    depth_guarded,
)

# ---------------------------------------------------------------------------
# terms and formulas
#
# Nodes are slotted: translations build trees by the hundred thousand, and
# a node without an instance dict takes about a third less memory.


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


Term = Union[Var, Const]


@dataclass(frozen=True, slots=True)
class Pred:
    """Predicate application P(t1, ..., tn)."""

    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Eq:
    """Equation s = t over the distinguished equality predicate."""

    left: Term
    right: Term


Atom = Union[Pred, Eq]


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True, slots=True)
class CountingExists:
    """Counting quantifier: at least `n` distinct witness tuples."""

    n: int
    vars: tuple[str, ...]
    body: "Formula"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("counting threshold must be >= 1")


Formula = Union[
    Top, Bottom, Pred, Eq, Not, And, Or, Implies, Iff, Forall, Exists, CountingExists
]

TRUE = Top()
FALSE = Bottom()


def conj(parts) -> Formula:
    """n-ary conjunction; flattens nested And and drops trivial cases."""
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        elif isinstance(p, Top):
            continue
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts) -> Formula:
    flat = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.parts)
        elif isinstance(p, Bottom):
            continue
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def forall(names, body) -> Formula:
    names = tuple(names)
    return Forall(names, body) if names else body


def exists(names, body) -> Formula:
    names = tuple(names)
    return Exists(names, body) if names else body


# ---------------------------------------------------------------------------
# traversals


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f, left to right; () for atoms, Top
    and Bottom."""
    t = type(f)
    if t is And or t is Or:
        return f.parts
    if t is Not:
        return (f.sub,)
    if t is Implies or t is Iff:
        return (f.left, f.right)
    if t is Forall or t is Exists or t is CountingExists:
        return (f.body,)
    return ()


def rebuild(f: Formula, kids) -> Formula:
    """f with its immediate subformulas replaced by `kids`, given in the
    order of `children(f)`; every other field is kept, and atoms, Top and
    Bottom come back unchanged."""
    t = type(f)
    if t is And or t is Or:
        return t(tuple(kids))
    if t is Not:
        (sub,) = kids
        return Not(sub)
    if t is Implies or t is Iff:
        left, right = kids
        return t(left, right)
    if t is Forall or t is Exists:
        (body,) = kids
        return t(f.vars, body)
    if t is CountingExists:
        (body,) = kids
        return CountingExists(f.n, f.vars, body)
    return f


def rewrite(f: Formula, rule, env=None) -> Formula:
    """f with each node g put through `rule(g, env, walk)`, `env` the
    binding at g: the rule returns g's rewrite, calling `walk(k, env2)` on
    the parts it needs, or None to rewrite g's children under `env`.  A
    node is rewritten once per binding, and comes back as itself when its
    children do, so the result keeps the sharing of f."""
    memo: dict = {}  # (id of node, id of binding) -> (result, node, binding), kept alive

    def walk(g: Formula, env) -> Formula:
        key = id(g), id(env)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        out = rule(g, env, walk)
        if out is None:
            kids = children(g)
            new = [walk(k, env) for k in kids]
            out = g if all(map(operator.is_, new, kids)) else rebuild(g, new)
        memo[key] = out, g, env
        return out

    return walk(f, env)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node object of f once, f first, in the pre-order of first
    occurrences: a node that occurs at several positions, as `to_nnf`
    shares the operands of <->, is yielded and walked at the first."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            yield g
            stack.extend(reversed(children(g)))


def atoms_iter(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if isinstance(g, (Pred, Eq)):
            yield g


def atom_vars(a: Atom) -> frozenset[str]:
    args = a.args if type(a) is Pred else (a.left, a.right)
    return frozenset([t.name for t in args if type(t) is Var])


def free_vars(f: Formula, memo: Optional[dict] = None) -> frozenset[str]:
    """Free variables of f, computed once per node object.  A caller that
    asks for many parts of one formula passes one dict as `memo`: id of a
    non-atom node -> (its free variables, the node, kept alive), so a
    node's first answer, iteration order included, is every later one."""
    t = type(f)
    if t is Pred or t is Eq:
        return atom_vars(f)
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is None:
        fv = frozenset().union(*[free_vars(k, memo) for k in children(f)])
        if t is Forall or t is Exists or t is CountingExists:
            fv = fv.difference(f.vars)
        hit = memo[id(f)] = fv, f
    return hit[0]


def constants_of(f: Formula) -> frozenset[str]:
    return frozenset(survey(f).consts)


def names_in(f: Formula) -> tuple[list[str], set[str], set[str]]:
    """Binder names, free variables and constants of f (`survey`)."""
    s = survey(f)
    return s.binders, s.free, s.consts


class Survey:
    """What one walk of a formula finds (`survey`): the binder names, one
    per occurrence in pre-order, free variables, constants, predicate
    arities at first use, `clash`, the first (name, arity, earlier arity)
    that disagrees, and the flags `counting` and `universal`."""

    __slots__ = ("binders", "free", "consts", "predicates", "clash", "counting", "universal")

    def __init__(self, consts=(), predicates=()):
        self.binders, self.free, self.clash = [], set(), None
        self.consts, self.predicates = set(consts), dict(predicates)
        self.counting = self.universal = False

    def names(self) -> set[str]:
        return self.free | self.consts | set(self.binders)

    def signature(self, sentence: bool = False) -> "Signature":
        """The predicates and constants; with `sentence`, a free variable
        raises NotASentence, and then a clash ArityMismatch."""
        if sentence and self.free:
            raise NotASentence(f"free variables: {sorted(self.free)}")
        if self.clash:
            raise ArityMismatch(*self.clash)
        return Signature(dict(self.predicates), set(self.consts))


def survey(f: Formula) -> Survey:
    """The binder names (one per occurrence, in pre-order), free
    variables, constants and predicate arities of f, in one walk that
    visits each node object once per scope and polarity; a node met
    again there repeats its binders.  Polarity flips under ~ and left of
    ->, and <-> gives its operands both, so `universal` is set when a
    forall of positive polarity, or an exists of negative, binds a
    variable of an atom: on a counting-free sentence, one of to_nnf(f)."""
    s = Survey()
    binders, free, consts, preds = s.binders, s.free, s.consts, s.predicates
    memos: tuple = ({}, {}, {})  # by polarity 0, 1, -1: id of a node -> (bound, binder span)

    def walk(g, bound, uni, pol):
        t = type(g)
        if t is Pred or t is Eq:
            args = g.args if t is Pred else (g.left, g.right)
            if t is Pred and preds.setdefault(g.name, len(args)) != len(args):
                s.clash = s.clash or (g.name, len(args), preds[g.name])
            for a in args:
                if type(a) is Const:
                    consts.add(a.name)
                elif a.name not in bound:
                    free.add(a.name)
                elif a.name in uni:
                    s.universal = True
            return
        memo = memos[pol]
        hit = memo.get(id(g))
        if hit is not None and hit[0] is bound:
            binders.extend(binders[hit[1] : hit[2]])
            return
        start = len(binders)
        if t is Forall or t is Exists or t is CountingExists:
            s.counting = s.counting or t is CountingExists
            binders.extend(g.vars)
            # the new `bound` is a new object, which stands for `uni` in the memo too
            universal = pol == 0 or (t is Forall) == (pol == 1)
            uni = uni.union(g.vars) if universal else uni.difference(g.vars)
            walk(g.body, bound.union(g.vars), uni, pol)
        elif t is Not:
            walk(g.sub, bound, uni, -pol)
        elif t is Implies or t is Iff:
            walk(g.left, bound, uni, 0 if t is Iff else -pol)
            walk(g.right, bound, uni, 0 if t is Iff else pol)
        else:
            for k in children(g):
                walk(k, bound, uni, pol)
        memo[id(g)] = bound, start, len(binders)

    walk(f, frozenset(), frozenset(), 1)
    return s


def is_quantifier_free(f: Formula) -> bool:
    return not any(
        isinstance(g, (Forall, Exists, CountingExists)) for g in subformulas(f)
    )


def is_nnf(f: Formula) -> bool:
    """Negations only on atoms, no implications or biconditionals."""
    for g in subformulas(f):
        if isinstance(g, (Implies, Iff)):
            return False
        if isinstance(g, Not) and not isinstance(g.sub, (Pred, Eq)):
            return False
    return True


# ---------------------------------------------------------------------------
# signatures


@dataclass
class Signature:
    """Predicate arities and the constant vocabulary.

    The equality predicate is built into the formula syntax and is never
    listed here.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    constants: set[str] = field(default_factory=set)

    def copy(self) -> "Signature":
        return Signature(dict(self.predicates), set(self.constants))

    def declare(self, name: str, arity: int):
        seen = self.predicates.get(name)
        if seen is not None and seen != arity:
            raise ArityMismatch(name, arity, seen)
        self.predicates[name] = arity


def infer_signature(f: Formula, hint: Optional[Signature] = None) -> Signature:
    """The predicates and constants of f (`survey`) after those of `hint`."""
    sig = hint.copy() if hint is not None else Signature()
    own = survey(f).signature()
    for name, arity in own.predicates.items():
        sig.declare(name, arity)
    sig.constants |= own.constants
    return sig


# ---------------------------------------------------------------------------
# fresh names and binder normalization


class FreshNames:
    """Deterministic fresh-name source: base, then base#1, base#2, ..."""

    def __init__(self, used=()):
        self.used = set(used)
        self._counters: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        n = self._counters.get(base, 0)
        while True:
            n += 1
            cand = f"{base}#{n}"
            if cand not in self.used:
                self._counters[base] = n
                self.used.add(cand)
                return cand


def _fresh_on_demand(used) -> Callable[[str], str]:
    """`FreshNames(used()).fresh`, with `used()` computed at the first call."""
    names = None

    def fresh(base: str) -> str:
        nonlocal names
        if names is None:
            names = FreshNames(used())
        return names.fresh(base)

    return fresh


def _rebind(f: Formula, env: dict[str, Term], name_binders, prune: bool) -> Formula:
    """The one substitution rule: replace each free variable that `env`
    maps, and name the variables of every quantifier on the way down.

    `name_binders(vars, inner)` returns the names for a quantifier's
    variables, given the binding `inner` that holds below it; a renamed
    variable is bound to its new name in the body within the same pass.
    With `prune`, the rule runs in one `rewrite`, and a subtree comes back
    as it is once `env` is empty; without, every occurrence is walked.
    """

    def term(t: Term, env) -> Term:
        return env.get(t.name, t) if isinstance(t, Var) else t

    def rule(g: Formula, env, walk) -> Optional[Formula]:
        kind = type(g)
        if not env and (prune or kind is Pred or kind is Eq):
            return g
        if kind is Pred:
            return Pred(g.name, tuple(term(t, env) for t in g.args))
        if kind is Eq:
            return Eq(term(g.left, env), term(g.right, env))
        if kind is not Forall and kind is not Exists and kind is not CountingExists:
            return None
        inner = {k: t for k, t in env.items() if k not in g.vars}
        names = name_binders(g.vars, inner)
        for v, nv in zip(g.vars, names):
            if nv != v:
                inner[v] = Var(nv)
        body = walk(g.body, inner)
        if kind is CountingExists:
            return CountingExists(g.n, names, body)
        return kind(names, body)

    def walk(g: Formula, env) -> Formula:
        out = rule(g, env, walk)
        return rebuild(g, [walk(k, env) for k in children(g)]) if out is None else out

    return rewrite(f, rule, env) if prune else walk(f, env)


def rename_apart(f: Formula, reserved=()) -> Formula:
    """Make every binder bind a distinct name, disjoint from free names.

    One pass, left to right: the first binder of a name keeps it, and a
    later one gets a fresh name (counter per base name) that is bound in
    its body in the same pass.  Free variables, constants, and the names
    in `reserved` are never chosen as binder names.  When no binder needs
    a new name, f itself is returned after one scan.
    """
    return _apart(f, *names_in(f), set(reserved))


def _apart(f: Formula, binders, free, consts, reserved: set) -> Formula:
    """`rename_apart(f, reserved)` given `names_in(f)`."""
    taken = reserved | free | consts
    if len(set(binders)) == len(binders) and taken.isdisjoint(binders):
        return f
    fresh = _fresh_on_demand(lambda: taken | set(binders))

    def claim(names, inner):
        out = []
        for v in names:
            if v in taken:
                v = fresh(v)
            else:
                taken.add(v)
            out.append(v)
        return tuple(out)

    return _rebind(f, {}, claim, prune=False)


def substitute(f: Formula, binding: Mapping[str, Term]) -> Formula:
    """Replace free occurrences of variables; bound occurrences untouched.

    One pass over the subtrees the binding reaches.  A binder is renamed
    only when it would capture a substituted variable, and only then are
    the names of `f` collected for a fresh one.
    """
    binding = dict(binding)
    if not binding:
        return f
    fresh = _fresh_on_demand(
        lambda: survey(f).names()
        | set(binding)
        | {t.name for t in binding.values() if isinstance(t, Var)}
    )

    def avoid_capture(names, inner):
        captured = {t.name for t in inner.values() if isinstance(t, Var)}
        if captured.isdisjoint(names):
            return names
        return tuple(fresh(v) if v in captured else v for v in names)

    return _rebind(f, binding, avoid_capture, prune=True)


def equality_name(taken) -> str:
    """The first of E, E1, E2, ... not in `taken`: the name of the binary
    predicate that stands for equality once equations are eliminated."""
    name, i = "E", 0
    while name in taken:
        i += 1
        name = f"E{i}"
    return name


def equality_as_predicate(f: Formula, taken) -> tuple[Formula, str]:
    """f with every equation s = t turned into E(s, t) for the binary
    predicate E = `equality_name(taken)`.  Returns the new formula and E;
    the caller adds whatever axioms E needs.  One `rewrite`, so the
    result keeps the sharing of f."""
    name = equality_name(taken)

    def rule(g: Formula, env, walk) -> Optional[Formula]:
        return Pred(name, (g.left, g.right)) if type(g) is Eq else None

    return rewrite(f, rule), name


# ---------------------------------------------------------------------------
# parsing

# One alternative per token kind, tried in this order; the last one takes
# a character that starts no token, which the parser rejects.  A token's
# kind is read off its first character.
_TOKEN_RE = re.compile(r"<->|->|>=|\d+|[A-Za-z_][A-Za-z0-9_]*|[()~&|=,.]|\S")

_KEYWORDS = {"forall", "exists", "true", "false"}
_PRED_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
_SYMBOLS = frozenset("()~&|=,.")

# Nesting accepted by the parser.  '~', '(', quantifiers and each arrow
# of a '->' or '<->' chain (which nests the tree one level deeper) count
# one level each; a level costs Python frames here or in the recursive
# tree walks downstream, so deeper input is a ParseError, not a
# RecursionError.
MAX_NESTING = 100


def _is_bad(tok: str) -> bool:
    """A token of the last alternative of _TOKEN_RE ('<', '-' or '>'
    alone included)."""
    return len(tok) == 1 and not (
        tok in _SYMBOLS or tok in _WORD_START or tok in _PRED_START or tok.isdecimal()
    )


class _Parser:
    """Recursive descent over the token strings, with "" for the end of
    input.  Positions are computed only for a ParseError."""

    def __init__(self, text: str):
        toks = list(map(sys.intern, _TOKEN_RE.findall(text)))
        if any(map(_is_bad, set(toks))):
            i = next(m.start() for m in _TOKEN_RE.finditer(text) if _is_bad(m.group()))
            raise ParseError(i, "a token", f"parse error at {i}: unexpected {text[i]!r}")
        toks.append("")
        self.text = text
        self.toks = toks
        self.i = 0
        self.sig = Signature()
        self.bound: frozenset[str] = frozenset()  # names in scope
        self.consts: dict[str, Const] = {}  # one node per constant
        self.binders: list[str] = []  # every binder name, repeats included
        self.depth = 0

    def fail(self, expected: str, at: Optional[int] = None):
        """Raise a ParseError at token `at`, by default the next one."""
        at = self.i if at is None else at
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), at, None), None)
        raise ParseError(len(self.text) if m is None else m.start(), expected)

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            self.fail(repr(tok))
        self.i += 1

    def deeper(self, at: int):
        if self.depth == MAX_NESTING:
            self.fail(f"at most {MAX_NESTING} nested '~', '(', quantifiers and arrows", at)
        self.depth += 1

    def nested(self, at: int, parse):
        self.deeper(at)
        out = parse()
        self.depth -= 1
        return out

    def term(self) -> Term:
        t = self.toks[self.i]
        if t[:1] not in _WORD_START or t in _KEYWORDS:
            self.fail("a term")
        self.i += 1
        if t in self.bound:
            return Var(t)
        c = self.consts.get(t)
        if c is None:
            c = self.consts[t] = Const(t)
            self.sig.constants.add(t)
        return c

    def formula(self) -> Formula:
        if self.toks[self.i] in ("forall", "exists"):
            return self.quantified()
        return self.iff()

    def quantified(self) -> Formula:
        toks, at = self.toks, self.i
        head = toks[at]
        self.i += 1
        n = None
        if head == "exists" and toks[self.i] == ">=":
            self.i += 1
            if not toks[self.i].isdecimal():
                self.fail("a counting threshold")
            n = int(toks[self.i])
            if n < 1:
                self.fail("a threshold >= 1")
            self.i += 1
        start = self.i
        while toks[self.i][:1] in _WORD_START and toks[self.i] not in _KEYWORDS:
            self.i += 1
        names = tuple(toks[start : self.i])
        if not names:
            self.fail("at least one bound variable")
        self.expect(".")
        self.binders.extend(names)
        outer = self.bound
        self.bound = outer.union(names)
        body = self.nested(at, self.formula)
        self.bound = outer
        if n is not None:
            return CountingExists(n, names, body)
        return (Forall if head == "forall" else Exists)(names, body)

    def iff(self) -> Formula:
        depth = self.depth
        out = self.imp()
        while self.toks[self.i] == "<->":
            self.i += 1
            self.deeper(self.i - 1)
            out = Iff(out, self.imp())
        self.depth = depth
        return out

    def imp(self) -> Formula:
        depth = self.depth
        parts = [self.disj()]
        while self.toks[self.i] == "->":
            self.i += 1
            self.deeper(self.i - 1)
            parts.append(self.disj())
        self.depth = depth
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.toks[self.i] == "|":
            self.i += 1
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Formula:
        parts = [self.neg()]
        while self.toks[self.i] == "&":
            self.i += 1
            parts.append(self.neg())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def neg(self) -> Formula:
        t = self.toks[self.i]
        if t == "~":
            self.i += 1
            return Not(self.nested(self.i - 1, self.neg))
        if t == "(":
            self.i += 1
            out = self.nested(self.i - 1, self.formula)
            self.expect(")")
            return out
        if t == "true" or t == "false":
            self.i += 1
            return TRUE if t == "true" else FALSE
        if t[:1] in _PRED_START:
            return self.predicate()
        if t[:1] in _WORD_START and t not in _KEYWORDS:
            left = self.term()
            self.expect("=")
            return Eq(left, self.term())
        self.fail("a formula")

    def predicate(self) -> Formula:
        toks = self.toks
        name = toks[self.i]
        self.i += 1
        self.expect("(")
        args = [self.term()]
        while toks[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        self.sig.declare(name, len(args))
        return Pred(name, tuple(args))


def parse_formula(text: str):
    """Parse the concrete syntax; returns (formula, inferred signature).

    Binders are alpha-renamed so that no name is bound twice and no name
    is both free and bound; `rename_apart` runs only when a binder name
    repeats or is also a constant.
    """
    p = _Parser(text)
    f = p.formula()
    if p.toks[p.i]:
        p.fail("end of input")
    names = p.binders
    if len(set(names)) < len(names) or not p.sig.constants.isdisjoint(names):
        f = rename_apart(f)
    return f, p.sig


# ---------------------------------------------------------------------------
# printing

_IDENT_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")

_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NEG = 5


def _render(f: Formula, canonical: bool, names=None) -> str:
    """The one printer.  Binder names are chosen while printing, in
    pre-order, so every quantifier position gets its own names even when
    one node object occurs at several positions.  A name never clashes
    with a constant, a free variable, a keyword or an earlier binder:
    `canonical` names binders v1, v2, ... by position; otherwise a binder
    keeps its own name where that is a legal identifier not yet used.
    The free variables and constants of f are `names` when given, and
    are otherwise collected at the first binder, so a quantifier-free
    formula is printed in one walk."""
    used = None
    counter = 0

    def pick(name: str) -> str:
        nonlocal counter, used
        if used is None:
            if names is None:
                _, free, consts = names_in(f)
                used = free | consts | _KEYWORDS
            else:
                used = _KEYWORDS | names
        if not canonical:
            cand = name if _IDENT_RE.match(name) else name.replace("#", "")
            if _IDENT_RE.match(cand) and cand not in used:
                used.add(cand)
                return cand
        while True:
            counter += 1
            cand = f"v{counter}"
            if cand not in used:
                used.add(cand)
                return cand

    def term(t: Term, env) -> str:
        return env.get(t.name, t.name) if type(t) is Var else t.name

    def go(g: Formula, prec: int, env: dict[str, str]) -> str:
        t = type(g)
        if t is Pred:
            return f"{g.name}({', '.join([term(a, env) for a in g.args])})"
        if t is Not:
            return "~" + go(g.sub, _PREC_NEG, env)
        if t is And:
            s = " & ".join([go(p, _PREC_AND + 1, env) for p in g.parts])
            return s if prec <= _PREC_AND else f"({s})"
        if t is Or:
            s = " | ".join([go(p, _PREC_OR + 1, env) for p in g.parts])
            return s if prec <= _PREC_OR else f"({s})"
        if t is Eq:
            return f"{term(g.left, env)} = {term(g.right, env)}"
        if t is Top:
            return "true"
        if t is Bottom:
            return "false"
        if t is Implies:
            s = go(g.left, _PREC_IMP + 1, env) + " -> " + go(g.right, _PREC_IMP, env)
            return s if prec <= _PREC_IMP else f"({s})"
        if t is Iff:
            s = go(g.left, _PREC_IFF, env) + " <-> " + go(g.right, _PREC_IFF + 1, env)
            return s if prec <= _PREC_IFF else f"({s})"
        # quantifiers bind weakest; they need parentheses inside any operator
        chosen = [pick(v) for v in g.vars]
        inner = dict(env)
        inner.update(zip(g.vars, chosen))
        if t is CountingExists:
            head = f"exists>={g.n}"
        elif t is Forall:
            head = "forall"
        else:
            head = "exists"
        s = f"{head} {' '.join(chosen)}. " + go(g.body, 0, inner)
        return s if prec == 0 else f"({s})"

    return go(f, 0, {})


def print_formula(f: Formula) -> str:
    """Concrete syntax that round-trips through parse_formula up to
    alpha-renaming.  Binder names are kept where legal and made fresh
    otherwise, during the one printing walk shared with canonical_key."""
    return _render(f, canonical=False)


def canonical_key(f: Formula, names=None) -> str:
    """Alpha-invariant string form: the printer of print_formula with
    binders named v1, v2, ... by position while printing.  `names`, when
    the caller knows them, are the free variables and constants of f."""
    return _render(f, canonical=True, names=names)


# ---------------------------------------------------------------------------
# negation normal form


def to_nnf(f: Formula) -> Formula:
    """Push negations down to atoms, eliminating -> and <-> by the
    length-preserving rewrites a -> b == ~a | b and
    a <-> b == (~a | b) & (a | ~b).  A counting quantifier raises
    UnexpandedCounting.  Each operand of <-> is rewritten once per
    polarity and shared, so nested biconditionals give a DAG linear in
    the input, and a walk memoized by node id stays linear on it.  A
    subformula already in NNF comes back as the same object."""
    both: dict[int, tuple] = {}  # id of an operand of <-> -> (pos, neg); f keeps it alive

    def pair(g: Formula) -> tuple:
        if id(g) not in both:
            both[id(g)] = (pos(g), neg(g))
        return both[id(g)]

    def pos(g: Formula) -> Formula:
        t = type(g)
        if t is Pred or t is Eq or t is Not and type(g.sub) in (Pred, Eq):
            return g
        if t is Not:
            return neg(g.sub)
        if isinstance(g, Implies):
            return disj([neg(g.left), pos(g.right)])
        if isinstance(g, Iff):
            (pl, nl), (pr, nr) = pair(g.left), pair(g.right)
            return conj([disj([nl, pr]), disj([pl, nr])])
        if isinstance(g, CountingExists):
            raise UnexpandedCounting("expand counting quantifiers before NNF")
        new = list(map(pos, kids := children(g)))
        return g if all(map(operator.is_, new, kids)) else rebuild(g, new)

    def neg(g: Formula) -> Formula:
        if isinstance(g, Top):
            return FALSE
        if isinstance(g, Bottom):
            return TRUE
        if isinstance(g, (Pred, Eq)):
            return Not(g)
        if isinstance(g, Not):
            return pos(g.sub)
        if isinstance(g, And):
            return disj([neg(p) for p in g.parts])
        if isinstance(g, Or):
            return conj([neg(p) for p in g.parts])
        if isinstance(g, Implies):
            return conj([pos(g.left), neg(g.right)])
        if isinstance(g, Iff):
            # ~(a <-> b) == nnf of the rewritten biconditional, negated
            (pl, nl), (pr, nr) = pair(g.left), pair(g.right)
            return disj([conj([pl, nr]), conj([nl, pr])])
        if isinstance(g, Forall):
            return Exists(g.vars, neg(g.body))
        if isinstance(g, CountingExists):
            raise UnexpandedCounting("expand counting quantifiers before NNF")
        return Forall(g.vars, neg(g.body))

    return pos(f)


def nnf_tree(f: Formula, number: Callable[[Formula], int]):
    """A quantifier-free NNF formula (`to_nnf`) over signed ints: an atom
    a becomes the literal number(a) and ~a becomes -number(a).  The tree
    is a literal or ("&" | "|", parts), with ("&", ()) for true and
    ("|", ()) for false.  An & or | node is converted once per object, so
    a subformula that `to_nnf` shares is one shared tuple.  ->, <-> and ~
    over a non-atom raise NotNNF; any other node is passed to `number`."""
    seen: dict[int, tuple] = {}  # id of an & or | node -> its tree; f keeps it alive

    def walk(g):
        t = type(g)
        if t is And or t is Or:
            if id(g) not in seen:
                seen[id(g)] = ("&" if t is And else "|", [walk(k) for k in g.parts])
            return seen[id(g)]
        if t is Not and (type(g.sub) is Pred or type(g.sub) is Eq):
            return -number(g.sub)
        if t is Not or t is Implies or t is Iff:
            raise NotNNF(f"expected a quantifier-free NNF formula, got: {print_formula(f)}")
        if t is Top or t is Bottom:
            return ("&" if t is Top else "|", ())
        return number(g)

    return walk(f)


class Gates:
    """Definitional CNF over variables 1..n (Plaisted & Greenbaum 1986).
    Every gate occurs positively, so it is defined in one direction only:
    a gate implies the conjunction or disjunction of its inputs.  Gates
    are hash-consed by (op, inputs) and numbered after n, and a tree is
    encoded once per tuple object.  A value is a literal or a bool, and
    bools fold away."""

    def __init__(self, n: int):
        self.n = n
        self.clauses: list[tuple[int, ...]] = []
        self.gates: dict = {}
        self.trees: dict[int, tuple] = {}  # id of a tree -> (its value, the tree, kept alive)

    def gate(self, op: str, inputs):
        """`op` ("&" or "|") of literals and bools as one literal or bool;
        `inputs` is consumed only up to a dominating bool."""
        neutral = op == "&"
        lits = set()
        for x in inputs:
            if type(x) is not bool:
                lits.add(x)
            elif x is not neutral:
                return x
        if len(lits) < 2:
            return lits.pop() if lits else neutral
        key = (op, tuple(sorted(lits)))
        v = self.gates.get(key)
        if v is None:
            self.n += 1
            v = self.gates[key] = self.n
            if neutral:
                self.clauses += [(-v, x) for x in key[1]]
            else:
                self.clauses.append((-v, *key[1]))
        return v

    def literal(self, tree):
        """A tree as `nnf_tree` builds it, as one literal or bool."""
        if type(tree) is tuple and id(tree) not in self.trees:
            self.trees[id(tree)] = self.gate(tree[0], map(self.literal, tree[1])), tree
        return self.trees[id(tree)][0] if type(tree) is tuple else tree

    def require(self, tree):
        """Add the clauses that make a tree, a literal or a bool true.  A
        top-level "&" is required part by part and a top-level "|" is one
        clause over its parts' literals, so only nested subtrees get
        gates."""
        op, parts = tree if type(tree) is tuple else ("|", [tree])
        if op == "&":
            for p in parts:
                self.require(p)
        else:
            lits = [self.literal(p) for p in parts]
            if not any(x is True for x in lits):
                self.clauses.append(tuple(x for x in lits if x is not False))


# ---------------------------------------------------------------------------
# prenexing and standard form


@dataclass(frozen=True)
class StandardForm:
    """Sentence exists z. forall x1 exists y1 ... forall xn exists yn. matrix.

    `leading` is the topmost existential block (possibly empty); `blocks`
    holds the alternating (x_i, y_i) pairs.  Every x_i is nonempty, every
    y_i except possibly the last is nonempty, and the matrix is a
    quantifier-free NNF formula over & | ~ in which every prefix variable
    occurs.
    """

    leading: tuple[str, ...]
    blocks: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    matrix: Formula

    @property
    def universal_vars(self) -> tuple[str, ...]:
        return tuple(v for x, _ in self.blocks for v in x)

    @property
    def existential_vars(self) -> tuple[str, ...]:
        return tuple(v for _, y in self.blocks for v in y)

    def levels(self) -> dict[str, int]:
        """Block index (1-based) of each non-leading existential variable."""
        out = {}
        for i, (_, y) in enumerate(self.blocks, start=1):
            for v in y:
                out[v] = i
        return out

    def to_formula(self) -> Formula:
        f = self.matrix
        for x, y in reversed(self.blocks):
            f = exists(y, f)
            f = forall(x, f)
        return exists(self.leading, f)

    def check(self) -> bool:
        """Invariant checker; accepts exactly the shapes produced by
        to_standard_form."""
        if not is_nnf(self.matrix) or not is_quantifier_free(self.matrix):
            return False
        prefix = list(self.leading)
        for x, y in self.blocks:
            prefix.extend(x)
            prefix.extend(y)
        if len(set(prefix)) != len(prefix):
            return False
        fv = free_vars(self.matrix)
        if set(prefix) != set(fv):
            return False
        for i, (x, y) in enumerate(self.blocks):
            if not x:
                return False
            if not y and i != len(self.blocks) - 1:
                return False
        return True


def _prenex(f: Formula):
    """NNF formula -> (prefix blocks, quantifier-free matrix), prenexing
    each node object once; a quantifier-free node is its own matrix, so
    the matrix keeps the sharing of f.

    Sibling prefixes merge existential-first: at each round all leading
    existential blocks are hoisted before any universal one, keeping the
    topmost exists-block intact whenever possible.
    """
    memo: dict[int, tuple] = {}  # id of an And or Or node -> its result

    def walk(g):
        t = type(g)
        if t is Forall or t is Exists:
            pre, mat = walk(g.body)
            return (("forall" if t is Forall else "exists", g.vars),) + pre, mat
        if t is not And and t is not Or:
            return (), g
        if id(g) not in memo:
            parts = [walk(p) for p in g.parts]
            prefixes = [list(pre) for pre, _ in parts]
            merged = []
            while any(prefixes):
                for kind in ("exists", "forall"):
                    block = []
                    for pre in prefixes:
                        while pre and pre[0][0] == kind:
                            block.extend(pre.pop(0)[1])
                    if block:
                        merged.append((kind, block))
            mats = [mat for _, mat in parts]
            matrix = g if all(map(operator.is_, mats, g.parts)) else t(tuple(mats))
            memo[id(g)] = tuple(merged), matrix
        return memo[id(g)]

    return walk(f)


@depth_guarded
def to_standard_form(f: Formula) -> StandardForm:
    """Equivalence-preserving conversion of a sentence to standard form."""
    g = to_nnf(f)
    binders, free, consts = names_in(g)
    if free:
        raise NotASentence(f"free variables: {sorted(free)}")
    prefix, matrix = _prenex(_apart(g, binders, free, consts, set()))
    fv = free_vars(matrix) if prefix else frozenset()
    cleaned = []
    for kind, names in prefix:
        kept = [v for v in names if v in fv]
        if not kept:
            continue
        if cleaned and cleaned[-1][0] == kind:
            cleaned[-1][1].extend(kept)
        else:
            cleaned.append((kind, kept))
    leading: tuple[str, ...] = ()
    if cleaned and cleaned[0][0] == "exists":
        leading = tuple(cleaned.pop(0)[1])
    # alternating forall/exists blocks, paired; a last forall gets y = ()
    names = [tuple(v) for _, v in cleaned] + [()]
    return StandardForm(leading, tuple(zip(names[0::2], names[1::2])), matrix)


# ---------------------------------------------------------------------------
# CNF matrices


def term_key(t: Term):
    return ("v" if isinstance(t, Var) else "c", t.name)


def atom_key(a: Atom):
    if isinstance(a, Eq):
        return ("=", term_key(a.left), term_key(a.right))
    return ("p", a.name) + tuple(term_key(t) for t in a.args)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool

    def key(self):
        return (atom_key(self.atom), not self.positive)

    def to_formula(self) -> Formula:
        return self.atom if self.positive else Not(self.atom)


@dataclass(frozen=True)
class CnfMatrix:
    """Clause set; a clause is a tuple of literals, each deduplicated and
    canonically ordered."""

    clauses: tuple[tuple[Literal, ...], ...]

    def to_formula(self) -> Formula:
        return conj([disj([lit.to_formula() for lit in cl]) for cl in self.clauses])


DEFAULT_CLAUSE_BUDGET = 10**6


def distribute(tree, key, max_clauses: int = DEFAULT_CLAUSE_BUDGET) -> list[tuple[int, ...]]:
    """Distribution-based CNF of a tree as `nnf_tree` builds it.

    A disjunction of literals is one clause as it stands; only a
    disjunction with a conjunction below it goes through the product.
    Duplicate literals and clauses are removed; each clause's literals
    are sorted by `key`, which must give distinct literals distinct
    values, and the clauses by their literals' keys.  Exceeding
    `max_clauses` at any node raises rather than truncating.
    """

    def check(n: int):
        if n > max_clauses:
            raise ClauseBudgetExceeded(
                f"CNF clause budget of {max_clauses} exceeded", limit=max_clauses
            )

    def clauses(g) -> list[frozenset[int]]:
        if type(g) is int:
            return [frozenset((g,))]
        op, parts = g
        if op == "&":
            out = []
            for p in parts:
                out.extend(clauses(p))
                check(len(out))
            return out
        if parts and all(type(p) is int for p in parts):
            check(1)  # the product of the parts' single clauses
            return [frozenset(parts)]
        # distribute over the conjunctions of the parts, once every
        # running product of their clause counts is within budget
        pcls = [clauses(p) for p in parts]
        for n in itertools.accumulate(map(len, pcls), operator.mul):
            check(n)
        out = [frozenset()]
        for pcl in pcls:
            out = [a | b for a in out for b in pcl]
        return out

    distinct = set(clauses(tree))
    # sort by rank, so that `key` is called once per distinct literal
    lits = sorted({lit for cl in distinct for lit in cl}, key=key)
    rank = {lit: i for i, lit in enumerate(lits)}
    ranked = sorted(tuple(sorted(map(rank.__getitem__, cl))) for cl in distinct)
    return [tuple(map(lits.__getitem__, cl)) for cl in ranked]


def cnf_matrix(m: Formula, max_clauses: int = DEFAULT_CLAUSE_BUDGET) -> CnfMatrix:
    """Distribution-based CNF of a quantifier-free NNF formula.

    No definitional abbreviations: the result is equivalent, not merely
    equisatisfiable.  Exceeding `max_clauses` raises rather than
    truncating.
    """
    index: dict[Atom, int] = {}

    def number(a) -> int:
        if type(a) is not Pred and type(a) is not Eq:
            raise NotNNF(f"expected a quantifier-free NNF formula, got: {print_formula(m)}")
        return index.setdefault(a, len(index) + 1)

    tree = nnf_tree(m, number)
    lit = {s * v: Literal(a, s > 0) for a, v in index.items() for s in (1, -1)}
    clauses = distribute(tree, lambda v: lit[v].key(), max_clauses)
    return CnfMatrix(tuple(tuple(lit[v] for v in cl) for cl in clauses))


@dataclass(frozen=True)
class CnfClassification:
    horn: bool
    krom: bool


def classify_cnf(m: CnfMatrix) -> CnfClassification:
    """Horn: at most one positive literal per clause.  Krom: at most two
    literals per clause."""
    horn = all(sum(1 for lit in cl if lit.positive) <= 1 for cl in m.clauses)
    krom = all(len(cl) <= 2 for cl in m.clauses)
    return CnfClassification(horn, krom)


# ---------------------------------------------------------------------------
# formula length


def formula_len(f: Formula) -> int:
    """Symbol-occurrence count after rewriting -> and <-> as in NNF, so
    len(a -> b) = len(~a | b) = 2 + len(a) + len(b) and
    len(a <-> b) = len((~a | b) & (a | ~b)) = 5 + 2 (len(a) + len(b)).
    Each node object is measured once."""
    memo: dict[int, int] = {}  # id of a connective or quantifier node -> its length

    def walk(g) -> int:
        t = type(g)
        if t is Pred:
            return 1 + len(g.args)
        if t is Eq:
            return 3
        if t is Top or t is Bottom:
            return 1
        if id(g) not in memo:
            if t is Not:
                n = 1 + walk(g.sub)
            elif t is And or t is Or:
                n = len(g.parts) - 1 + sum(map(walk, g.parts))
            elif t is Implies:
                n = 2 + walk(g.left) + walk(g.right)
            elif t is Iff:
                n = 5 + 2 * (walk(g.left) + walk(g.right))
            else:
                n = 1 + len(g.vars) + walk(g.body)
            memo[id(g)] = n
        return memo[id(g)]

    return walk(f)

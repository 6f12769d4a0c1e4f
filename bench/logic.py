"""The benchmark's own formula trees, text form and reference solver.

Nothing here imports sepfrag: the generators build these trees, the
program only ever receives their text, and the answer checker grounds the
same trees into CNF for sympy.  Keeping the reference apart from the code
under test means a bug in sepfrag's parser, grounder or SAT core cannot
make the checker agree with a wrong verdict.

Trees are tuples:
    ("P", name, args)        atom; args are names, a name is a variable
                             exactly when an enclosing quantifier binds it
    ("=", s, t)              equation
    ("T",) / ("F",)          true / false
    ("~", f)
    ("&", parts) / ("|", parts)
    ("->", a, b) / ("<->", a, b)
    ("A", vars, f) / ("E", vars, f) / ("E>=", k, vars, f)
"""

from __future__ import annotations

import itertools
import re

TRUE = ("T",)
FALSE = ("F",)


def atom(name, *args):
    return ("P", name, tuple(args))


def conj(parts):
    parts = list(parts)
    return parts[0] if len(parts) == 1 else ("&", tuple(parts))


def disj(parts):
    parts = list(parts)
    return parts[0] if len(parts) == 1 else ("|", tuple(parts))


# ---------------------------------------------------------------------------
# text form


def render(f) -> str:
    """Text in sepfrag's input syntax, fully parenthesised."""
    op = f[0]
    if op == "P":
        return f"{f[1]}({', '.join(f[2])})"
    if op == "=":
        return f"{f[1]} = {f[2]}"
    if op == "T":
        return "true"
    if op == "F":
        return "false"
    if op == "~":
        sub = f[1]
        inner = render(sub)
        return "~" + (inner if sub[0] in ("P", "T", "F", "~") else f"({inner})")
    if op in ("&", "|"):
        return "(" + f" {op} ".join(render(p) for p in f[1]) + ")"
    if op in ("->", "<->"):
        return f"({render(f[1])} {op} {render(f[2])})"
    if op == "E>=":
        return f"(exists>={f[1]} {' '.join(f[2])}. {render(f[3])})"
    word = "forall" if op == "A" else "exists"
    return f"({word} {' '.join(f[1])}. {render(f[2])})"


_TOKEN = re.compile(r"\s*(<->|->|>=|\d+|[A-Za-z_][A-Za-z0-9_]*|[()~&|=,.])")


class _Parser:
    """Recursive descent over the grammar in the project README."""

    def __init__(self, text):
        self.toks = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"bad character at {pos}: {text[pos]!r}")
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def take(self, want=None):
        t = self.peek()
        if want is not None and t != want:
            raise ValueError(f"expected {want!r}, got {t!r}")
        self.i += 1
        return t

    def formula(self):
        if self.peek() in ("forall", "exists"):
            kind = self.take()
            k = None
            if kind == "exists" and self.peek() == ">=":
                self.take()
                k = int(self.take())
            names = []
            while self.peek() != ".":
                names.append(self.take())
            self.take(".")
            body = self.formula()
            if k is not None:
                return ("E>=", k, tuple(names), body)
            return ("A" if kind == "forall" else "E", tuple(names), body)
        left = self.imp()
        while self.peek() == "<->":
            self.take()
            left = ("<->", left, self.imp())
        return left

    def imp(self):
        left = self.nary("|", self.conj)
        if self.peek() == "->":
            self.take()
            return ("->", left, self.imp())
        return left

    def conj(self):
        return self.nary("&", self.neg)

    def nary(self, op, sub):
        parts = [sub()]
        while self.peek() == op:
            self.take()
            parts.append(sub())
        return parts[0] if len(parts) == 1 else (op, tuple(parts))

    def neg(self):
        t = self.peek()
        if t == "~":
            self.take()
            return ("~", self.neg())
        if t in ("forall", "exists"):
            return self.formula()
        if t == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if t == "true":
            self.take()
            return TRUE
        if t == "false":
            self.take()
            return FALSE
        name = self.take()
        if self.peek() == "(":
            self.take()
            args = [self.take()]
            while self.peek() == ",":
                self.take()
                args.append(self.take())
            self.take(")")
            return ("P", name, tuple(args))
        self.take("=")
        return ("=", name, self.take())


def parse(text: str):
    p = _Parser(text)
    f = p.formula()
    if p.i != len(p.toks):
        raise ValueError(f"trailing input at token {p.i}")
    return f


# ---------------------------------------------------------------------------
# grounding to CNF


class TooBig(Exception):
    """The grounding exceeds the gate cap."""


class _Circuit:
    """Hash-consed and/or gates over ground atoms, Tseitin-encoded.
    Literals are nonzero ints; True and False are folded away."""

    def __init__(self, gate_cap):
        self.n = 0
        self.atoms = {}
        self.gates = {}
        self.clauses = []
        self.gate_cap = gate_cap

    def var(self, key):
        v = self.atoms.get(key)
        if v is None:
            self.n += 1
            v = self.atoms[key] = self.n
        return v

    def and_(self, lits):
        out = set()
        for l in lits:
            if l is False:
                return False
            if l is not True:
                if -l in out:
                    return False
                out.add(l)
        if not out:
            return True
        if len(out) == 1:
            return out.pop()
        key = tuple(sorted(out))
        g = self.gates.get(key)
        if g is None:
            if len(self.gates) >= self.gate_cap:
                raise TooBig(f"more than {self.gate_cap} gates")
            self.n += 1
            g = self.gates[key] = self.n
            self.clauses.extend({-g, l} for l in key)
            self.clauses.append({g} | {-l for l in key})
        return g

    def or_(self, lits):
        return neg(self.and_(neg(l) for l in lits))

    def at_least(self, k, lits):
        # levels[j] = "at least j of the literals seen so far"
        levels = [True] + [False] * k
        for l in lits:
            for j in range(k, 0, -1):
                levels[j] = self.or_([levels[j], self.and_([levels[j - 1], l])])
        return levels[k]

    def satisfiable(self, root) -> bool:
        if root is True or root is False:
            return root
        # imported here so that sympy's memory stays out of the peak RSS
        # the benchmark reports for the timed operations
        from sympy.assumptions.cnf import EncodedCNF
        from sympy.logic.algorithms.dpll2 import dpll_satisfiable

        cnf = EncodedCNF(self.clauses + [{root}], {i: i for i in range(1, self.n + 1)})
        return dpll_satisfiable(cnf) is not False


def neg(l):
    return (not l) if isinstance(l, bool) else -l


def nnf(f, positive=True):
    """Negation normal form over &, |, ~atom, quantifiers; a negated
    counting quantifier stays negated."""
    op = f[0]
    if op in ("P", "=", "T", "F"):
        if positive:
            return f
        return {"T": FALSE, "F": TRUE}.get(op, ("~", f))
    if op == "~":
        return nnf(f[1], not positive)
    if op == "->":
        return nnf(("|", (("~", f[1]), f[2])), positive)
    if op == "<->":
        a, b = f[1], f[2]
        return nnf(("&", (("|", (("~", a), b)), ("|", (a, ("~", b))))), positive)
    if op in ("&", "|"):
        flip = op if positive else {"&": "|", "|": "&"}[op]
        return (flip, tuple(nnf(p, positive) for p in f[1]))
    if op == "E>=":
        g = ("E>=", f[1], f[2], nnf(f[3]))
        return g if positive else ("~", g)
    flip = op if positive else {"A": "E", "E": "A"}[op]
    return (flip, f[1], nnf(f[2], positive))


def free_names(f):
    """Names occurring free: variables of enclosing scopes and constants."""
    op = f[0]
    if op == "P":
        return frozenset(f[2])
    if op == "=":
        return frozenset(f[1:])
    if op in ("T", "F"):
        return frozenset()
    if op == "~":
        return free_names(f[1])
    if op in ("&", "|"):
        return frozenset().union(*(free_names(p) for p in f[1]))
    names, body = (f[2], f[3]) if op == "E>=" else (f[1], f[2])
    return free_names(body) - set(names)


def miniscope(f):
    """Push each quantified variable of an NNF sentence down to the
    smallest subformula that mentions it."""
    op = f[0]
    if op in ("&", "|"):
        return (op, tuple(miniscope(p) for p in f[1]))
    if op == "~":
        return ("~", miniscope(f[1]))
    if op == "E>=":
        return ("E>=", f[1], f[2], miniscope(f[3]))
    if op not in ("A", "E"):
        return f
    body = miniscope(f[2])
    for v in reversed(f[1]):
        body = _push(op, v, body)
    return body


def _push(q, v, body):
    if v not in free_names(body):
        return body
    same = "&" if q == "A" else "|"  # the connective the quantifier distributes over
    if body[0] == same:
        return (same, tuple(_push(q, v, p) for p in body[1]))
    if body[0] in ("&", "|"):
        inside = [p for p in body[1] if v in free_names(p)]
        outside = [p for p in body[1] if v not in free_names(p)]
        if outside:
            sub = inside[0] if len(inside) == 1 else (body[0], tuple(inside))
            return (body[0], tuple(outside) + ((q, (v,), sub),))
    return (q, (v,), body)


def _ground(c: _Circuit, f, term, equal, size):
    """Circuit literal of sentence f; a quantified subformula is grounded
    once per assignment of its free variables."""
    memo = {}
    free = {}

    def go(g, env):
        op = g[0]
        if op == "P":
            return c.var((g[1],) + tuple(term(t, env) for t in g[2]))
        if op == "=":
            return equal(term(g[1], env), term(g[2], env))
        if op == "T":
            return True
        if op == "F":
            return False
        if op == "~":
            return neg(go(g[1], env))
        if op == "&":
            return c.and_(go(p, env) for p in g[1])
        if op == "|":
            return c.or_(go(p, env) for p in g[1])
        if size is None:
            raise ValueError("quantifier inside a ground sentence")
        fv = free.get(id(g))
        if fv is None:
            fv = free[id(g)] = sorted(free_names(g) & env.keys())
        key = (id(g),) + tuple(env[v] for v in fv)
        got = memo.get(key)
        if got is not None:
            return got
        names, body = (g[2], g[3]) if op == "E>=" else (g[1], g[2])
        insts = []
        for combo in itertools.product(range(size), repeat=len(names)):
            insts.append(go(body, {**env, **dict(zip(names, combo))}))
        if op == "A":
            got = c.and_(insts)
        elif op == "E":
            got = c.or_(insts)
        else:
            got = c.at_least(g[1], insts)
        memo[key] = got
        return got

    return go(miniscope(nnf(f)), {})


def _canonical_maps(consts, size):
    """Restricted-growth constant maps: one per isomorphism class."""
    for combo in itertools.product(range(size), repeat=len(consts)):
        top = 0
        for e in combo:
            if e > top:
                break
            top = max(top, e + 1)
        else:
            yield dict(zip(consts, combo))


def ground_gates(f, size) -> int:
    """Gates in the grounding of a sentence without constants at `size`:
    a fixed piece of pure-Python work, used to calibrate machine speed."""
    c = _Circuit(gate_cap=10**6)
    _ground(c, f, lambda t, env: env[t], lambda a, b: a == b, size)
    return len(c.gates)


def has_model_of_size(f, size, gate_cap=200_000) -> bool:
    """Whether the sentence has a model with exactly `size` elements.
    Raises TooBig when a grounding exceeds the gate cap."""
    consts = sorted(free_names(nnf(f)))  # a sentence's free names are its constants
    for cmap in _canonical_maps(consts, size):
        c = _Circuit(gate_cap)

        def term(t, env):
            return env[t] if t in env else cmap[t]

        root = _ground(c, f, term, lambda a, b: a == b, size)
        if c.satisfiable(root):
            return True
    return False


def ground_satisfiable(f, gate_cap=200_000) -> bool:
    """Satisfiability of a sentence whose only quantifiers form a leading
    existential block: the block becomes fresh constants, equations become
    variables E(c, d), and equality axioms (transitivity and congruence over
    the occurring atoms) are added explicitly."""
    skolem = {}
    while f[0] == "E":
        for v in f[1]:
            skolem[v] = f"?{v}"
        f = f[2]
    c = _Circuit(gate_cap)

    def equal(a, b):
        if a == b:
            return True
        return c.var(("=",) + tuple(sorted((a, b))))

    root = _ground(c, f, lambda t, env: skolem.get(t, t), equal, None)
    if not any(key[0] == "=" for key in c.atoms):
        return c.satisfiable(root)  # no equations: distinct constants will do
    consts = sorted({t for key in c.atoms for t in key[1:]})
    for a, b, d in itertools.permutations(consts, 3):
        c.clauses.append({-equal(a, b), -equal(b, d), equal(a, d)})
    by_pred = {}
    for key in list(c.atoms):
        if key[0] != "=":
            by_pred.setdefault((key[0], len(key)), []).append(key)
    for group in by_pred.values():
        for s, t in itertools.permutations(group, 2):
            prem = {-e for e in (equal(a, b) for a, b in zip(s[1:], t[1:])) if e is not True}
            c.clauses.append(prem | {-c.var(s), c.var(t)})
    return c.satisfiable(root)

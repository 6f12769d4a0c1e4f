import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from sepfrag import search, syntax as S
from sepfrag.errors import (
    ArityMismatch,
    NotASentence,
    ParseError,
    UnexpandedCounting,
)
from sepfrag.generators import expand_counting
from sepfrag.search import enumerate_structures, equivalent_upto, scope_minimized
from sepfrag.semantics import evaluate
from sepfrag.syntax import (
    canonical_key,
    classify_cnf,
    cnf_matrix,
    formula_len,
    parse_formula,
    print_formula,
    substitute,
    to_nnf,
    to_standard_form,
)

from util import deadline, random_sentence, random_sf_sentence


# --- parsing ---------------------------------------------------------------

def test_parse_basic_quantified():
    f, sig = parse_formula("forall x. exists y. P(x) | Q(y)")
    assert isinstance(f, S.Forall)
    assert isinstance(f.body, S.Exists)
    assert sig.predicates == {"P": 1, "Q": 1}


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch) as e:
        parse_formula("P(x) & P(x, y)")
    assert e.value.symbol == "P"
    assert {e.value.seen, e.value.declared} == {1, 2}


def test_parse_intro_example_sf_shape():
    text = (
        "forall x1. exists y1 v1. forall x2. exists y2 v2. forall x3. exists y3 v3. "
        "(P(x1, x2, x3) & ~Q(y1, y3)) | P(y2, v2, v3) | ~Q(y3, v1)"
    )
    f, sig = parse_formula(text)
    sf = to_standard_form(f)
    assert len(sf.blocks) == 3
    assert sig.predicates == {"P": 3, "Q": 2}


def test_parse_counting():
    f, _ = parse_formula("exists>=2 y. P(y)")
    assert isinstance(f, S.CountingExists)
    assert f.n == 2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("forall . P(c)")
    assert e.value.position == 7


# (text, position, expected, message), recorded on the tokenizer that
# built one dataclass per token
MALFORMED = [
    ("P(a)) $", 6, "a token", "parse error at 6: unexpected '$'"),
    ("P(a) & ( $", 9, "a token", "parse error at 9: unexpected '$'"),
    ("\u1e56(a)", 0, "a token", "parse error at 0: unexpected '\u1e56'"),
    ("a - b", 2, "a token", "parse error at 2: unexpected '-'"),
    ("P(a) <- Q(a)", 5, "a token", "parse error at 5: unexpected '<'"),
    ("P(a) &\xa0Q(b) | #", 14, "a token", "parse error at 14: unexpected '#'"),
    ("P(a &", 4, "')'", "parse error at 4: expected ')'"),
    ("(P(a)", 5, "')'", "parse error at 5: expected ')'"),
    ("P()", 2, "a term", "parse error at 2: expected a term"),
    ("P(a,)", 4, "a term", "parse error at 4: expected a term"),
    ("P(forall)", 2, "a term", "parse error at 2: expected a term"),
    ("a = ", 4, "a term", "parse error at 4: expected a term"),
    ("a(b)", 1, "'='", "parse error at 1: expected '='"),
    ("exists. P(a)", 6, "at least one bound variable",
     "parse error at 6: expected at least one bound variable"),
    ("exists>=0 x. P(x)", 8, "a threshold >= 1", "parse error at 8: expected a threshold >= 1"),
    ("exists>= x. P(x)", 9, "a counting threshold",
     "parse error at 9: expected a counting threshold"),
    ("forall x", 8, "'.'", "parse error at 8: expected '.'"),
    ("exists>=2 x y", 13, "'.'", "parse error at 13: expected '.'"),
    ("forall x. exists y.", 19, "a formula", "parse error at 19: expected a formula"),
    ("P(a) -> ", 8, "a formula", "parse error at 8: expected a formula"),
    ("", 0, "a formula", "parse error at 0: expected a formula"),
    ("P(a) | Q(b)) & R(c)", 11, "end of input", "parse error at 11: expected end of input"),
    ("true = a", 5, "end of input", "parse error at 5: expected end of input"),
    ("P(a) >= 2", 5, "end of input", "parse error at 5: expected end of input"),
]


@pytest.mark.parametrize("text, position, expected, message", MALFORMED)
def test_parse_error_table(text, position, expected, message):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.position, e.value.expected, str(e.value)) == (position, expected, message)


@pytest.mark.parametrize(
    "text, position",
    [
        ("~" * 3000 + "P(a)", S.MAX_NESTING),
        ("(" * 600 + "P(a)" + ")" * 600, S.MAX_NESTING),
        ("forall x. " * 50 + "~" * 51 + "P(x)", len("forall x. ") * 50 + 50),
        (" -> ".join(["P(a)"] * 3000), len("P(a) -> ") * S.MAX_NESTING + len("P(a) ")),
        (" <-> ".join(["P(a)"] * 3000), len("P(a) <-> ") * S.MAX_NESTING + len("P(a) ")),
        ("(" * 60 + " -> ".join(["P(a)"] * 50), 60 + len("P(a) -> ") * 40 + len("P(a) ")),
    ],
    ids=[
        "negations",
        "parentheses",
        "quantifiers-and-negations",
        "implications",
        "equivalences",
        "parentheses-and-implications",
    ],
)
def test_parse_rejects_deep_nesting(text, position):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert e.value.position == position


def test_parse_accepts_nesting_at_the_limit():
    f, _ = parse_formula("~" * (S.MAX_NESTING - 1) + "(P(a))")
    for _ in range(S.MAX_NESTING - 1):
        f = f.sub
    assert f == S.Pred("P", (S.Const("a"),))


def test_parse_accepts_arrow_chains_at_the_limit():
    f, _ = parse_formula(" -> ".join(f"P(a{i})" for i in range(S.MAX_NESTING + 1)))
    for i in range(S.MAX_NESTING):
        assert f.left == S.Pred("P", (S.Const(f"a{i}"),))
        f = f.right
    assert f == S.Pred("P", (S.Const(f"a{S.MAX_NESTING}"),))
    g, _ = parse_formula(" <-> ".join(f"P(a{i})" for i in range(S.MAX_NESTING + 1)))
    for i in range(S.MAX_NESTING, 0, -1):
        assert g.right == S.Pred("P", (S.Const(f"a{i}"),))
        g = g.left
    assert g == S.Pred("P", (S.Const("a0"),))


def test_parse_scope_resolution():
    # bound names are variables, everything else lowercase is a constant
    f, sig = parse_formula("exists x. R(x, c)")
    atom = f.body
    assert atom.args[0] == S.Var("x")
    assert atom.args[1] == S.Const("c")
    assert sig.constants == {"c"}


def test_parse_precedence():
    f, _ = parse_formula("~P(c) & Q(c) | R(c) -> P(c) <-> Q(c)")
    assert isinstance(f, S.Iff)
    assert isinstance(f.left, S.Implies)
    assert isinstance(f.left.left, S.Or)
    assert isinstance(f.left.left.parts[0], S.And)
    assert isinstance(f.left.left.parts[0].parts[0], S.Not)


def test_implication_right_associative():
    f, _ = parse_formula("P(c) -> Q(c) -> R(c)")
    assert isinstance(f.right, S.Implies)


def test_rebound_variable_renamed():
    f, _ = parse_formula("(exists x. P(x)) & (exists x. Q(x))")
    names = [g.vars[0] for g in S.subformulas(f) if isinstance(g, S.Exists)]
    assert len(set(names)) == 2


# --- printing --------------------------------------------------------------

def test_print_negated_atom():
    f, _ = parse_formula("~P(x)")
    assert print_formula(f) == "~P(x)"


def test_print_quantifier_scope_stretches_right():
    f, _ = parse_formula("forall x. P(x) | Q(x)")
    s = print_formula(f)
    assert s == "forall x. P(x) | Q(x)"
    g, _ = parse_formula(s)
    assert canonical_key(f) == canonical_key(g)


def test_print_quantifier_inside_connective_parenthesized():
    f, _ = parse_formula("(forall x. P(x)) & Q(c)")
    s = print_formula(f)
    assert canonical_key(parse_formula(s)[0]) == canonical_key(f)


def test_roundtrip_random(subtests=None):
    rng = random.Random(3)
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        printed = print_formula(f)
        g, _ = parse_formula(printed)
        assert canonical_key(f) == canonical_key(g), printed


def test_canonical_key_alpha_invariant():
    f, _ = parse_formula("exists x. P(x)")
    g, _ = parse_formula("exists w. P(w)")
    assert canonical_key(f) == canonical_key(g)
    assert print_formula(f) != print_formula(g)


def _unshared(f):
    """An equal tree that shares no quantifier node with f."""
    if isinstance(f, (S.And, S.Or)):
        return type(f)(tuple(_unshared(p) for p in f.parts))
    if isinstance(f, S.Not):
        return S.Not(_unshared(f.sub))
    if isinstance(f, (S.Implies, S.Iff)):
        return type(f)(_unshared(f.left), _unshared(f.right))
    if isinstance(f, S.CountingExists):
        return S.CountingExists(f.n, f.vars, _unshared(f.body))
    if isinstance(f, (S.Forall, S.Exists)):
        return type(f)(f.vars, _unshared(f.body))
    return f


def test_shared_quantifier_node_prints_like_a_copy():
    # one quantifier object at two positions gets binder names at each
    # position, as two equal objects would
    a = S.Exists(("y",), S.Pred("P", (S.Var("y"),)))
    b = _unshared(a)
    assert a == b and a is not b
    assert canonical_key(S.And((a, a))) == canonical_key(S.And((a, b)))
    rng = random.Random(71)
    for _ in range(60):
        f, _ = random_sentence(rng, with_eq=True)
        shared = S.And((f, S.Or((S.Not(f), f))))
        copied = S.And((f, S.Or((S.Not(_unshared(f)), _unshared(f)))))
        assert canonical_key(shared) == canonical_key(copied)
        assert print_formula(shared) == print_formula(copied)
        assert canonical_key(parse_formula(print_formula(shared))[0]) == canonical_key(copied)


# --- NNF -------------------------------------------------------------------

def test_nnf_de_morgan():
    f, _ = parse_formula("~(P(x) & Q(y))")
    assert print_formula(to_nnf(f)) == "~P(x) | ~Q(y)"


def test_nnf_biconditional_shape():
    f, _ = parse_formula("P(x) <-> Q(y)")
    assert print_formula(to_nnf(f)) == "(~P(x) | Q(y)) & (P(x) | ~Q(y))"


def test_nnf_rejects_counting():
    # reached by the walk itself: at the top, under a negation, and as a
    # conjunct after an atom
    for text in ("exists>=2 y. P(y)", "~(exists>=2 y. P(y))", "P(a) & (exists>=2 y. P(y))"):
        f, _ = parse_formula(text)
        with pytest.raises(UnexpandedCounting):
            to_nnf(f)


def test_nnf_equivalent_on_random_formulas():
    rng = random.Random(17)
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        v = equivalent_upto(f, to_nnf(f), 3)
        assert v.equal


def _rebuilding_nnf(f):
    """`to_nnf` rebuilding every node it passes, the rewrite before NNF
    input came back unchanged: the reference of the tests below."""
    both = {}

    def pair(g):
        if id(g) not in both:
            both[id(g)] = (pos(g), neg(g))
        return both[id(g)]

    def pos(g):
        if isinstance(g, S.Not):
            return neg(g.sub)
        if isinstance(g, S.Implies):
            return S.disj([neg(g.left), pos(g.right)])
        if isinstance(g, S.Iff):
            (pl, nl), (pr, nr) = pair(g.left), pair(g.right)
            return S.conj([S.disj([nl, pr]), S.disj([pl, nr])])
        return S.rebuild(g, [pos(k) for k in S.children(g)])

    def neg(g):
        if isinstance(g, S.Top):
            return S.FALSE
        if isinstance(g, S.Bottom):
            return S.TRUE
        if isinstance(g, (S.Pred, S.Eq)):
            return S.Not(g)
        if isinstance(g, S.Not):
            return pos(g.sub)
        if isinstance(g, S.And):
            return S.disj([neg(p) for p in g.parts])
        if isinstance(g, S.Or):
            return S.conj([neg(p) for p in g.parts])
        if isinstance(g, S.Implies):
            return S.conj([pos(g.left), neg(g.right)])
        if isinstance(g, S.Iff):
            (pl, nl), (pr, nr) = pair(g.left), pair(g.right)
            return S.disj([S.conj([pl, nr]), S.conj([nl, pr])])
        if isinstance(g, S.Forall):
            return S.Exists(g.vars, neg(g.body))
        return S.Forall(g.vars, neg(g.body))

    return pos(f)


@pytest.mark.parametrize(
    "text",
    [
        "(P(c) | ~Q(d) | c = d) & (~P(c) | R(c, e)) & ~(d = e) & Q(e)",
        "forall x. exists y. forall z. (~P(x) | R(y, z)) & (x = z | ~Q(y) | true)",
    ],
)
def test_nnf_returns_nnf_input_itself(text):
    f, _ = parse_formula(text)
    assert to_nnf(f) is f


def test_nnf_matches_the_rebuilding_rewrite():
    # each result is == to the reference, and a second rewrite returns it
    # unchanged; random_boolean shares its leaves, so inputs are DAGs too
    rng = random.Random(29)
    fixed = [parse_formula(t)[0] for t in ("~true | ~~P(c)", "forall x. ~false & ~(x = c)")]
    for i in range(300):
        if i < len(fixed):
            f = fixed[i]
        elif rng.random() < 0.5:
            f, _ = random_sentence(rng, with_eq=True)
        else:
            f, _ = random_sf_sentence(rng, with_eq=True)
        g = to_nnf(f)
        assert g == _rebuilding_nnf(f), print_formula(f)
        assert to_nnf(g) is g


# --- standard form ---------------------------------------------------------

def test_standard_form_hoists_existential_first():
    f, _ = parse_formula("(forall x. P(x)) & (exists y. Q(y))")
    sf = to_standard_form(f)
    assert sf.leading and sf.blocks[0][0]


def test_standard_form_identity_case():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    sf = to_standard_form(f)
    assert sf.leading == ()
    assert sf.blocks == ((("x",), ("y",)),)


def test_standard_form_drops_unused_prefix_vars():
    f, _ = parse_formula("forall x. P(c)")
    sf = to_standard_form(f)
    assert sf.leading == () and sf.blocks == ()


def test_standard_form_requires_sentence():
    f = S.Pred("P", (S.Var("x"),))
    with pytest.raises(NotASentence):
        to_standard_form(f)


def test_standard_form_equivalence_random():
    rng = random.Random(29)
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        sf = to_standard_form(f)
        assert sf.check()
        assert equivalent_upto(f, sf.to_formula(), 3).equal


def test_checker_rejects_broken_shapes():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    sf = to_standard_form(f)
    # matrix must mention every prefix variable
    broken = S.StandardForm(sf.leading, sf.blocks, S.Pred("P", (S.Var("x"),)))
    assert not broken.check()
    # matrix must be quantifier-free NNF
    broken2 = S.StandardForm((), (), parse_formula("~(P(c) & Q(c))")[0])
    assert not broken2.check()


# --- CNF -------------------------------------------------------------------

def test_cnf_single_distribution():
    f, _ = parse_formula("P(c) | Q(d) & R(e)")
    m = cnf_matrix(f)
    assert len(m.clauses) == 2
    assert all(len(cl) == 2 for cl in m.clauses)


def test_cnf_identity_on_cnf_input():
    f, _ = parse_formula("(P(c) | Q(d)) & (~P(c) | R(e))")
    m = cnf_matrix(f)
    assert len(m.clauses) == 2


def test_cnf_equivalence_random():
    rng = random.Random(41)
    from util import random_atom, random_boolean, small_signature

    for _ in range(100):
        sig = small_signature(rng)
        if not sig.constants:
            sig.constants.add("c")
        leaves = [random_atom(rng, sig, [], with_eq=True) for _ in range(3)]
        f = to_nnf(random_boolean(rng, leaves, allow_imp=False))
        m = cnf_matrix(f)
        assert equivalent_upto(f, m.to_formula(), 3).equal


def test_cnf_budget():
    from sepfrag.errors import ClauseBudgetExceeded

    parts = []
    for i in range(8):
        parts.append(S.Or((S.Pred("P", (S.Const(f"a{i}"),)), S.Pred("P", (S.Const(f"b{i}"),)))))
    f = S.to_nnf(S.Or((S.And(tuple(parts)), S.And(tuple(parts)))))
    with pytest.raises(ClauseBudgetExceeded):
        cnf_matrix(f, max_clauses=10)


def _by_var(v):
    return (abs(v), v < 0)


def test_distribute_flat_clause_is_one_sorted_clause():
    assert S.distribute(("|", [3, -1, 3, 2]), _by_var) == [(-1, 2, 3)]  # repeated literal
    assert S.distribute(("|", [2, -1, 1]), _by_var) == [(1, -1, 2)]  # tautology, kept
    for perm in ([3, -1, 2], [2, 3, -1]):
        assert S.distribute(("|", perm), _by_var) == [(-1, 2, 3)]
    assert S.distribute(("&", [("|", [2, 1]), ("|", [1, 2, 1])]), _by_var) == [(1, 2)]


def test_distribute_disjunction_over_conjunction():
    tree = ("|", [-1, ("&", [3, ("|", [2, 4])]), 5])
    assert S.distribute(tree, _by_var) == [(-1, 2, 4, 5), (-1, 3, 5)]


def test_classify_cnf():
    m1 = cnf_matrix(parse_formula("(~P(c) | Q(c)) & ~Q(c)")[0])
    c1 = classify_cnf(m1)
    assert c1.horn and c1.krom
    m2 = cnf_matrix(parse_formula("P(c) | Q(c) | R(c)")[0])
    c2 = classify_cnf(m2)
    assert not c2.horn and not c2.krom


# --- substitution ----------------------------------------------------------

def test_substitute_free_occurrence():
    f, _ = parse_formula("exists y. R(x, y)")  # x parses as a constant
    g = S.Pred("P", (S.Var("x"),))
    assert substitute(g, {"x": S.Const("c")}) == S.Pred("P", (S.Const("c"),))


def test_substitute_bound_untouched():
    f = S.Exists(("x",), S.Pred("P", (S.Var("x"),)))
    assert substitute(f, {"x": S.Const("c")}) == f


def test_substitute_capture_avoiding():
    # exists y. R(x, y) with x := y must rename the binder
    f = S.Exists(("y",), S.Pred("R", (S.Var("x"), S.Var("y"))))
    g = substitute(f, {"x": S.Var("y")})
    assert g.vars[0] != "y"
    inner = g.body
    assert inner.args[0] == S.Var("y")
    assert inner.args[1] == S.Var(g.vars[0])
    # semantic check: result means "some second component differs-or-not from y"
    a_free = S.Exists(("w",), S.Pred("R", (S.Var("y"), S.Var("w"))))
    assert equivalent_upto(g, a_free, 2).equal


QUANTIFIERS = (S.Forall, S.Exists, S.CountingExists)


def _binders(f):
    """One entry per binder occurrence: `_preorder` visits every position."""
    return [v for g in _preorder(f) if isinstance(g, QUANTIFIERS) for v in g.vars]


def test_substitute_agrees_with_shifted_assignment():
    # the open body of a random quantifier, with x := y drawn mostly from
    # the names its inner binders use, so that captures really happen
    rng = random.Random(71)
    captures = 0
    for _ in range(100):
        f, sig = random_sentence(rng, with_eq=True, max_quant_depth=3)
        quants = [g for g in S.subformulas(f) if isinstance(g, QUANTIFIERS)]
        if not quants:
            continue
        g = quants[0].body
        inner = _binders(g)
        # a binder below which a free variable of g occurs can capture it
        traps = [
            (v, h)
            for h in S.subformulas(g)
            if isinstance(h, QUANTIFIERS)
            for v in sorted(S.free_vars(h) & S.free_vars(g))
        ]
        if traps and rng.random() < 0.8:
            x, h = rng.choice(traps)
            y = rng.choice(h.vars)
        else:
            x = rng.choice(sorted(S.free_vars(g)) + ["u"])
            y = rng.choice(inner + ["u", x])
        out = substitute(g, {x: S.Var(y)})
        captures += _binders(out) != inner
        names = sorted(S.free_vars(g) | {y})
        for size in (1, 2):
            for m in enumerate_structures(sig, size):
                for elems in itertools.product(m.universe, repeat=len(names)):
                    beta = dict(zip(names, elems))
                    shifted = {**beta, x: beta[y]}
                    assert evaluate(m, beta, out) == evaluate(m, shifted, g), (g, x, y)
    assert captures >= 25


def test_rename_apart_binds_each_name_once():
    # conjunctions and nestings of open bodies reuse the binder names
    # x, y, z, w and leave some of them free
    rng = random.Random(73)
    for _ in range(200):
        parts = []
        for _ in range(4):
            f, _ = random_sentence(rng, with_eq=True, max_quant_depth=3)
            quants = [g for g in S.subformulas(f) if isinstance(g, QUANTIFIERS)]
            parts.append(rng.choice(quants).body if quants else f)
        h = S.And(tuple(parts[:3]))
        if rng.random() < 0.5:
            h = S.Forall(("x",), S.Or((h, S.Exists(("x", "y"), parts[3]))))
        reserved = set(rng.sample(["x", "y", "z", "c"], 2))
        out = S.rename_apart(h, reserved=reserved)
        names = _binders(out)
        assert len(names) == len(set(names))
        assert S.free_vars(out) == S.free_vars(h)
        assert not set(names) & (S.free_vars(h) | S.constants_of(h) | reserved)
        assert canonical_key(out) == canonical_key(h)


def test_rename_apart_returns_input_when_nothing_clashes():
    f, _ = parse_formula("forall x. (exists y. P(x, y)) & (exists z. Q(z, c))")
    assert S.rename_apart(f) is f
    assert S.rename_apart(f, reserved={"w", "d"}) is f
    assert S.rename_apart(f, reserved={"y"}) is not f


def test_parse_renames_clashing_binders_as_before():
    x1, a1 = S.Var("x#1"), S.Var("a#1")
    f, _ = parse_formula("exists x x. P(x)")
    assert f == S.Exists(("x", "x#1"), S.Pred("P", (x1,)))
    g, _ = parse_formula("P(a) & (exists a. Q(a))")
    assert g == S.And((S.Pred("P", (S.Const("a"),)), S.Exists(("a#1",), S.Pred("Q", (a1,)))))


def test_shared_quantifier_node_is_renamed():
    x = S.Var("x")
    q = S.Exists(("x",), S.Pred("P", (x,)))
    out = S.rename_apart(S.And((q, q)))
    assert out == S.And((q, S.Exists(("x#1",), S.Pred("P", (S.Var("x#1"),)))))
    assert S.rename_apart(S.And((q, S.Pred("Q", (x,))))) == S.And(
        (S.Exists(("x#1",), S.Pred("P", (S.Var("x#1"),))), S.Pred("Q", (x,)))
    )


def test_parses_share_interned_names():
    f, _ = parse_formula("P(c17)")
    g, _ = parse_formula(" P( c17 )")
    assert f.args[0].name is g.args[0].name
    assert f.name is g.name


# SHA-1 of canonical_key of the parse of each frozen benchmark sentence,
# recorded on the tokenizer that built one dataclass per token
FROZEN = {
    "hard1": "2fa1c62ea2c9299a32ec418ab29447301e17f657",
    "domino1": "042860d586919edd0366c2f93709f0acc0f14326",
    "hierarchy12": "5d1620cb842a56c79cb2c96c1ab67de6e5e1fe91",
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_benchmark_sentences_parse_as_before(name):
    text = (Path(__file__).resolve().parent.parent / "bench" / "data" / f"{name}.txt").read_text()
    f, _ = parse_formula(text.strip())
    assert hashlib.sha1(canonical_key(f).encode()).hexdigest() == FROZEN[name]


# --- traversal -------------------------------------------------------------

def _with_every_node_type(f):
    """f under a counting quantifier and beside Top and Bottom, so that
    one tree holds every node type."""
    u = S.Var("u")
    counted = S.CountingExists(2, ("u",), S.Or((f, S.Eq(u, u))))
    return S.And((counted, S.Implies(S.TRUE, S.Not(S.FALSE))))


def _preorder(f):
    """Recursive pre-order, the reference for the iterative one."""
    if isinstance(f, S.Not):
        kids = [f.sub]
    elif isinstance(f, (S.And, S.Or)):
        kids = list(f.parts)
    elif isinstance(f, (S.Implies, S.Iff)):
        kids = [f.left, f.right]
    elif isinstance(f, (S.Forall, S.Exists, S.CountingExists)):
        kids = [f.body]
    else:
        kids = []
    out = [f]
    for k in kids:
        out += _preorder(k)
    return out


def test_children_and_rebuild_invert_each_other():
    rng = random.Random(71)
    seen = set()
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        for g in S.subformulas(_with_every_node_type(f)):
            seen.add(type(g))
            kids = S.children(g)
            assert S.rebuild(g, kids) == g
            others = [S.Pred("K", (S.Const(f"k{i}"),)) for i in range(len(kids))]
            h = S.rebuild(g, others)
            assert type(h) is type(g)
            assert S.children(h) == tuple(others)
            assert S.rebuild(h, kids) == g
            if not kids:
                assert h is g
    assert len(seen) == 12


def test_subformulas_is_preorder():
    # the reference pre-order with repeated node objects dropped
    rng = random.Random(73)
    x, c = S.Var("x"), S.Const("c")
    q, a = S.Exists(("x",), S.Pred("P", (x,))), S.Pred("Q", (c,))
    shared = S.And((S.Or((a, q)), S.Not(a), q))
    drawn = [random_sentence(rng, with_eq=True)[0] for _ in range(500)]
    inputs = [shared] + [_with_every_node_type(f) for f in drawn]
    for h in inputs:
        expected = list({id(g): None for g in _preorder(h)})
        assert [id(g) for g in S.subformulas(h)] == expected
    assert len(list(S.subformulas(shared))) == 6 < len(_preorder(shared))


# Reference walkers that visit every occurrence of a node, as a tree walk
# does: the walkers that memoize by node must agree with them.


def _tree_free_vars(f):
    if isinstance(f, (S.Top, S.Bottom)):
        return frozenset()
    if isinstance(f, (S.Pred, S.Eq)):
        args = f.args if isinstance(f, S.Pred) else (f.left, f.right)
        return frozenset(t.name for t in args if isinstance(t, S.Var))
    if isinstance(f, S.Not):
        return _tree_free_vars(f.sub)
    if isinstance(f, (S.And, S.Or)):
        out = frozenset()
        for p in f.parts:
            out |= _tree_free_vars(p)
        return out
    if isinstance(f, (S.Implies, S.Iff)):
        return _tree_free_vars(f.left) | _tree_free_vars(f.right)
    return _tree_free_vars(f.body) - frozenset(f.vars)


def _tree_names_in(f):
    binders, free, consts = [], set(), set()

    def walk(g, bound):
        if isinstance(g, (S.Pred, S.Eq)):
            for a in g.args if isinstance(g, S.Pred) else (g.left, g.right):
                if isinstance(a, S.Const):
                    consts.add(a.name)
                elif a.name not in bound:
                    free.add(a.name)
            return
        if isinstance(g, QUANTIFIERS):
            binders.extend(g.vars)
            bound = bound.union(g.vars)
        for k in S.children(g):
            walk(k, bound)

    walk(f, frozenset())
    return binders, free, consts


def _tree_formula_len(f):
    if isinstance(f, (S.Top, S.Bottom)):
        return 1
    if isinstance(f, S.Pred):
        return 1 + len(f.args)
    if isinstance(f, S.Eq):
        return 3
    if isinstance(f, S.Not):
        return 1 + _tree_formula_len(f.sub)
    if isinstance(f, (S.And, S.Or)):
        return (len(f.parts) - 1) + sum(_tree_formula_len(p) for p in f.parts)
    if isinstance(f, S.Implies):
        return _tree_formula_len(S.Or((S.Not(f.left), f.right)))
    if isinstance(f, S.Iff):
        return _tree_formula_len(
            S.And((S.Or((S.Not(f.left), f.right)), S.Or((f.left, S.Not(f.right)))))
        )
    return 1 + len(f.vars) + _tree_formula_len(f.body)


def _tree_prenex(f):
    if isinstance(f, (S.Top, S.Bottom, S.Pred, S.Eq, S.Not)):
        return [], f
    if isinstance(f, (S.Forall, S.Exists)):
        pre, mat = _tree_prenex(f.body)
        kind = "forall" if isinstance(f, S.Forall) else "exists"
        return [(kind, list(f.vars))] + pre, mat
    parts = [_tree_prenex(p) for p in f.parts]
    prefixes = [pre for pre, _ in parts]
    merged = []
    while any(prefixes):
        for kind in ("exists", "forall"):
            block = []
            for pre in prefixes:
                while pre and pre[0][0] == kind:
                    block.extend(pre.pop(0)[1])
            if block:
                merged.append((kind, block))
    return merged, type(f)(tuple(mat for _, mat in parts))


def _tree_standard_form(f):
    g = to_nnf(f)
    binders, free, consts = _tree_names_in(g)
    prefix, matrix = _tree_prenex(S._apart(g, binders, free, consts, set()))
    fv = _tree_free_vars(matrix) if prefix else frozenset()
    cleaned = []
    for kind, names in prefix:
        kept = [v for v in names if v in fv]
        if not kept:
            continue
        if cleaned and cleaned[-1][0] == kind:
            cleaned[-1][1].extend(kept)
        else:
            cleaned.append((kind, kept))
    leading = tuple(cleaned.pop(0)[1]) if cleaned and cleaned[0][0] == "exists" else ()
    names = [tuple(v) for _, v in cleaned] + [()]
    return S.StandardForm(leading, tuple(zip(names[0::2], names[1::2])), matrix)


def _iff_nest(rng):
    """A random sentence and closed parts of others nested under <->, so
    that `to_nnf` shares each operand between its two polarities."""
    f = random_sentence(rng, with_eq=True)[0]
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(_preorder(random_sentence(rng, with_eq=True)[0]))
        free = tuple(sorted(_tree_free_vars(g)))
        g = S.Forall(free, g) if free else g  # a part, closed
        f = S.Iff(f, g) if rng.random() < 0.5 else S.Iff(g, f)
    return f


def _assert_walks_agree(g):
    assert S.free_vars(g) == _tree_free_vars(g)
    assert S.names_in(g) == _tree_names_in(g)
    assert formula_len(g) == _tree_formula_len(g)
    if not S.is_nnf(g):
        return
    pre, mat = S._prenex(g)
    ref_pre, ref_mat = _tree_prenex(g)
    assert [(k, list(v)) for k, v in pre] == ref_pre and mat == ref_mat
    if not pre:
        assert mat is g  # a quantifier-free node is its own matrix


def test_walks_agree_with_the_tree_walks():
    rng = random.Random(79)
    for i in range(300):
        f = random_sentence(rng, with_eq=True)[0] if i % 2 else random_sf_sentence(rng)[0]
        _assert_walks_agree(f)
        _assert_walks_agree(to_nnf(f))
        assert to_standard_form(f) == _tree_standard_form(f)


def test_walks_on_shared_nnf_agree_with_the_tree_walks():
    rng = random.Random(83)
    shared = 0
    for _ in range(150):
        f = _iff_nest(rng)
        g = to_nnf(f)
        shared += len(list(S.subformulas(g))) < len(_preorder(g))
        assert formula_len(f) == _tree_formula_len(f)
        _assert_walks_agree(g)
        assert S.constants_of(g) == _tree_names_in(g)[2]
        sf = to_standard_form(f)
        assert sf == _tree_standard_form(f)
        assert print_formula(sf.to_formula()) == print_formula(_tree_standard_form(f).to_formula())
    assert shared == 150


def test_equality_as_predicate_picks_first_free_name():
    f, sig = parse_formula("c = d | E(c) | E1(d, c)")
    g, name = S.equality_as_predicate(f, sig.predicates)
    assert name == "E2"
    assert g == S.Or((S.Pred("E2", (S.Const("c"), S.Const("d"))),) + f.parts[1:])
    assert S.equality_as_predicate(f, ())[1] == "E"
    assert S.equality_as_predicate(f, {"E"})[1] == "E1"


# --- the one rewrite -------------------------------------------------------

def _exists_chain(n):
    """to_nnf of (exists y. P(y) & Q(a0)) <-> ... <-> (exists y. P(y) &
    Q(a<n-1>)): a DAG whose every operand occurs 2^(n-1) times or so."""
    text = " <-> ".join(f"(exists y. P(y) & Q(a{i}))" for i in range(n))
    return to_nnf(parse_formula(text)[0])


def test_rewrite_runs_the_rule_once_per_node_and_binding():
    g = _exists_chain(8)
    nodes = list(S.subformulas(g))
    assert len(nodes) < len(_preorder(g))  # a DAG
    calls = Counter()

    def count(h, env, walk):
        calls[id(h), id(env)] += 1

    assert S.rewrite(g, count) is g  # a rule that changes nothing
    assert set(calls.values()) == {1} and len(calls) == len(nodes)

    # under each quantifier the body is walked under two bindings
    calls.clear()
    inner = ({"y": 1}, {"y": 2})

    def both(h, env, walk):
        calls[id(h), id(env)] += 1
        if type(h) is S.Exists or type(h) is S.Forall:
            return S.And(tuple(walk(h.body, e) for e in inner))
        if type(h) is S.Pred and env and h.args[0] == S.Var("y"):
            return S.Pred(h.name, (S.Const(f"b{env['y']}"),))

    out = S.rewrite(g, both)
    assert set(calls.values()) == {1}
    below = {id(h) for q in nodes if type(q) in (S.Exists, S.Forall) for h in S.subformulas(q.body)}
    assert len(calls) == len(nodes) + len(below)  # nodes below a quantifier under both bindings
    assert len(list(S.subformulas(out))) < len(_preorder(out))  # sharing kept
    assert S.rewrite(out, both) is out  # quantifier-free: nothing to rewrite


def test_scope_minimized_is_linear_on_shared_nnf():
    g = _exists_chain(18)
    with deadline(1):
        minimized = scope_minimized(g)
    assert len(list(S.subformulas(minimized))) < 20 * 18


def test_expand_counting_is_linear_on_shared_nnf():
    g = _exists_chain(18)
    counted = S.CountingExists(2, ("z",), S.Pred("R", (S.Var("z"),)))
    with deadline(1):
        out = expand_counting(S.Forall(("x",), S.And((g, counted))))
    assert out.sites == 1 and not out.breaks_separation
    assert out.formula.body.parts[0] is g  # nothing to expand in the DAG


def test_expand_counting_expands_a_shared_counting_node_once():
    counted = S.CountingExists(2, ("z",), S.Pred("R", (S.Var("z"),)))
    out = expand_counting(S.And((counted, S.Or((counted, S.Pred("P", (S.Const("c"),)))))))
    assert out.sites == 1  # node objects, not occurrences
    assert out.formula.parts[0] is out.formula.parts[1].parts[0]


# Reference walks of `scope_minimized` and `expand_counting` that rebuild
# every occurrence, as they did before they became rules of `rewrite`.


def _tree_scope_minimized(f):
    memo = {}

    def walk(g):
        if isinstance(g, (S.Forall, S.Exists)):
            return search._block(type(g), g.vars, walk(g.body), memo)
        return S.rebuild(g, [walk(k) for k in S.children(g)])

    return walk(f)


def _tree_expand_counting(f):
    survey = S.survey(f)
    if not survey.counting:
        return f, False, 0
    fresh = S.FreshNames(survey.names())
    introduced = set()
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
            S.substitute(body, {v: S.Var(nv) for v, nv in zip(g.vars, grp)})
            for grp in groups
        ]
        diseqs = []
        for a, b in itertools.combinations(groups, 2):
            diseqs.append(S.disj([S.Not(S.Eq(S.Var(u), S.Var(w))) for u, w in zip(a, b)]))
        return S.Exists(tuple(v for grp in groups for v in grp), S.conj(copies + diseqs))

    out = walk(f)
    uni = {v for g in S.subformulas(out) if type(g) is S.Forall for v in g.vars}
    breaks = any((av := S.atom_vars(a)) & introduced and av & uni for a in S.atoms_iter(out))
    return out, breaks, sites


def _counting(rng, f):
    """f with about half of its exists blocks turned into counting ones."""
    if isinstance(f, S.Exists) and rng.random() < 0.5:
        return S.CountingExists(rng.randint(1, 3), f.vars, _counting(rng, f.body))
    return S.rebuild(f, [_counting(rng, k) for k in S.children(f)])


def test_rules_agree_with_the_tree_walks():
    # equal as trees, so printed alike; every tenth input is a shared NNF
    rng = random.Random(89)
    counted = 0
    for i in range(2000):
        f = random_sentence(rng, with_eq=True)[0] if i % 2 else random_sf_sentence(rng)[0]
        g = to_nnf(_iff_nest(rng)) if i % 10 == 0 else to_nnf(f) if i % 4 == 1 else f
        assert scope_minimized(g) == _tree_scope_minimized(g)
        h = _counting(rng, f)
        out = expand_counting(h)
        assert (out.formula, out.breaks_separation, out.sites) == _tree_expand_counting(h)
        counted += out.sites > 0
    assert counted > 500


# --- length ----------------------------------------------------------------

def test_len_atom():
    assert formula_len(S.Pred("P", (S.Var("x"),))) == 2


def test_len_implication_identity():
    f, _ = parse_formula("P(x) -> Q(y)")
    g, _ = parse_formula("~P(x) | Q(y)")
    assert formula_len(f) == formula_len(g)


def test_len_biconditional_identity():
    f, _ = parse_formula("P(x) <-> Q(y)")
    g, _ = parse_formula("(~P(x) | Q(y)) & (P(x) | ~Q(y))")
    assert formula_len(f) == formula_len(g)


def test_len_identities_random():
    rng = random.Random(53)
    for _ in range(50):
        f, _ = random_sentence(rng, with_eq=True)
        g, _ = random_sentence(rng, with_eq=True)
        assert formula_len(S.Implies(f, g)) == formula_len(S.Or((S.Not(f), g)))
        assert formula_len(S.Iff(f, g)) == formula_len(
            S.And((S.Or((S.Not(f), g)), S.Or((f, S.Not(g)))))
        )


def test_sf_generator_produces_separated_sentences():
    rng = random.Random(61)
    for _ in range(40):
        f, _ = random_sf_sentence(rng)
        sf = to_standard_form(f)
        assert sf.check()

import itertools
import random

import pytest

from sepfrag import syntax as S
from sepfrag.errors import (
    ArityMismatch,
    NotASentence,
    ParseError,
    UnexpandedCounting,
)
from sepfrag.search import enumerate_structures, equivalent_upto
from sepfrag.semantics import evaluate
from sepfrag.syntax import (
    alpha_eq,
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

from util import random_sentence, random_sf_sentence


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
    assert alpha_eq(f, g)


def test_print_quantifier_inside_connective_parenthesized():
    f, _ = parse_formula("(forall x. P(x)) & Q(c)")
    s = print_formula(f)
    assert alpha_eq(parse_formula(s)[0], f)


def test_roundtrip_random(subtests=None):
    rng = random.Random(3)
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        printed = print_formula(f)
        g, _ = parse_formula(printed)
        assert alpha_eq(f, g), printed


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
    assert alpha_eq(S.And((a, a)), S.And((a, b)))
    rng = random.Random(71)
    for _ in range(60):
        f, _ = random_sentence(rng, with_eq=True)
        shared = S.And((f, S.Or((S.Not(f), f))))
        copied = S.And((f, S.Or((S.Not(_unshared(f)), _unshared(f)))))
        assert canonical_key(shared) == canonical_key(copied)
        assert print_formula(shared) == print_formula(copied)
        assert alpha_eq(parse_formula(print_formula(shared))[0], copied)


# --- NNF -------------------------------------------------------------------

def test_nnf_de_morgan():
    f, _ = parse_formula("~(P(x) & Q(y))")
    assert print_formula(to_nnf(f)) == "~P(x) | ~Q(y)"


def test_nnf_biconditional_shape():
    f, _ = parse_formula("P(x) <-> Q(y)")
    assert print_formula(to_nnf(f)) == "(~P(x) | Q(y)) & (P(x) | ~Q(y))"


def test_nnf_rejects_counting():
    f, _ = parse_formula("exists>=2 y. P(y)")
    with pytest.raises(UnexpandedCounting):
        to_nnf(f)


def test_nnf_equivalent_on_random_formulas():
    rng = random.Random(17)
    for _ in range(100):
        f, _ = random_sentence(rng, with_eq=True)
        v = equivalent_upto(f, to_nnf(f), 3)
        assert v.equal


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
    return [v for g in S.subformulas(f) if isinstance(g, QUANTIFIERS) for v in g.vars]


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
        assert alpha_eq(out, h)


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
    rng = random.Random(73)
    for _ in range(500):
        f, _ = random_sentence(rng, with_eq=True)
        h = _with_every_node_type(f)
        assert [id(g) for g in S.subformulas(h)] == [id(g) for g in _preorder(h)]


def test_equality_as_predicate_picks_first_free_name():
    f, sig = parse_formula("c = d | E(c) | E1(d, c)")
    g, name = S.equality_as_predicate(f, sig.predicates)
    assert name == "E2"
    assert g == S.Or((S.Pred("E2", (S.Const("c"), S.Const("d"))),) + f.parts[1:])
    assert S.equality_as_predicate(f, ())[1] == "E"
    assert S.equality_as_predicate(f, {"E"})[1] == "E1"


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

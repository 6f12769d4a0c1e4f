import itertools
import random

import pytest

from sepfrag import syntax as S
from sepfrag.errors import ConstantOutsideSubset, SignatureMismatch, UnassignedVariable
from sepfrag.search import GroundSpace, enumerate_structures, find_model
from sepfrag.semantics import Structure, evaluate, models, substructure
from sepfrag.syntax import parse_formula

from util import first_disagreement, random_atom, random_boolean, random_sentence, small_signature


def P(name, *args):
    return S.Pred(name, tuple(S.Var(a) if a.islower() and len(a) == 1 else S.Const(a) for a in args))


def test_evaluate_simple_model():
    a = Structure(("a", "b"), {}, {"P": frozenset({("a",)})})
    f, _ = parse_formula("exists x. P(x)")
    assert evaluate(a, {}, f)
    g, _ = parse_formula("forall x. P(x)")
    assert not evaluate(a, {}, g)


def test_equality_is_identity():
    a = Structure(("a",), {"c": "a"}, {})
    f, _ = parse_formula("c = c")
    assert evaluate(a, {}, f)


def test_unassigned_variable_raises():
    a = Structure(("a",), {}, {"P": frozenset()})
    with pytest.raises(UnassignedVariable):
        evaluate(a, {}, S.Pred("P", (S.Var("x"),)))


def test_missing_predicate_raises():
    a = Structure(("a",), {}, {})
    with pytest.raises(SignatureMismatch):
        evaluate(a, {}, S.Pred("P", (S.Const("c"),)))


def test_counting_semantics():
    a = Structure(("a", "b", "c"), {}, {"P": frozenset({("a",), ("b",)})})
    assert evaluate(a, {}, S.CountingExists(2, ("x",), P("P", "x")))
    assert not evaluate(a, {}, S.CountingExists(3, ("x",), P("P", "x")))


def test_truth_table_agreement_ground():
    # ground quantifier-free formulas match a direct truth-table expansion
    rng = random.Random(11)
    atoms = [S.Pred("A", (S.Const("c"),)), S.Pred("B", (S.Const("c"),)),
             S.Pred("C", (S.Const("c"),)), S.Pred("D", (S.Const("c"),))]
    from util import random_boolean

    for _ in range(60):
        f = random_boolean(rng, atoms)
        for bits in itertools.product([False, True], repeat=4):
            table = {
                name: frozenset({("a",)}) if on else frozenset()
                for name, on in zip("ABCD", bits)
            }
            a = Structure(("a",), {"c": "a"}, table)
            val = {name: on for name, on in zip("ABCD", bits)}

            def tt(g):
                if isinstance(g, S.Pred):
                    return val[g.name]
                if isinstance(g, S.Not):
                    return not tt(g.sub)
                if isinstance(g, S.And):
                    return all(tt(p) for p in g.parts)
                if isinstance(g, S.Or):
                    return any(tt(p) for p in g.parts)
                if isinstance(g, S.Implies):
                    return (not tt(g.left)) or tt(g.right)
                if isinstance(g, S.Iff):
                    return tt(g.left) == tt(g.right)
                raise AssertionError(g)

            assert evaluate(a, {}, f) == tt(f)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_structures(S.Signature({"P": 1}, set()), 2)) == 4
    assert sum(1 for _ in enumerate_structures(S.Signature({}, {"c"}), 2)) == 2
    assert sum(1 for _ in enumerate_structures(S.Signature({"P": 1}, {"c"}), 2)) == 8


def test_enumeration_matches_formula():
    sig = S.Signature({"P": 1, "R": 2}, {"c"})
    for size in (1, 2):
        expect = (size ** len(sig.constants)) * 2 ** (size + size * size)
        assert sum(1 for _ in enumerate_structures(sig, size)) == expect


def test_enumeration_deterministic():
    sig = S.Signature({"P": 1}, {"c"})
    a = [s.to_json() for s in enumerate_structures(sig, 2)]
    b = [s.to_json() for s in enumerate_structures(sig, 2)]
    assert a == b


def test_find_model_two_elements():
    f, _ = parse_formula("(exists x. P(x)) & (exists y. ~P(y))")
    m = find_model(f, max_size=2)
    assert m is not None and len(m.universe) == 2


def test_find_model_contradiction():
    f, _ = parse_formula("forall x. P(x) & ~P(x)")
    assert find_model(f, max_size=3) is None


def test_find_model_returns_smallest_first():
    f, _ = parse_formula("exists x. P(x)")
    m = find_model(f, max_size=3)
    assert len(m.universe) == 1


def test_substructure_full_subset_is_identity():
    a = Structure(("a", "b"), {"c": "a"}, {"R": frozenset({("a", "b")})})
    assert substructure(a, {"a", "b"}) == a


def test_substructure_drops_tuples():
    a = Structure(("a", "b"), {}, {"R": frozenset({("a", "b"), ("a", "a")})})
    b = substructure(a, {"a"})
    assert b.predicates["R"] == frozenset({("a", "a")})


def test_substructure_constant_guard():
    a = Structure(("a", "b"), {"c": "b"}, {})
    with pytest.raises(ConstantOutsideSubset):
        substructure(a, {"a"})


def test_universal_sentences_preserved_under_substructures():
    # prenex sentences without existential quantifiers survive restriction
    from util import random_atom, random_boolean, small_signature

    rng = random.Random(7)
    checked = 0
    while checked < 200:
        sig = small_signature(rng, max_bits=8)
        xs = ["x", "y"][: rng.randint(1, 2)]
        leaves = [random_atom(rng, sig, xs, with_eq=True) for _ in range(3)]
        f = S.Forall(tuple(xs), random_boolean(rng, leaves, allow_imp=False))
        for m in enumerate_structures(S.infer_signature(f, sig), 2):
            if not evaluate(m, {}, f):
                continue
            for drop in m.universe:
                keep = set(m.universe) - {drop}
                if not keep or any(e not in keep for e in m.constants.values()):
                    continue
                assert evaluate(substructure(m, keep), {}, f)
                checked += 1
            if checked >= 200:
                break


def test_packed_engine_agrees_with_reference_evaluator():
    # the vectorized oracle and the scalar evaluator must agree everywhere
    rng = random.Random(23)
    for _ in range(120):
        f, sig = random_sentence(rng, with_eq=True)
        size = rng.randint(1, 2)
        space = GroundSpace(S.infer_signature(f, sig), size)
        cmaps = list(space.const_maps())
        cmap = rng.choice(cmaps)
        chunk = rng.randrange(space.n_chunks)
        vec = space.eval_chunk(f, cmap, chunk)
        for _ in range(10):
            local = rng.randrange(1 << space.chunk_bits)
            code = (chunk << space.chunk_bits) + local
            got = bool((vec >> local) & 1)
            assert got == evaluate(space.decode(cmap, code), {}, f)


def test_packed_engine_agrees_on_counting():
    rng = random.Random(5)
    sig = S.Signature({"P": 1}, set())
    for n in (1, 2, 3):
        f = S.CountingExists(n, ("x",), S.Pred("P", (S.Var("x"),)))
        space = GroundSpace(sig, 3)
        vec = space.eval_chunk(f, {}, 0)
        for code in range(8):
            got = bool((vec >> code) & 1)
            assert got == evaluate(space.decode({}, code), {}, f)


def _folding_corpus():
    """Sentences with `true`, `false` and equations in every operand
    position of every connective and under every quantifier kind, and
    subformulas repeated under binders that they do not mention."""
    x, y, c = S.Var("x"), S.Var("y"), S.Const("c")
    operands = [S.Top(), S.Bottom(), S.Eq(x, y), S.Eq(x, c), P("P", "x"), P("Q", "y")]
    bodies = []
    for a in operands:
        bodies.append(S.Not(a))
        for b in operands:
            bodies += [S.And((a, b)), S.Or((a, b)), S.Implies(a, b), S.Iff(a, b)]
    prefixes = [
        lambda b: S.Forall(("x",), S.Exists(("y",), b)),
        lambda b: S.Exists(("x",), S.Forall(("y",), b)),
        lambda b: S.CountingExists(2, ("x",), S.Forall(("y",), b)),
        lambda b: S.Forall(("x",), S.CountingExists(2, ("y",), b)),
        lambda b: S.CountingExists(3, ("x", "y"), b),
    ]
    out = [prefixes[i % len(prefixes)](b) for i, b in enumerate(bodies)]
    texts = [
        "forall x. exists y. (P(x) & (exists z. Q(z) & z = x))"
        " | (Q(y) <-> (exists z. Q(z) & z = x))",
        "exists x. P(x) & (forall y. Q(y) | y = c) & ~(forall y. Q(y) | y = c)",
        "forall x y. exists>=2 z. P(z) | x = c",
        "exists>=2 x. (exists>=2 y. Q(y) & ~(y = c)) & P(x)",
        "forall x. exists y. (exists>=4 z. z = z) | (P(y) -> (forall z. true))",
        "exists x. forall y. (x = y -> false) | (true <-> (exists z. z = c & P(x)))",
    ]
    return out + [parse_formula(t)[0] for t in texts]


def test_packed_engine_folding_and_memo_agree_with_reference():
    from sepfrag.search import scope_minimized

    sig = S.Signature({"P": 1, "Q": 1}, {"c"})
    for f in _folding_corpus():
        for size in (1, 2, 3):
            space = GroundSpace(sig, size)
            for cmap in space.const_maps():
                vecs = [space.eval_chunk(g, cmap, 0) for g in (f, scope_minimized(f))]
                for code in range(1 << space.n_bits):
                    want = evaluate(space.decode(cmap, code), {}, f)
                    for vec in vecs:
                        assert bool((vec >> code) & 1) == want, f


def test_memo_budget_leaves_vectors_unchanged(monkeypatch):
    from sepfrag import search

    folding_sig = S.Signature({"P": 1, "Q": 1}, {"c"})
    corpus = [(f, folding_sig) for f in _folding_corpus()[-6:]]
    rng = random.Random(71)
    corpus += [random_sentence(rng, with_eq=True) for _ in range(40)]

    def vectors(words):
        monkeypatch.setattr(search, "_MEMO_WORDS", words)
        out = []
        for f, sig in corpus:
            space = GroundSpace(sig, 3)
            reduced = search.scope_minimized(f)
            for cmap in space.const_maps():
                out.append(space.eval_chunk(f, cmap, 0))
                out.append(space.eval_chunk(reduced, cmap, 0))
        return out

    unlimited = vectors(1 << 40)
    for words in (0, 3 * (search._ENTRY_WORDS + 1)):
        limited = vectors(words)
        assert unlimited == limited
    # the small budget does fill up: it holds three entries where the
    # unlimited memo holds more
    f = corpus[0][0]
    space = GroundSpace(folding_sig, 3)
    sizes = []
    for words in (3 * (search._ENTRY_WORDS + 1), 1 << 40):
        monkeypatch.setattr(search, "_MEMO_WORDS", words)
        ev = search._VecEval(space, {}, 0, search._memo_plan(f))
        ev.eval(f, {})
        sizes.append(len(ev.memo))
    assert sizes[0] == 3 < sizes[1]


def test_packed_engine_rejects_non_formulas():
    from sepfrag.search import _VecEval

    space = GroundSpace(S.Signature({"P": 1}, set()), 1)
    for bad in (S.Var("x"), "P(x)", None):
        with pytest.raises(TypeError):
            _VecEval(space, {}, 0, {}).eval(S.Not(bad), {})


def test_memo_plan_once_per_formula_per_call(monkeypatch):
    # whatever the number of sizes searched or compared
    from sepfrag import search

    planned = []
    real = search._memo_plan

    def counted(f):
        planned.append(f)
        return real(f)

    monkeypatch.setattr(search, "_memo_plan", counted)
    rng = random.Random(47)
    past_size_two = 0
    for _ in range(60):
        f, _ = random_sentence(rng, with_eq=True)
        planned.clear()
        m = find_model(f, max_size=3)
        assert len(planned) == (0 if m is not None and len(m.universe) == 1 else 1)
        past_size_two += m is None or len(m.universe) == 3
        planned.clear()
        # f and ~f differ on every structure, so size 1 answers unplanned
        search.equivalent_upto(f, S.Not(f), 3, budget=10**9)
        assert len(planned) == 0
        planned.clear()
        search.equivalent_upto(f, S.Not(S.Not(f)), 3, budget=10**9)
        assert len(planned) == 1
    assert past_size_two >= 5


def test_equivalent_upto_matches_full_enumeration():
    # canonical constant maps give the verdict and the first
    # counterexample that enumerating every constant map gives; pairs
    # that already differ at size 1 (one constant map) are skipped
    from sepfrag.search import equivalent_upto

    rng = random.Random(107)
    pairs = differ = 0
    while pairs < 80:
        sig = small_signature(rng, max_consts=3, max_bits=9)
        sig.constants.update({"c", "c1"})
        leaves = [random_atom(rng, sig, ["x", "y"], with_eq=True) for _ in range(3)]
        quants = [rng.choice((S.Forall, S.Exists)) for _ in range(2)]
        f, g = [
            quants[0](("x",), quants[1](("y",), random_boolean(rng, leaves)))
            for _ in range(2)
        ]
        if first_disagreement(f, g, 1) is not None:
            continue
        pairs += 1
        size = rng.randint(2, 3)
        got = equivalent_upto(f, g, size)
        want = first_disagreement(f, g, size)
        if want is None:
            assert got.equal
            continue
        differ += 1
        assert not got.equal
        assert (got.counterexample.structure, got.counterexample.which) == want
        m = want[0]
        assert evaluate(m, {}, f) == (want[1] == "left") != evaluate(m, {}, g)
    assert differ >= 20


def test_models_helper():
    a = Structure(("a",), {}, {"P": frozenset({("a",)})})
    assert models(a, parse_formula("forall x. P(x)")[0])


def test_equivalent_upto_reflexive():
    from sepfrag.search import equivalent_upto

    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    assert equivalent_upto(f, f, 3).equal


def test_equivalent_upto_budget():
    from sepfrag.errors import BudgetExceeded
    from sepfrag.search import equivalent_upto

    f, _ = parse_formula("forall x y. R(x, y) | T(x, y) | U(y, x)")
    with pytest.raises(BudgetExceeded):
        equivalent_upto(f, S.Not(S.Not(f)), 3, budget=1000)


def test_equivalent_upto_rechecks_packed_counterexample(monkeypatch):
    # a packed evaluator that reports a disagreement on an equal pair
    from sepfrag.search import equivalent_upto

    monkeypatch.setattr(GroundSpace, "first_true", lambda self, vec, chunk: 0)
    f, _ = parse_formula("forall x. P(x) | Q(c)")
    with pytest.raises(RuntimeError):
        equivalent_upto(f, S.Not(S.Not(f)), 2)


@pytest.mark.parametrize("size", [0, -2])
def test_equivalent_upto_rejects_sizes_below_one(size):
    # no structure would be compared, so "equal" would be unchecked
    from sepfrag.errors import BadParams
    from sepfrag.search import equivalent_upto

    f, _ = parse_formula("P(a)")
    with pytest.raises(BadParams):
        equivalent_upto(f, S.Not(f), size)


def test_scope_minimization_preserves_truth():
    from sepfrag.search import scope_minimized

    rng = random.Random(47)
    for _ in range(80):
        f, sig = random_sentence(rng, with_eq=True)
        g = scope_minimized(f)
        for m in enumerate_structures(S.infer_signature(f, sig), 2):
            assert evaluate(m, {}, f) == evaluate(m, {}, g)
            break  # one structure per formula; full spaces below
        space = GroundSpace(S.infer_signature(f, sig), 2)
        for cmap in space.const_maps():
            va = space.eval_chunk(f, cmap, 0)
            vb = space.eval_chunk(g, cmap, 0)
            assert va == vb


def test_scope_minimization_peels_connected_blocks():
    # a block whose dual-connective body stays connected peels its first
    # variable; the rest of the block then splits beneath it
    from sepfrag.search import scope_minimized

    R, S_, Q, T = (P(n, "x", v) for n, v in (("R", "y"), ("S", "z"), ("Q", "y"), ("T", "y")))
    f = S.Forall(("x", "y", "z"), S.Or((R, S_)))
    assert scope_minimized(f) == S.Forall(
        ("x",), S.Or((S.Forall(("y",), R), S.Forall(("z",), S_)))
    )
    g = S.Exists(("x", "y", "z"), S.And((R, S_)))
    assert scope_minimized(g) == S.Exists(
        ("x",), S.And((S.Exists(("y",), R), S.Exists(("z",), S_)))
    )
    # the inner block also distributes over its own connective
    h = S.Forall(("x", "y"), S.Or((P("P", "x"), S.And((Q, T)))))
    assert scope_minimized(h) == S.Forall(
        ("x",),
        S.Or((S.And((S.Forall(("y",), Q), S.Forall(("y",), T))), P("P", "x"))),
    )


def test_packed_engine_on_prefix_sentences():
    # exists*forall* prefixes with a joint matrix: the shape that needs
    # scope minimization to evaluate quickly must stay correct
    rng = random.Random(53)
    from util import random_atom, random_boolean, small_signature
    from sepfrag.search import scope_minimized

    for _ in range(40):
        sig = small_signature(rng, max_bits=8)
        us = [f"u{i}" for i in range(1, rng.randint(2, 4))]
        vs = [f"v{i}" for i in range(1, rng.randint(2, 4))]
        leaves = [random_atom(rng, sig, us + vs, with_eq=True) for _ in range(4)]
        f = S.Exists(tuple(us), S.Forall(tuple(vs), random_boolean(rng, leaves, allow_imp=False)))
        reduced = scope_minimized(f)
        size = 2
        space = GroundSpace(S.infer_signature(f, sig), size)
        cmaps = list(space.const_maps())
        cmap = cmaps[0]
        vec = space.eval_chunk(reduced, cmap, 0)
        for _ in range(8):
            code = rng.randrange(1 << space.n_bits)
            got = bool((vec >> code) & 1)
            assert got == evaluate(space.decode(cmap, code), {}, f)

import random
import time
from pathlib import Path

import pytest

from sepfrag import syntax as S
from sepfrag.decide import DecideConfig, decide_sat
from sepfrag.errors import BadParams
from sepfrag.search import _SCAN_BITS, GroundSpace, ModelSearch, enumerate_structures, find_model
from sepfrag.semantics import evaluate
from sepfrag.syntax import parse_formula, print_formula

from util import random_atom, random_boolean

DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


# --- the SAT route of ModelSearch against the packed scan ---------------------

_SIG = S.Signature({"P": 1, "R": 2}, {"a", "b", "c"})


def random_mace_sentence(rng, i):
    """Up to two quantifiers over atoms of P, R, equality and three
    constants; every fifth sentence also counts witnesses."""

    def go(depth, scope):
        if depth < 2 and rng.random() < 0.6:
            v = ("x", "y")[depth]
            return rng.choice([S.Forall, S.Exists])((v,), go(depth + 1, scope + [v]))
        return random_boolean(rng, [random_atom(rng, _SIG, scope, with_eq=True) for _ in range(3)])

    f = go(0, [])
    if i % 5 == 0:
        body = random_boolean(rng, [random_atom(rng, _SIG, ["z"], with_eq=True) for _ in range(2)])
        f = S.And((f, S.CountingExists(2, ("z",), body)))
    return f


def random_nested_sentence(rng):
    """A quantifier under ~, -> or <->, beside a boolean combination of
    atoms of P, R, equality and three constants, up to two deep: `to_nnf`
    turns the quantifiers it negates into their duals on the SAT route."""

    def go(depth, scope):
        leaves = [random_atom(rng, _SIG, scope, with_eq=True) for _ in range(2)]
        body = random_boolean(rng, leaves, max_depth=1)
        if depth == 2:
            return body
        v = ("x", "y")[depth]
        q = rng.choice([S.Forall, S.Exists])((v,), go(depth + 1, scope + [v]))
        return rng.choice(
            [S.Not(q), S.Implies(q, body), S.Implies(body, q), S.Iff(q, body), S.Iff(body, q)]
        )

    return go(0, [])


def check_sat_route(f, seen):
    models = ModelSearch(f)
    for size in (1, 2, 3):
        space = GroundSpace(models.sig, size)
        packed, sat = models.scan(space), models.sat(space)
        assert (packed is None) == (sat is None), (print_formula(f), size)
        if sat is None:
            seen["unsat"] += 1
            continue
        assert evaluate(sat, {}, f), (print_formula(f), size)
        seen["sat"] += 1
        seen["counting"] += S.has_counting(f)
        seen["distinct constants"] += len(set(sat.constants.values())) > 1


def test_sat_route_agrees_with_packed_scan():
    rng = random.Random(18)
    seen = {"sat": 0, "unsat": 0, "counting": 0, "distinct constants": 0}
    for i in range(150):
        check_sat_route(random_mace_sentence(rng, i), seen)
    assert min(seen.values()) >= 20, seen
    # quantifiers under ~, -> and <->, from their own draws
    rng = random.Random(20)
    seen = {"sat": 0, "unsat": 0, "counting": 0, "distinct constants": 0}
    for _ in range(100):
        check_sat_route(random_nested_sentence(rng), seen)
    assert seen["sat"] >= 20 and seen["unsat"] >= 20 and seen["distinct constants"] >= 20, seen


def test_sat_route_is_linear_in_nested_biconditionals():
    # `to_nnf` shares each operand of <-> between its two polarities, and
    # the encoder memoizes by node id, so 20 nested <-> are encoded once
    text = " <-> ".join(f"(forall x. exists y. T(x, y, x, y, a{i}))" for i in range(20))
    f, _ = parse_formula(text)
    start = time.perf_counter()
    models = ModelSearch(f)
    assert models.run(2, min_size=2) is not None and models.sat_sizes == [2]
    assert time.perf_counter() - start < 2.0


def test_size_below_one_is_bad_params():
    f, _ = parse_formula("exists x. P(x)")
    with pytest.raises(BadParams):
        find_model(f, 2, min_size=0)
    with pytest.raises(BadParams):
        ModelSearch(f).run(2, min_size=0)
    with pytest.raises(BadParams):
        next(enumerate_structures(S.infer_signature(f), 0))


@pytest.mark.parametrize("name", ["hierarchy12", "domino1"])
def test_lower_bound_sentences_at_size_two_go_to_sat(name):
    f, _ = parse_formula((DATA / f"{name}.txt").read_text())
    assert GroundSpace(S.infer_signature(f), 2).n_bits > _SCAN_BITS
    start = time.perf_counter()
    v = decide_sat(f, DecideConfig(max_model_size=2))
    assert time.perf_counter() - start < 2.0
    assert v.status == "inconclusive"
    assert v.details["search_limit"] == 2
    assert v.details["sat_sizes"] == [2]


def test_packed_sizes_record_no_sat_size():
    f, _ = parse_formula("forall x. exists y. R(x, y) & ~R(x, x)")
    v = decide_sat(f, DecideConfig(max_model_size=3))
    assert v.status == "sat" and "sat_sizes" not in v.details


def test_sizes_above_one_chunk_are_scanned_up_to_the_scan_bound():
    # a strict order without a maximal element has no finite model; R has
    # 25 ground atoms at size 5 and 36 at size 6
    f, _ = parse_formula(
        "(forall x. ~R(x, x)) & (forall x. exists y. R(x, y))"
        " & (forall x y z. (R(x, y) & R(y, z)) -> R(x, z))"
    )
    models = ModelSearch(f)
    assert GroundSpace(models.sig, 5).n_bits <= _SCAN_BITS < GroundSpace(models.sig, 6).n_bits
    assert models.run(5, min_size=5) is None and models.sat_sizes == []
    assert models.run(6, min_size=6) is None and models.sat_sizes == [6]


# --- the packed scan's atom vectors and chunking -------------------------------


@pytest.mark.parametrize("chunk_bits", [*range(9), 18])
def test_atom_patterns_set_bit_j_iff_the_atom_bit_of_j_is_set(chunk_bits):
    from sepfrag.search import _pattern

    n = 1 << chunk_bits
    for bit in range(chunk_bits):
        got = format(_pattern(chunk_bits, bit), f"0{n}b")[::-1]
        assert got == "".join(["01"[(j >> bit) & 1] for j in range(n)]), bit


def test_atoms_above_the_chunk_are_constant_bools():
    space = GroundSpace(S.Signature({"R": 2}, set()), 5)
    assert space.n_bits == 25 and space.chunk_bits == 18
    for chunk in (0, 5, 127):
        for bit in range(18, 25):
            assert space._atom_vec(bit, chunk) is bool((chunk >> (bit - 18)) & 1)


def _chunking_corpus():
    """Pairs of sentences over P, R, equality and one constant, under the
    same prefix `forall x. exists y. Q z.`, that agree on every
    one-element structure; every fifth sentence also counts witnesses."""
    from sepfrag.search import equivalent_upto

    rng = random.Random(29)
    sig = S.Signature({"P": 1, "R": 2}, {"a"})

    def sentence(i, quants):
        leaves = [random_atom(rng, sig, ["x", "y", "z"], with_eq=True) for _ in range(4)]
        f = random_boolean(rng, leaves)
        for v, q in zip("zyx", reversed(quants)):
            f = q((v,), f)
        if i % 5 == 0:
            leaves = [random_atom(rng, sig, ["w"], with_eq=True) for _ in range(2)]
            body = random_boolean(rng, leaves)
            f = S.And((f, S.CountingExists(2, ("w",), body)))
        return f

    out = []
    while len(out) < 30:
        quants = [S.Forall, S.Exists, rng.choice((S.Forall, S.Exists))]
        f, g = sentence(len(out), quants), sentence(len(out) + 1, quants)
        if equivalent_upto(f, g, 1).equal:
            out.append((f, g))
    return out


def test_chunk_size_does_not_change_witnesses_or_counterexamples(monkeypatch):
    # P and R have 6 ground atoms at size 2 and 12 at size 3: with 3-bit
    # chunks those sizes are scanned in 8 and 512 chunks, against one by
    # default
    from sepfrag import search

    corpus = _chunking_corpus()

    def answers():
        out = []
        for f, g in corpus:
            ce = search.equivalent_upto(f, g, 3).counterexample
            out.append((find_model(f, max_size=3), ce and (ce.structure, ce.assignment, ce.which)))
        return out

    default = answers()
    monkeypatch.setattr(search, "_CHUNK_BITS", 3)
    assert GroundSpace(S.Signature({"P": 1, "R": 2}, {"a"}), 3).n_chunks == 512
    assert answers() == default
    # each answer occurs both ways, and some lie past the first 3-bit chunk
    assert 3 <= sum(m is None for m, _ in default) <= 27
    assert 3 <= sum(ce is None for _, ce in default) <= 27
    past_first = 0
    for (f, g), (m, ce) in zip(corpus, default):
        sig = S.infer_signature(f)
        past_first += m is not None and _code(m, sig) >= 8
        past_first += ce is not None and _code(ce[0], S.infer_signature(g, sig)) >= 8
    assert past_first >= 5


def _code(m, sig):
    """Structure code of m over sig: bit i is the i-th ground atom in
    canonical order."""
    space = GroundSpace(sig, len(m.universe))
    index = {e: i for i, e in enumerate(m.universe)}
    return sum(
        1 << space.atom_index[(name, tuple(index[e] for e in t))]
        for name, table in m.predicates.items()
        for t in table
    )

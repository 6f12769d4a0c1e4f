import itertools
import random

import pytest

from sepfrag import syntax as S
from sepfrag.analysis import (
    analyze,
    bounds,
    degree,
    existential_literal_count,
    interaction_partition,
    is_bsr,
    is_mfo,
    is_separated,
    is_sf,
    is_ssf,
    DEFAULT_EXACT_BITS,
    add,
    mul,
    nat,
    power,
    twoup,
)
from sepfrag.errors import NotSF, OverlappingSets
from sepfrag.syntax import parse_formula, to_standard_form

INTRO_EXAMPLE = (
    "forall x1. exists y1 v1. forall x2. exists y2 v2. forall x3. exists y3 v3. "
    "(P(x1, x2, x3) & ~Q(y1, y3)) | P(y2, v2, v3) | ~Q(y3, v1)"
)


def sf_of(text):
    f, _ = parse_formula(text)
    return to_standard_form(f)


# --- tetration ---------------------------------------------------------------

def test_twoup_base():
    assert twoup(0, 7).evaluate() == 7


def test_twoup_small_towers():
    assert twoup(2, 2).evaluate() == 16
    assert twoup(3, 2).evaluate() == 65536


def test_twoup_recurrence():
    for k in range(0, 4):
        for m in range(1, 4):
            a = twoup(k + 1, m).evaluate()
            b = twoup(k, m).evaluate()
            if a is not None and b is not None:
                assert a == 2**b


def test_twoup_symbolic_beyond_cap():
    e = twoup(4, 3)
    assert e.evaluate(bit_cap=1 << 16) is None
    assert e.lower_bound(bit_cap=1 << 16) >= 1 << 16
    assert e.tower_height() == 4
    assert "2↑4(3)" == str(e)


def test_expr_arithmetic():
    e = S and nat(3)
    expr = twoup(1, 4)
    assert expr.evaluate() == 16
    j = expr.to_json()
    assert j["exact"] == 16


def _rebuilding_saturated(e, bit_cap):
    """`TetrationExpr.saturated` building 2^bit_cap at every node and
    doing the arithmetic on saturated operands too: the reference of the
    test below."""
    sat = 1 << bit_cap
    if e.kind == "nat":
        return e.args[0], True
    if e.kind == "tower":
        k, m = e.args
        v, exact = _rebuilding_saturated(m, bit_cap)
        for _ in range(k):
            if v > bit_cap:
                return sat, False
            v = 1 << v
    else:
        (a, exact_a), (b, exact_b) = (_rebuilding_saturated(x, bit_cap) for x in e.args)
        if e.kind == "add":
            v, fits = a + b, max(a, b).bit_length() + 1 <= bit_cap
        elif e.kind == "mul":
            v, fits = a * b, a.bit_length() + b.bit_length() <= bit_cap
        else:
            fits = b * max(1, a.bit_length()) <= bit_cap
            v = sat if a > 1 and b * (a.bit_length() - 1) >= bit_cap else a ** min(b, bit_cap)
        exact = exact_a and exact_b and fits
    return (v, True) if exact else (min(sat, v), False)


def _random_expr(rng, bit_cap, depth=0):
    """Zeros, ones, small numbers and numbers around bit_cap, so towers
    land on both sides of the cap, under add, mul, pow and tower."""
    if depth >= 4 or rng.random() < 0.3:
        return nat(rng.choice([0, 1, 2, 3, rng.randint(0, 40), bit_cap - 1, bit_cap, bit_cap + 1]))
    kind = rng.choice(["add", "mul", "pow", "tower"])
    if kind == "tower":
        return twoup(rng.randint(0, 3), _random_expr(rng, bit_cap, depth + 1))
    build = {"add": add, "mul": mul, "pow": power}[kind]
    return build(_random_expr(rng, bit_cap, depth + 1), _random_expr(rng, bit_cap, depth + 1))


@pytest.mark.parametrize("bit_cap", [64, 1000, DEFAULT_EXACT_BITS])
def test_saturated_matches_the_rebuilding_reference(bit_cap):
    rng = random.Random(bit_cap)
    saturated = exact = 0
    for _ in range(300):
        e = _random_expr(rng, bit_cap)
        got = e.saturated(bit_cap)
        assert got == _rebuilding_saturated(e, bit_cap), str(e)
        saturated += got == (1 << bit_cap, False)
        exact += got[1]
    # both sides of the cap are reached
    assert saturated >= 30 and exact >= 30, (saturated, exact)


# --- separation --------------------------------------------------------------

def test_is_separated_intro_example():
    f, _ = parse_formula(INTRO_EXAMPLE)
    xs = {"x1", "x2", "x3"}
    ys = {"y1", "y2", "y3", "v1", "v2", "v3"}
    assert is_separated(xs, ys, f)


def test_is_separated_joint_atom():
    f, _ = parse_formula("forall x. exists y. R(x, y)")
    assert not is_separated({"x"}, {"y"}, f)


def test_is_separated_empty_vacuous():
    f, _ = parse_formula("P(c)")
    assert is_separated(set(), {"y"}, f)


def test_is_separated_overlap_raises():
    f, _ = parse_formula("P(c)")
    with pytest.raises(OverlappingSets):
        is_separated({"x"}, {"x"}, f)


def test_is_sf_intro_example():
    assert is_sf(sf_of(INTRO_EXAMPLE))


def test_is_sf_joint_atom():
    assert not is_sf(sf_of("forall x. exists y. R(x, y)"))


def test_is_sf_leading_exempt():
    assert is_sf(sf_of("exists z. forall x. R(z, x)"))


# --- SSF ---------------------------------------------------------------------

def test_ssf_mfo_sentences():
    sf = sf_of("forall x. exists y. P(x) | Q(y)")
    assert is_ssf(sf)


def test_ssf_rejects_cross_block_atom():
    assert not is_ssf(sf_of(INTRO_EXAMPLE))


def test_ssf_bsr_shape():
    assert is_ssf(sf_of("exists z. forall x. P(x) | Q(z)"))


def test_ssf_requires_sf():
    with pytest.raises(NotSF):
        is_ssf(sf_of("forall x. exists y. R(x, y)"))


# --- partition and degree ----------------------------------------------------

def test_partition_intro_example():
    part = interaction_partition(sf_of(INTRO_EXAMPLE))
    comps = {tuple(sorted(vs)) for vs, _ in part.components}
    assert comps == {("v1", "y1", "y3"), ("v2", "v3", "y2")}


def test_partition_singletons():
    part = interaction_partition(sf_of("forall x. exists y1 y2. P(x) | Q(y1) | Q(y2)"))
    assert all(len(vs) == 1 for vs, _ in part.components)


def test_degree_intro_example():
    assert degree(sf_of(INTRO_EXAMPLE)) == 2


def test_degree_mfo_is_one():
    assert degree(sf_of("forall x. exists y. P(x) | Q(y)")) == 1


def test_degree_no_universals_is_zero():
    assert degree(sf_of("exists z1 z2. R(z1, z2)")) == 0


def test_degree_universals_with_empty_existential_block():
    assert degree(sf_of("exists z. forall x. P(x) | Q(z)")) == 1


def test_degree_at_most_alternations_random():
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    rng = random.Random(71)
    for _ in range(60):
        f, _ = random_sf_sentence(rng)
        sf = to_standard_form(f)
        if not is_sf(sf) or not sf.blocks:
            continue
        assert 0 <= degree(sf) <= max(1, len(sf.blocks))


def test_ssf_implies_degree_at_most_one():
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    rng = random.Random(73)
    seen = 0
    for _ in range(200):
        f, _ = random_sf_sentence(rng)
        sf = to_standard_form(f)
        if not is_sf(sf):
            continue
        if is_ssf(sf) and sf.universal_vars:
            assert degree(sf) <= 1
            seen += 1
    assert seen >= 10


def test_partition_components_pairwise_separated():
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    rng = random.Random(79)
    for _ in range(50):
        f, _ = random_sf_sentence(rng)
        sf = to_standard_form(f)
        if not is_sf(sf):
            continue
        part = interaction_partition(sf)
        for (a, _), (b, _) in itertools.combinations(part.components, 2):
            assert is_separated(a, b, sf.matrix)


def test_partition_minimality_under_merging():
    # merging any two components cannot lower the maximal level count
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    rng = random.Random(83)
    for _ in range(60):
        f, _ = random_sf_sentence(rng)
        sf = to_standard_form(f)
        if not is_sf(sf) or not sf.universal_vars:
            continue
        part = interaction_partition(sf)
        if not (2 <= len(part.components) <= 5):
            continue
        d = degree(sf)
        for i, j in itertools.combinations(range(len(part.components)), 2):
            merged_levels = part.components[i][1] | part.components[j][1]
            worst = max(
                [len(merged_levels)]
                + [len(lv) for k, (_, lv) in enumerate(part.components) if k not in (i, j)]
            )
            assert worst >= d


# --- fragment reports ---------------------------------------------------------

def test_is_mfo():
    assert is_mfo(sf_of("forall x. exists y. P(x) | Q(y)"))
    assert not is_mfo(sf_of("forall x. P(x) | R(c, c)"))
    assert not is_mfo(sf_of("forall x y. P(x) | x = y"))


def test_is_bsr():
    assert is_bsr(sf_of("exists z. forall x. P(x) | Q(z)"))
    assert not is_bsr(sf_of("forall x. exists y. P(x) | Q(y)"))


def test_analyze_report_json():
    rep = analyze(sf_of(INTRO_EXAMPLE))
    data = rep.to_json()
    assert data["is_sf"] and not data["is_ssf"]
    assert data["degree"] == 2
    assert data["alternations"] == 3
    assert sorted(map(tuple, data["components"])) == [
        ("v1", "y1", "y3"),
        ("v2", "v3", "y2"),
    ]


# --- bounds --------------------------------------------------------------------

def test_bsr_bound():
    rep = bounds(sf_of("exists z1 z2. forall x. P(x) | R(z1, z2) | P(c)"))
    assert rep.bsr_model_size == 3


def test_mfo_bound():
    rep = bounds(sf_of("forall x. exists y. P(x) | Q(y) | T(y)"))
    assert rep.mfo_model_size == 8


def test_degree_one_model_bound_shape():
    sf = sf_of("forall x. exists y. P(x) | Q(y)")
    rep = bounds(sf)
    ln = S.formula_len(sf.to_formula())
    assert rep.model_size.evaluate() == ln + ln * 2**ln


def test_translation_bound_uses_existential_literals():
    sf = sf_of("forall x. exists y. P(x) | Q(y)")
    assert existential_literal_count(sf) == 1
    rep = bounds(sf)
    # |z| + |y| * d * (2^^d(|L|))^d = 0 + 1 * 1 * 2^1
    assert rep.translation_existentials.evaluate() == 2


def test_bounds_requires_sf():
    with pytest.raises(NotSF):
        bounds(sf_of("forall x. exists y. R(x, y)"))


def test_bound_report_json_keys():
    data = bounds(sf_of(INTRO_EXAMPLE)).to_json()
    assert set(data) == {"lemma12", "expr1", "prop9", "prop5", "prop6"}
    assert data["prop5"] is None  # not a BSR sentence


def test_hard_family_single_component_with_all_levels():
    from sepfrag.generators import generate_hard_family

    for n in (2, 3):
        sf = to_standard_form(generate_hard_family(n))
        part = interaction_partition(sf)
        assert len(part.components) == 1
        vs, levels = part.components[0]
        assert len(vs) == n and len(levels) == n

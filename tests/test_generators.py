import hashlib
import random
from pathlib import Path

import pytest

from sepfrag import syntax as S
from sepfrag.analysis import degree, is_sf
from sepfrag.errors import (
    BadParams,
    CapExceeded,
    InfeasibleN,
    InvalidTiling,
    SizeMismatch,
    WordTooLong,
)
from sepfrag.generators import (
    DominoSystem,
    HierarchyParams,
    Tiling,
    brute_force_tiler,
    canonical_domino_model,
    canonical_hierarchy_model,
    expand_counting,
    generate_domino_encoding,
    generate_hard_family,
    generate_index_hierarchy,
    hard_family_model,
    hierarchy_level_sets,
    sf_equality_elim,
    smp_to_sf,
    valid_tiling,
)
from sepfrag.search import equivalent_upto, find_model
from sepfrag.semantics import Structure, evaluate, substructure
from sepfrag.syntax import cnf_matrix, classify_cnf, parse_formula, to_nnf, to_standard_form

from util import deadline, iff_chain, models_extend, random_sf_sentence

ONE_TILE = DominoSystem(("A",), frozenset({("A", "A")}), frozenset({("A", "A")}))


# --- counting expansion ------------------------------------------------------

def test_expand_counting_two():
    f, _ = parse_formula("exists>=2 y. P(y)")
    out = expand_counting(f)
    g = out.formula
    assert isinstance(g, S.Exists) and len(g.vars) == 2
    assert not out.breaks_separation
    v1, v2 = g.vars
    expected = S.And(
        (
            S.Pred("P", (S.Var(v1),)),
            S.Pred("P", (S.Var(v2),)),
            S.Not(S.Eq(S.Var(v1), S.Var(v2))),
        )
    )
    assert equivalent_upto(g, S.Exists(g.vars, expected), 3).equal


def test_expand_counting_one_is_plain_exists():
    f, _ = parse_formula("exists>=1 y. P(y)")
    g = expand_counting(f).formula
    assert isinstance(g, S.Exists) and len(g.vars) == 1
    assert not S.has_counting(g)


def test_expand_counting_equivalent_to_native():
    rng = random.Random(3)
    from util import random_atom, small_signature

    for _ in range(40):
        sig = small_signature(rng, max_bits=9)
        n = rng.randint(1, 3)
        body = random_atom(rng, sig, ["y"], with_eq=True)
        f = S.CountingExists(n, ("y",), body)
        assert equivalent_upto(f, expand_counting(f).formula, 3).equal


def test_expand_counting_separation_warning():
    f, _ = parse_formula("forall x. exists>=2 y. R(x, y)")
    out = expand_counting(f)
    assert out.breaks_separation
    g, _ = parse_formula("forall x. P(x) | (exists>=2 y. Q(y))")
    assert not expand_counting(g).breaks_separation


def test_expand_counting_returns_counting_free_input():
    f, _ = parse_formula("forall x. exists y. R(x, y) & ~(x = y)")
    out = expand_counting(f)
    assert out.formula is f
    assert out.sites == 0 and not out.breaks_separation


# --- small-model translation ---------------------------------------------------

def test_smp_axiom_shape_bound_two():
    f, _ = parse_formula("forall x. P(x)")
    t = smp_to_sf(to_nnf(f), 2)
    assert isinstance(t, S.And)
    ax = t.parts[0]
    # forall x y. (Q1(x) <-> Q1(y)) -> x = y
    assert isinstance(ax, S.Forall) and len(ax.vars) == 2
    assert isinstance(ax.body, S.Implies)
    assert isinstance(ax.body.right, S.Eq)


def test_smp_existential_guard_shape():
    f, _ = parse_formula("forall x. exists y. R(x, y)")
    t = smp_to_sf(to_nnf(f), 2)
    sf = to_standard_form(t)
    assert is_sf(sf)
    from sepfrag.analysis import is_ssf

    assert is_ssf(sf)


def test_smp_guards_a_block_one_variable_at_a_time():
    # the last variable of a block is guarded first, so it takes the first
    # fresh v
    f, _ = parse_formula("forall x. exists y1 y2. R(x, y1) & ~R(y2, x)")
    assert S.print_formula(smp_to_sf(to_nnf(f), 2)) == (
        "(forall x y. (Q1(x) <-> Q1(y)) -> x = y) & (forall x1. exists y1. forall v1."
        " (Q1(y1) <-> Q1(v1)) -> (exists y2. forall v. (Q1(y2) <-> Q1(v)) -> R(x1, v1) & ~R(v, x1)))"
    )


def test_smp_models_project_and_extend():
    rng = random.Random(7)
    sentences = [
        "forall x. exists y. R(x, y)",
        "exists x. forall y. R(x, y) | ~R(y, x)",
        "forall x. exists y. R(y, x) & ~R(x, x)" ,
        "(exists x. P(x)) & (forall y. exists w. P(w) | R(y, y))",
    ]
    checked = 0
    for text in sentences:
        f, _ = parse_formula(text)
        nnf = to_nnf(f)
        witness = find_model(nnf, max_size=3)
        if witness is None:
            continue
        bound = len(witness.universe)
        t = smp_to_sf(nnf, bound)
        qpreds = {
            a.name
            for a in S.atoms_iter(t)
            if isinstance(a, S.Pred) and a.name.startswith("Q")
        } - {a.name for a in S.atoms_iter(nnf) if isinstance(a, S.Pred)}
        # (a) every model of the translation is a model of the original
        for size in range(1, bound + 1):
            v = equivalent_upto(S.And((t, S.Not(nnf))), S.Bottom(), size)
            assert v.equal, f"{text}: translation model fails original at {size}"
        # (b) every small model of the original extends to the translation
        for size in range(1, bound + 1):
            ok, total = models_extend(nnf, t, qpreds, size)
            assert ok, f"{text}: model of size {size} does not extend"
            checked += total
    assert checked > 0


def test_smp_rejects_non_nnf():
    from sepfrag.errors import NotNNF

    for text in ("P(c) -> Q(c)", "exists>=2 y. P(y)"):
        f, _ = parse_formula(text)
        with pytest.raises(NotNNF):
            smp_to_sf(f, 2)


# --- index hierarchy -----------------------------------------------------------

def test_hierarchy_params_validation():
    with pytest.raises(BadParams):
        HierarchyParams(0, 2)
    with pytest.raises(BadParams):
        HierarchyParams(1, 1)


def test_hierarchy_1_2_model():
    p = HierarchyParams(1, 2)
    f = generate_index_hierarchy(p)
    m = canonical_hierarchy_model(p)
    assert len(m.universe) == 9
    assert evaluate(m, {}, f)
    levels = hierarchy_level_sets(m, 1)
    assert [len(l) for l in levels] == [2, 3]


def test_hierarchy_is_separated_after_standard_form():
    p = HierarchyParams(1, 2)
    sf = to_standard_form(generate_index_hierarchy(p))
    assert is_sf(sf)


def test_hierarchy_cap():
    with pytest.raises(CapExceeded):
        canonical_hierarchy_model(HierarchyParams(3, 3))  # needs 65537 top indices


# SHA-1 of print_formula of the hierarchy; (1, 2) is bench/data/hierarchy12.txt
HIERARCHY_TEXT = {
    (1, 2): "74bf8c8faf93fe4d9e88cd0182d30f5709622585",
    (1, 3): "b0eb4dc519a26e79b3010cd423c79c7d1f51a1ff",
    (1, 4): "b3bac61b66c66df7df3a83bff663c422ec19f3de",
    (2, 2): "50e2ef67e71088ef159ad74100f36f3bdb8abd9a",
    (2, 3): "526cdf34a922d55efe914a2b44d3b65ccca97c5b",
    (3, 2): "de11a2e325e970b5db3428d263a90b3e9b74ed1b",
}


@pytest.mark.parametrize("kappa, mu", sorted(HIERARCHY_TEXT))
def test_hierarchy_text_is_pinned(kappa, mu):
    f = generate_index_hierarchy(HierarchyParams(kappa, mu))
    assert hashlib.sha1(S.print_formula(f).encode()).hexdigest() == HIERARCHY_TEXT[kappa, mu]


@pytest.mark.parametrize("kappa, mu", sorted(HIERARCHY_TEXT))
def test_hierarchy_degree_is_kappa(kappa, mu):
    # the paper's lower bound: degree kappa forces a level of 2^^kappa(mu-1)+1 indices
    sf = to_standard_form(generate_index_hierarchy(HierarchyParams(kappa, mu)))
    assert degree(sf) == kappa


def test_torus_size_values():
    assert HierarchyParams(1, 2).torus_size().evaluate() == 3
    assert HierarchyParams(1, 3).torus_size().evaluate() == 5
    assert HierarchyParams(2, 2).torus_size().evaluate() == 5


# --- domino systems -------------------------------------------------------------

def test_brute_force_tiler_one_tile():
    tl = brute_force_tiler(ONE_TILE, ("A",), 3)
    assert tl is not None and valid_tiling(ONE_TILE, ("A",), tl)


ALTERNATING = DominoSystem(
    ("A", "B"),
    frozenset({("A", "B"), ("B", "A")}),
    frozenset({("A", "A"), ("B", "B")}),
)


def test_brute_force_tiler_odd_alternation_fails():
    assert brute_force_tiler(ALTERNATING, ("A",), 3) is None
    assert brute_force_tiler(ALTERNATING, ("A",), 4) is not None


def test_brute_force_tiler_single_cell():
    tl = brute_force_tiler(ONE_TILE, ("A",), 1)
    assert tl is not None and tl.cells == {(0, 0): "A"}


def test_tiler_word_too_long():
    with pytest.raises(WordTooLong):
        brute_force_tiler(ONE_TILE, ("A", "A"), 1)


def test_domino_encoding_word_too_long():
    with pytest.raises(WordTooLong):
        generate_domino_encoding(ONE_TILE, ("A",) * 4, HierarchyParams(1, 2))


def test_domino_encoding_empty_component():
    broken = DominoSystem(("A",), frozenset(), frozenset({("A", "A")}))
    with pytest.raises(Exception):
        generate_domino_encoding(broken, ("A",), HierarchyParams(1, 2))


def test_canonical_domino_model_satisfies_encoding():
    p = HierarchyParams(1, 2)
    t = p.torus_size().evaluate()
    tl = brute_force_tiler(ONE_TILE, ("A",), t)
    enc = generate_domino_encoding(ONE_TILE, ("A",), p)
    m = canonical_domino_model(ONE_TILE, ("A",), p, tl)
    assert evaluate(m, {}, enc)


def test_canonical_domino_model_wrap_edges():
    p = HierarchyParams(1, 2)
    tl = brute_force_tiler(ONE_TILE, ("A",), 3)
    m = canonical_domino_model(ONE_TILE, ("A",), p, tl)
    chain = hierarchy_level_sets(m, 1)[1]
    # horizontal wrap: last chain element connects back to the first
    assert (chain[-1], chain[0], chain[0], chain[0]) in m.predicates["H"]
    # tiles cover each torus cell exactly once
    cells = [(a, b) for a in chain for b in chain]
    covered = set()
    for name, table in m.predicates.items():
        if name.startswith("D"):
            covered |= set(table)
    assert sorted(covered) == sorted(cells)


# tiles A and B: any horizontal neighbor, but each column keeps its tile
COLUMNS = DominoSystem(
    ("A", "B"),
    frozenset({("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")}),
    frozenset({("A", "A"), ("B", "B")}),
)


def test_asymmetric_system_with_a_two_letter_word():
    # the word chain links f1 to f2 through H, and H and V differ, so an
    # axis fold that mixes up the relations or their pairs is caught
    p, word = HierarchyParams(1, 2), ("A", "B")
    tl = brute_force_tiler(COLUMNS, word, p.torus_size().evaluate())
    m = canonical_domino_model(COLUMNS, word, p, tl)
    assert evaluate(m, {}, generate_domino_encoding(COLUMNS, word, p))
    swapped = dict(m.constants, f1=m.constants["f2"], f2=m.constants["f1"])
    assert not evaluate(
        Structure(m.universe, swapped, m.predicates), {}, generate_domino_encoding(COLUMNS, word, p)
    )
    transposed = DominoSystem(COLUMNS.tiles, COLUMNS.vertical, COLUMNS.horizontal)
    assert not evaluate(m, {}, generate_domino_encoding(transposed, word, p))


DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


@pytest.mark.parametrize(
    "name, formula",
    [
        ("hierarchy12", lambda: generate_index_hierarchy(HierarchyParams(1, 2))),
        ("hard1", lambda: generate_hard_family(1)),
    ],
)
def test_generators_print_the_frozen_benchmark_text(name, formula):
    assert S.print_formula(formula()) + "\n" == (DATA / f"{name}.txt").read_text()


# SHA-1 of canonical_key of the domino encodings at (kappa, mu) = (1, 2),
# and (2, 2) where named.  bench/data/domino1.txt is the one-tile encoding
# with the binders of the two V wrap-consistency axioms in the order
# x x2 y y2.
DOMINO_KEYS = {
    "one-tile": (ONE_TILE, ("A",), (1, 2), "31678f95232e786dc3bf71e6d0c337b6de14644e"),
    "columns": (COLUMNS, ("A", "B"), (1, 2), "b1772a452ba9c44f6b56385f2c45f74c46ff13e2"),
    "alternating": (ALTERNATING, ("A", "B"), (1, 2), "47b630ebd9484c42962730f43163853ac2511a5a"),
    "alternating-2-2": (ALTERNATING, ("A", "B"), (2, 2), "b8537646cb7eb8fbc0cd33124769d098efb3f3ef"),
}


@pytest.mark.parametrize("name", sorted(DOMINO_KEYS))
def test_domino_encoding_is_pinned(name):
    # the two-letter word pins the word chain to H, which no model check
    # above tells apart from V
    system, word, params, digest = DOMINO_KEYS[name]
    f = generate_domino_encoding(system, word, HierarchyParams(*params))
    assert hashlib.sha1(S.canonical_key(f).encode()).hexdigest() == digest


def test_canonical_domino_model_validates_tiling():
    p = HierarchyParams(1, 2)
    with pytest.raises(SizeMismatch):
        canonical_domino_model(ONE_TILE, ("A",), p, Tiling(2, {}))
    bad = Tiling(3, {(x, y): "A" for x in range(3) for y in range(3)})
    two = DominoSystem(
        ("A", "B"), frozenset({("A", "A")}), frozenset({("A", "A")})
    )
    bad2 = Tiling(3, dict(bad.cells))
    bad2.cells[(1, 1)] = "B"
    with pytest.raises(InvalidTiling):
        canonical_domino_model(two, ("A",), p, bad2)


def test_domino_system_json_round_trip():
    system, word = DominoSystem.from_json(
        '{"tiles": ["A", "B"], "H": [["A", "B"]], "V": [["A", "A"]], "word": ["A"]}'
    )
    assert system.tiles == ("A", "B")
    assert ("A", "B") in system.horizontal
    assert word == ("A",)


# --- hard family ----------------------------------------------------------------

def test_hard_family_shape_n1():
    f = generate_hard_family(1)
    sf = to_standard_form(f)
    assert len(sf.blocks) == 1
    preds = {a.name for a in S.atoms_iter(sf.matrix)}
    assert preds == {f"P{i}" for i in range(1, 5)} | {f"Q{i}" for i in range(1, 5)}


def test_hard_family_degree():
    for n in (1, 2, 3):
        assert degree(to_standard_form(generate_hard_family(n))) == n


def test_hard_family_horn_krom():
    sf = to_standard_form(generate_hard_family(1))
    flags = classify_cnf(cnf_matrix(sf.matrix))
    assert flags.horn and flags.krom


def test_hard_family_model_properties():
    f = generate_hard_family(1)
    m = hard_family_model(1)
    assert len(m.universe) == 12
    assert evaluate(m, {}, f)
    b_elements = [e for e in m.universe if e.startswith("b")]
    assert len(b_elements) == 6
    for e in b_elements:
        sub = substructure(m, set(m.universe) - {e})
        assert not evaluate(sub, {}, f)


def test_hard_family_model_infeasible_beyond_one():
    with pytest.raises(InfeasibleN):
        hard_family_model(2)


# --- equality elimination for separated sentences --------------------------------

def test_sf_equality_elim_reflexivity():
    f, _ = parse_formula("forall j. j = j")
    out = sf_equality_elim(to_standard_form(f))
    s = S.print_formula(out)
    assert "E(" in s and "=" not in s


def test_sf_equality_elim_no_equations():
    f, _ = parse_formula("forall x. P(x)")
    out = sf_equality_elim(to_standard_form(f))
    assert find_model(out, max_size=2) is not None


def test_sf_equality_elim_preserves_sf():
    rng = random.Random(31)
    for _ in range(20):
        f, _ = random_sf_sentence(rng, with_eq=True)
        sf = to_standard_form(f)
        if not is_sf(sf):
            continue
        out = sf_equality_elim(sf)
        assert is_sf(to_standard_form(out))


def test_sf_equality_elim_equisatisfiable():
    rng = random.Random(37)
    for _ in range(50):
        f, _ = random_sf_sentence(rng, with_eq=True)
        sf = to_standard_form(f)
        if not is_sf(sf):
            continue
        out = sf_equality_elim(sf)
        a = find_model(f, max_size=3) is None
        b = find_model(out, max_size=3) is None
        assert a == b


def test_sf_equality_elim_renames_only_the_axioms():
    # the sentence binds w1 and w2, as the axioms do: the sentence keeps
    # its names and the axioms take fresh ones
    f, _ = parse_formula("forall w1 w2. exists w3. (w1 = w2 | P(w1, w3)) & ~w3 = c")
    assert S.print_formula(sf_equality_elim(to_standard_form(f))) == (
        "(forall w1 w2. exists w3. (E(w1, w2) | P(w1, w3)) & ~E(w3, c))"
        " & (forall w11. E(w11, w11))"
        " & (forall w12 w21. E(w12, w21) -> E(w21, w12))"
        " & (forall w13 w22 w31. E(w13, w22) & E(w22, w31) -> E(w13, w31))"
        " & (forall w0 w14 w23. E(w14, w0) & P(w14, w23) -> P(w0, w23))"
        " & (forall w01 w15 w24. E(w24, w01) & P(w15, w24) -> P(w15, w01))"
    )


# SHA-1 of the printed sf_equality_elim and smp_to_sf (bound 2) output on
# iff_chain(8, leading)
CHAIN_TEXT = {
    False: ("ec5aebbc8eef932572fc490e412bafecad6cd917", "8d1f4b62dabfe9fa0f5e8f833ff9f9aa929427cc"),
    True: ("db24e86b655c8cd69d145bf77d6a3d6744c67e8a", "7cad493195da1dbc43abfb2b4883a3250864c4e5"),
}


@pytest.mark.parametrize("leading", [False, True])
def test_equality_elim_and_smp_on_shared_nnf_are_pinned(leading):
    f, _ = parse_formula(iff_chain(8, leading))
    outs = (sf_equality_elim(to_standard_form(f)), smp_to_sf(to_nnf(f), 2))
    digests = tuple(hashlib.sha1(S.print_formula(g).encode()).hexdigest() for g in outs)
    assert digests == CHAIN_TEXT[leading]


@pytest.mark.parametrize(
    "rewrite, leading",
    [("eliminate-eq", False), ("eliminate-eq", True), ("smp", False)],
)
def test_equality_elim_and_smp_keep_the_sharing_of_nnf(rewrite, leading):
    # to_nnf shares both polarities of each <-> operand; walked as a tree,
    # 16 operands took 4.3 s (eliminate-eq) and 2.5 s (smp)
    f, _ = parse_formula(iff_chain(40, leading))
    with deadline(5):
        if rewrite == "smp":
            out = smp_to_sf(to_nnf(f), 2)
        else:
            out = sf_equality_elim(to_standard_form(f))
    assert len(list(S.subformulas(out))) < 1000


def test_smp_output_length_ratio():
    # length grows roughly like len(f) * ceil(log2 bound); record the
    # corpus-wide factor rather than asserting an asymptotic claim
    import math

    texts = [
        ("forall x. exists y. R(x, y)", 2),
        ("exists x. forall y. R(x, y) | ~R(y, x)", 3),
        ("forall x. exists y. R(y, x) & ~R(x, x)", 4),
    ]
    for text, bound in texts:
        f, _ = parse_formula(text)
        nnf = to_nnf(f)
        t = smp_to_sf(nnf, bound)
        base = S.formula_len(nnf) * max(1, math.ceil(math.log2(bound)))
        ratio = S.formula_len(t) / base
        assert ratio < 25, (text, ratio)

"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with -s to see them on success)."""

import random
import time

from sepfrag import syntax as S
from sepfrag.analysis import degree, is_sf
from sepfrag.decide import (
    DecideConfig,
    decide_sat,
    dpll_sat,
    ground_equality_elim,
    horn_sat,
    krom_sat,
)
from sepfrag.generators import (
    DominoSystem,
    HierarchyParams,
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
)
from sepfrag.search import equivalent_upto, find_model
from sepfrag.semantics import evaluate, substructure
from sepfrag.syntax import parse_formula, to_nnf, to_standard_form
from sepfrag.translate import expand_selections, to_bsr

from util import models_extend, random_atom, random_boolean, random_sf_sentence, small_signature

INTRO_EXAMPLE = (
    "forall x1. exists y1 v1. forall x2. exists y2 v2. forall x3. exists y3 v3. "
    "(P(x1, x2, x3) & ~Q(y1, y3)) | P(y2, v2, v3) | ~Q(y3, v1)"
)


class _Timer:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} ({elapsed:6.2f}s): {self.description}")
        assert exc_type is not None or elapsed < self.limit, (
            f"criterion {self.number} exceeded its {self.limit}s budget ({elapsed:.1f}s)"
        )


def random_mfo_with_universals(rng):
    preds = ["P", "Q", "T"][: rng.randint(1, 3)]
    sig = S.Signature({p: 1 for p in preds}, set())
    names = ["x", "y", "w", "v"]
    prefix = []
    n_blocks = rng.randint(1, 3)
    for i in range(n_blocks):
        kind = S.Forall if (i == 0 or rng.random() < 0.5) else S.Exists
        prefix.append((kind, names[i]))
    leaves = [
        random_atom(rng, sig, [v for _, v in prefix]) for _ in range(rng.randint(2, 4))
    ]
    body = random_boolean(rng, leaves, allow_imp=False)
    for kind, v in reversed(prefix):
        if v in S.free_vars(body):
            body = kind((v,), body)
    if not any(isinstance(g, S.Forall) for g in S.subformulas(body)):
        body = S.Forall(("x0",), S.Or((body, S.Pred(preds[0], (S.Var("x0"),)))))
    return body


def test_criterion_01_degree_fidelity():
    with _Timer(1, "degree of the running example, the hard family, and MFO", 1.0):
        f, _ = parse_formula(INTRO_EXAMPLE)
        assert degree(to_standard_form(f)) == 2
        for n in (1, 2, 3):
            assert degree(to_standard_form(generate_hard_family(n))) == n
        rng = random.Random(2024)
        for _ in range(20):
            g = random_mfo_with_universals(rng)
            sf = to_standard_form(g)
            assert is_sf(sf)
            assert degree(sf) == 1


def test_criterion_02_sf_to_bsr_correctness():
    with _Timer(2, "translation equivalence and bound conformance on 100 sentences", 300.0):
        rng = random.Random(4025)
        count = 0
        while count < 100:
            f, _ = random_sf_sentence(rng, with_eq=True)
            sf = to_standard_form(f)
            if not is_sf(sf):
                continue
            count += 1
            bsr = to_bsr(sf)
            assert bsr.check()
            assert equivalent_upto(f, bsr.to_formula(), 3).equal
            if bsr.stats.bound_exact is not None:
                assert bsr.stats.leading_existentials <= bsr.stats.bound_exact


def test_criterion_03_selection_expansion():
    with _Timer(3, "selection-function expansion on 100 random instances", 120.0):
        rng = random.Random(88)
        from test_translate import make_instance

        for _ in range(100):
            inst = make_instance(rng, max_i=3, max_k=2)
            out = expand_selections(inst)
            n_conjuncts = len(out.parts) if isinstance(out, S.And) else 1
            assert n_conjuncts == 2 ** len(inst.index_set) - 1
            assert equivalent_upto(inst.to_formula(), out, 3).equal


def test_criterion_04_index_hierarchy():
    with _Timer(4, "hierarchy models and level cardinalities for three parameter pairs", 120.0):
        from sepfrag.analysis import twoup

        for kappa, mu in ((1, 2), (1, 3), (2, 2)):
            p = HierarchyParams(kappa, mu)
            sentence = generate_index_hierarchy(p)
            model = canonical_hierarchy_model(p)
            assert evaluate(model, {}, sentence)
            chains = hierarchy_level_sets(model, kappa)
            for level in range(1, kappa + 1):
                expect = twoup(level, mu - 1).evaluate() + 1
                assert len(chains[level]) == expect
                members = {
                    t[1] for t in model.predicates["L"] if t[0] == f"lvl{level}"
                }
                edges = {
                    (t[1], t[2])
                    for t in model.predicates["Succ"]
                    if t[0] == f"lvl{level}"
                }
                # the successor chain is unique and complete
                assert edges == set(zip(chains[level], chains[level][1:]))
                assert set(chains[level]) == members


def test_criterion_05_domino_encoding():
    with _Timer(5, "one-tile torus encoding with canonical model", 60.0):
        system = DominoSystem(("A",), frozenset({("A", "A")}), frozenset({("A", "A")}))
        p = HierarchyParams(1, 2)
        t = p.torus_size().evaluate()
        assert t == 3
        tiling = brute_force_tiler(system, ("A",), t)
        assert tiling is not None
        encoding = generate_domino_encoding(system, ("A",), p)
        model = canonical_domino_model(system, ("A",), p, tiling)
        assert evaluate(model, {}, encoding)
        chain = hierarchy_level_sets(model, 1)[1]
        cells = [(a, b) for a in chain for b in chain]
        per_cell = {c: 0 for c in cells}
        for name, table in model.predicates.items():
            if name.startswith("D"):
                for cell in table:
                    per_cell[cell] += 1
        assert all(v == 1 for v in per_cell.values())


def test_criterion_06_hard_family_witness():
    with _Timer(6, "12-element witness and all single-removal refutations", 10.0):
        sentence = generate_hard_family(1)
        model = hard_family_model(1)
        assert len(model.universe) == 12
        assert evaluate(model, {}, sentence)
        b_elements = [e for e in model.universe if e.startswith("b")]
        assert len(b_elements) == 6
        for e in b_elements:
            sub = substructure(model, set(model.universe) - {e})
            assert not evaluate(sub, {}, sentence)


def test_criterion_07_small_model_translation():
    with _Timer(7, "small-model translation projects and extends on 10 sentences", 300.0):
        texts = [
            "forall x. exists y. R(x, y)",
            "exists x. forall y. R(x, y) | ~R(y, x)",
            "forall x. exists y. R(y, x) & ~R(x, x)",
            "(exists x. P(x)) & (forall y. exists w. P(w) | R(y, y))",
            "exists>=2 y. y = y",
            "exists>=3 y. P(y)",
            "exists>=4 y. y = y",
            "(exists x. P(x)) & (exists y. U(y)) & (forall z. ~P(z) | ~U(z))",
            "exists z. forall x. R(z, x)",
            "forall x. exists y. (~P(x) | ~P(y)) & (P(x) | P(y))",
        ]
        for text in texts:
            f, _ = parse_formula(text)
            f = expand_counting(f).formula
            nnf = to_nnf(f)
            witness = find_model(nnf, max_size=4)
            assert witness is not None, text
            bound = len(witness.universe)
            translated = smp_to_sf(nnf, bound)
            base_preds = {
                a.name for a in S.atoms_iter(nnf) if isinstance(a, S.Pred)
            }
            qpreds = {
                a.name
                for a in S.atoms_iter(translated)
                if isinstance(a, S.Pred)
            } - base_preds
            for size in range(1, bound + 1):
                # (a) every model of the translation models the original
                assert equivalent_upto(
                    S.And((translated, S.Not(nnf))), S.Bottom(), size
                ).equal, text
                # (b) every small model of the original extends
                ok, _ = models_extend(nnf, translated, qpreds, size)
                assert ok, (text, size)


def test_criterion_08_equality_elimination():
    with _Timer(8, "ground and separated equality elimination, both directions", 300.0):
        rng = random.Random(505)
        for _ in range(50):
            sig = small_signature(rng, max_preds=2, max_bits=9)
            sig.constants = {"c", "d", "e"}
            leaves = [random_atom(rng, sig, [], with_eq=True) for _ in range(4)]
            ground = random_boolean(rng, leaves, allow_imp=False)
            eliminated = ground_equality_elim(ground)
            assert (find_model(ground, max_size=3) is None) == (
                find_model(eliminated, max_size=3) is None
            )
        done = 0
        while done < 50:
            f, _ = random_sf_sentence(rng, with_eq=True)
            sf = to_standard_form(f)
            if not is_sf(sf):
                continue
            done += 1
            out = sf_equality_elim(sf)
            assert (find_model(f, max_size=3) is None) == (
                find_model(out, max_size=3) is None
            )


def test_criterion_09_propositional_backends():
    with _Timer(9, "backend agreement and truth-table cross-check", 120.0):
        from test_decide import assert_against_truth_table, random_cnf, random_horn, random_krom

        rng = random.Random(606)
        for _ in range(200):
            c = random_cnf(rng)
            assert_against_truth_table(c, dpll_sat(c))
        for _ in range(200):
            c = random_horn(rng)
            assert_against_truth_table(c, horn_sat(c))
        for _ in range(200):
            c = random_krom(rng)
            assert_against_truth_table(c, krom_sat(c))


def test_criterion_10_decision_agreement():
    with _Timer(10, "decide_sat against raw model search on 100 sentences", 600.0):
        rng = random.Random(707)
        count = 0
        while count < 100:
            f, _ = random_sf_sentence(rng, with_eq=True)
            sf = to_standard_form(f)
            if not is_sf(sf):
                continue
            count += 1
            raw = find_model(f, max_size=4)
            verdict = decide_sat(f, DecideConfig(max_model_size=4))
            if raw is not None:
                assert verdict.status == "sat"
                assert evaluate(verdict.structure, {}, f)
            else:
                bound = verdict.details.get("bound")
                if bound is not None and bound <= 4:
                    assert verdict.status == "unsat"
                else:
                    assert verdict.status in ("unsat", "inconclusive")
            if verdict.status == "sat":
                assert evaluate(verdict.structure, {}, f)


def test_criterion_11_counting_quantifiers():
    with _Timer(11, "minimal models of expanded counting quantifiers", 10.0):
        for k in (1, 2, 3):
            f, _ = parse_formula(f"exists>={k} y. y = y")
            expanded = expand_counting(f).formula
            model = find_model(expanded, max_size=4)
            assert model is not None and len(model.universe) == k
            if k > 1:
                assert find_model(expanded, max_size=k - 1) is None

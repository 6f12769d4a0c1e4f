import itertools
import random

import pytest

from sepfrag import syntax as S
from sepfrag.decide import (
    DecideConfig,
    PropCnf,
    decide_sat,
    dpll_sat,
    equality_axioms,
    ground_equality_elim,
    horn_sat,
    krom_sat,
    prop_cnf,
    skolemize_existential,
    to_propositional,
)
from sepfrag.errors import ClauseBudgetExceeded, HasUniversals, NotGround, NotHorn, NotKrom
from sepfrag.generators import expand_counting, generate_hard_family
from sepfrag.search import find_model
from sepfrag.semantics import evaluate
from sepfrag.syntax import parse_formula, print_formula

from util import random_atom, random_boolean, random_sf_sentence, small_signature


# --- skolemization -----------------------------------------------------------

def test_skolemize_single():
    f, _ = parse_formula("exists x. P(x)")
    assert print_formula(skolemize_existential(S.to_standard_form(f))) == "P(sk1)"


def test_skolemize_with_equation():
    f, _ = parse_formula("exists x y. R(x, y) & x = y")
    g = skolemize_existential(S.to_standard_form(f))
    assert print_formula(g) == "R(sk1, sk2) & sk1 = sk2"


def test_skolemize_avoids_taken_names():
    # the constant sk1 and the variable sk2 are both reserved
    f, _ = parse_formula("exists sk2 x. P(sk2, sk1, x)")
    g = skolemize_existential(S.to_standard_form(f))
    assert print_formula(g) == "P(sk1#1, sk1, sk2#1)"


def test_skolemize_rejects_universals():
    f, _ = parse_formula("forall x. P(x)")
    with pytest.raises(HasUniversals):
        skolemize_existential(S.to_standard_form(f))
    g, _ = parse_formula("~(exists x. P(x))")  # hidden universal
    with pytest.raises(HasUniversals):
        skolemize_existential(S.to_standard_form(g))


def test_skolemize_equisatisfiable_random():
    rng = random.Random(3)
    for _ in range(50):
        sig = small_signature(rng, max_consts=1)
        vars_ = ["v1", "v2"]
        leaves = [random_atom(rng, sig, vars_, with_eq=True) for _ in range(3)]
        f = S.Exists(tuple(vars_), random_boolean(rng, leaves, allow_imp=False))
        g = skolemize_existential(S.to_standard_form(f))
        n = len(S.constants_of(g)) or 1
        assert (find_model(f, max_size=n) is None) == (find_model(g, max_size=n) is None)


# --- equality elimination ----------------------------------------------------

def test_elim_reflexivity_present():
    f, _ = parse_formula("c = c")
    g = ground_equality_elim(f)
    s = print_formula(g)
    assert "E(c, c)" in s
    assert "=" not in s


def test_elim_requires_ground():
    with pytest.raises(NotGround):
        ground_equality_elim(S.Pred("P", (S.Var("x"),)))


def test_elim_no_equations_appends_axioms_only():
    f, _ = parse_formula("P(c)")
    g = ground_equality_elim(f)
    assert isinstance(g, S.And)
    assert g.parts[0] == f


def test_elim_golden_output():
    f, _ = parse_formula("P(c) & c = d & ~P(d)")
    assert print_formula(ground_equality_elim(f)) == (
        "P(c) & E(c, d) & ~P(d) & E(c, c) & E(d, d) & (E(c, d) -> E(d, c)) & "
        "(E(d, c) -> E(c, d)) & (E(c, c) & E(c, d) -> E(c, d)) & "
        "(E(c, d) & E(d, c) -> E(c, c)) & (E(c, d) & E(d, d) -> E(c, d)) & "
        "(E(d, c) & E(c, c) -> E(d, c)) & (E(d, c) & E(c, d) -> E(d, d)) & "
        "(E(d, d) & E(d, c) -> E(d, c)) & (E(c, d) & P(c) -> P(d)) & "
        "(E(d, c) & P(d) -> P(c))"
    )


def test_elim_unsat_by_congruence():
    f, _ = parse_formula("P(c) & c = d & ~P(d)")
    g = ground_equality_elim(f)
    tree, amap = to_propositional(g)
    assert dpll_sat(prop_cnf(tree, amap)).status == "unsat"


def test_elim_equisatisfiable_random():
    rng = random.Random(5)
    for _ in range(50):
        sig = small_signature(rng, max_preds=2, max_bits=9)
        sig.constants = {"c", "d", "e"}
        leaves = [random_atom(rng, sig, [], with_eq=True) for _ in range(4)]
        f = random_boolean(rng, leaves, allow_imp=False)
        g = ground_equality_elim(f)
        a = find_model(f, max_size=3) is None
        b = find_model(g, max_size=3) is None
        assert a == b


# --- propositional abstraction -------------------------------------------------

def test_abstraction_tautology():
    f, _ = parse_formula("P(c) | ~P(c)")
    tree, amap = to_propositional(f)
    assert len(amap.atoms) == 1
    cnf = prop_cnf(tree, amap)
    assert dpll_sat(cnf).status == "sat"


def test_abstraction_preserves_horn_krom():
    f, _ = parse_formula("(~P(c) | Q(c)) & (~Q(c) | P(d))")
    tree, amap = to_propositional(f)
    cnf = prop_cnf(tree, amap)
    assert all(sum(1 for l in cl if l > 0) <= 1 for cl in cnf.clauses)  # Horn
    assert all(len(cl) <= 2 for cl in cnf.clauses)  # Krom


def test_abstraction_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        sig = small_signature(rng, max_bits=9)
        sig.constants = {"c", "d"}
        leaves = [random_atom(rng, sig, []) for _ in range(3)]
        f = random_boolean(rng, leaves, allow_imp=False)
        tree, amap = to_propositional(f)
        cnf = prop_cnf(tree, amap)
        v = dpll_sat(cnf)
        sat = find_model(f, max_size=2) is not None
        assert (v.status == "sat") == sat


def formula_route_cnf(g: S.Formula):
    """The reference abstraction: atoms become nullary predicates q0,
    q1, ... in first-occurrence order, then `to_nnf` and `cnf_matrix`."""
    index = {}

    def walk(h):
        if isinstance(h, S.Pred):
            return S.Pred(f"q{index.setdefault(h, len(index))}", ())
        return S.rebuild(h, [walk(k) for k in S.children(h)])

    m = S.cnf_matrix(S.to_nnf(walk(g)))
    clauses = tuple(
        tuple((int(l.atom.name[1:]) + 1) * (1 if l.positive else -1) for l in cl)
        for cl in m.clauses
    )
    return len(index), clauses


def test_prop_cnf_matches_formula_route():
    rng = random.Random(29)
    with_eq = 0
    for i in range(200):
        sig = small_signature(rng, max_bits=9)
        sig.constants = {"c", "d", "e"}
        leaves = [random_atom(rng, sig, [], with_eq=i % 2 == 0) for _ in range(5)]
        f = random_boolean(rng, leaves + [S.TRUE, S.FALSE], max_depth=4)
        if any(isinstance(a, S.Eq) for a in S.atoms_iter(f)):
            with_eq += 1
            replaced, ename = S.equality_as_predicate(f, S.infer_signature(f).predicates)
            cnf = prop_cnf(*to_propositional(replaced, equality_axioms(f, ename)))
            expected = formula_route_cnf(ground_equality_elim(f))
        else:
            cnf = prop_cnf(*to_propositional(f))
            expected = formula_route_cnf(f)
        assert (cnf.num_vars, cnf.clauses) == expected, print_formula(f)
    assert with_eq >= 50


def test_decide_clause_budget():
    wide = [" & ".join(f"{p}(a{i})" for i in range(1, 1002)) for p in "PQ"]
    f, _ = parse_formula(f"({wide[0]}) | ({wide[1]})")
    with pytest.raises(ClauseBudgetExceeded):
        decide_sat(f)


def test_decide_clause_budget_checked_before_the_product():
    # 21 two-clause disjuncts: 2^21 clauses; the budget is checked on the
    # clause counts, before the product is built
    import tracemalloc

    f, _ = parse_formula(" | ".join(f"(P(a{i}) <-> Q(a{i}))" for i in range(21)))
    tracemalloc.start()
    try:
        with pytest.raises(ClauseBudgetExceeded):
            decide_sat(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# --- the SAT solver -----------------------------------------------------------

def truth_table_sat(c: PropCnf):
    for bits in itertools.product([False, True], repeat=c.num_vars):
        val = dict(enumerate(bits, start=1))
        if all(any((l > 0) == val[abs(l)] for l in cl) for cl in c.clauses):
            return True
    return False


def assert_against_truth_table(c: PropCnf, v):
    """The verdict agrees with the truth table, and a SAT assignment
    satisfies every clause."""
    assert (v.status == "sat") == truth_table_sat(c)
    if v.status == "sat":
        assert all(any((l > 0) == v.assignment[abs(l)] for l in cl) for cl in c.clauses)


def random_cnf(rng, max_vars=12, max_clauses=16, width=3):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        k = rng.randint(1, width)
        clause = tuple(
            rng.choice([1, -1]) * rng.randint(1, n) for _ in range(k)
        )
        clauses.append(clause)
    return PropCnf(n, tuple(clauses))


def random_horn(rng, max_vars=10, max_clauses=14):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        body = [-rng.randint(1, n) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.75:
            body.append(rng.randint(1, n))
        if not body:
            body = [rng.randint(1, n)]
        clauses.append(tuple(body))
    return PropCnf(n, tuple(clauses))


def random_krom(rng, max_vars=10, max_clauses=14):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        k = rng.randint(1, 2)
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(k)))
    return PropCnf(n, tuple(clauses))


def test_dpll_empty_and_contradiction():
    assert dpll_sat(PropCnf(0, ())).status == "sat"
    assert dpll_sat(PropCnf(1, ((1,), (-1,)))).status == "unsat"


def test_dpll_vs_truth_table():
    rng = random.Random(11)
    for _ in range(200):
        c = random_cnf(rng)
        assert_against_truth_table(c, dpll_sat(c))


def test_horn_examples():
    v = horn_sat(PropCnf(2, ((1,), (-1, 2))))
    assert v.status == "sat" and v.assignment == {1: True, 2: True}
    assert horn_sat(PropCnf(1, ((1,), (-1,)))).status == "unsat"


def test_horn_rejects_non_horn():
    with pytest.raises(NotHorn):
        horn_sat(PropCnf(2, ((1, 2),)))


def test_horn_vs_truth_table():
    rng = random.Random(13)
    for _ in range(200):
        c = random_horn(rng)
        assert_against_truth_table(c, horn_sat(c))


def test_krom_examples():
    assert krom_sat(PropCnf(2, ((1, 2), (-1, 2), (-2,)))).status == "unsat"
    assert krom_sat(PropCnf(2, ((1, 2),))).status == "sat"


def test_krom_rejects_wide_clause():
    with pytest.raises(NotKrom):
        krom_sat(PropCnf(3, ((1, 2, 3),)))


def test_krom_vs_truth_table():
    rng = random.Random(17)
    for _ in range(200):
        c = random_krom(rng)
        assert_against_truth_table(c, krom_sat(c))


def pigeonhole(pigeons: int, holes: int) -> PropCnf:
    def var(i, j):
        return i * holes + j + 1

    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    clauses += [
        (-var(i, j), -var(k, j))
        for j in range(holes)
        for i in range(pigeons)
        for k in range(i + 1, pigeons)
    ]
    return PropCnf(pigeons * holes, tuple(clauses))


def test_pigeonhole_7_into_6_unsat():
    assert dpll_sat(pigeonhole(7, 6)).status == "unsat"


def test_krom_core_behind_free_pairs_unsat():
    # an unsatisfiable core on the two highest variables, decided last;
    # chronological backtracking would retry all 2^20 settings of the
    # pairs before it, backjumping learns the core's unit at once
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(20)]
    core = [(41, 42), (-41, 42), (41, -42), (-41, -42)]
    assert krom_sat(PropCnf(42, tuple(pairs + core))).status == "unsat"


# --- the pipeline --------------------------------------------------------------

def test_decide_existential_contradiction():
    f, _ = parse_formula("exists z. P(z) & ~P(z)")
    assert decide_sat(f).status == "unsat"


def test_decide_nullary_predicates():
    p, q = S.Pred("P", ()), S.Pred("Q", ())
    v = decide_sat(p)
    assert v.status == "sat" and v.structure.predicates["P"] == {()}
    assert decide_sat(S.And((p, S.Not(q)))).status == "sat"
    assert decide_sat(S.And((p, S.Not(p)))).status == "unsat"


def test_decide_universal_search():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    v = decide_sat(f)
    assert v.status == "sat" and len(v.structure.universe) == 1


def test_decide_hard_family_member():
    v = decide_sat(generate_hard_family(1))
    assert v.status == "sat" and len(v.structure.universe) == 1


def test_decide_counting_minimal_models():
    for k in (1, 2, 3):
        f, _ = parse_formula(f"exists>={k} y. y = y")
        e = expand_counting(f).formula
        v = decide_sat(e)
        assert v.status == "sat"
        assert len(v.structure.universe) == k
        if k > 1:
            assert find_model(e, max_size=k - 1) is None


def test_decide_witnesses_reevaluate():
    rng = random.Random(19)
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    for _ in range(40):
        f, _ = random_sf_sentence(rng, with_eq=True)
        v = decide_sat(f, DecideConfig(max_model_size=3))
        if v.status == "sat":
            assert evaluate(v.structure, {}, f)


def test_decide_unsat_with_exact_bound():
    # BSR shape: bound = |leading| + #constants = 1, search is conclusive
    f, _ = parse_formula("forall x. P(x) & ~P(x)")
    v = decide_sat(f)
    assert v.status == "unsat"
    assert v.details["bound"] == 1


def test_decide_inconclusive_reports_bound():
    # degree-2 sentence whose bounds stay astronomically large
    f, _ = parse_formula(
        "forall x1. exists y1. forall x2. exists y2. "
        "(P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1)) & ~R(c, c)"
    )
    cfg = DecideConfig(max_model_size=1)
    v = decide_sat(f, cfg)
    assert v.status in ("sat", "inconclusive")


def test_decide_analyses_each_form_once(monkeypatch):
    # the analysis bound and to_bsr both ask for the bounds and the
    # fragment of the same standard form; each is computed once
    from sepfrag import analysis

    calls = {"degree": 0, "is_separated": 0}
    for name in calls:
        real = getattr(analysis, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(analysis, name, counted)
    # no one-element model, so the translation runs
    f, _ = parse_formula("forall x11 x12. exists y11. (~P(y11) & Q(x12)) & P(x11)")
    v = decide_sat(f, DecideConfig(max_model_size=2))
    assert v.status == "unsat"
    assert v.details["translation_bound"] == 1
    assert v.details["bound"] == v.details["search_limit"] == 1
    assert calls == {"degree": 1, "is_separated": 1}


def test_decide_one_element_model_skips_translation(monkeypatch):
    from sepfrag import translate

    def refuse(*args, **kwargs):
        raise AssertionError("to_bsr called although size 1 has a model")

    monkeypatch.setattr(translate, "to_bsr", refuse)
    f, _ = parse_formula(
        "forall x1. exists y1. forall x2. exists y2. (P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))"
    )
    v = decide_sat(f, DecideConfig(max_model_size=2))
    assert v.status == "sat"
    assert v.structure == find_model(f, max_size=2)
    assert "translation_bound" not in v.details


def test_decide_max_model_size_zero_searches_nothing():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    v = decide_sat(f, DecideConfig(max_model_size=0))
    assert v.status == "inconclusive"
    assert v.details["search_limit"] == 0


def _bound_first(f, max_size):
    """decide_sat's model-search route with the bound completed first:
    analysis bounds and the BSR translation, then one search up to the
    smaller of the bound and max_size."""
    from sepfrag import analysis
    from sepfrag.errors import BudgetExceeded
    from sepfrag.translate import to_bsr

    expanded = expand_counting(f).formula
    sf = S.to_standard_form(expanded)
    bound, details = None, {}
    if analysis.is_sf(sf):
        rep = analysis.bounds(sf)
        details["degree_bound"] = str(rep.model_size)
        exact = (rep.model_size.evaluate(), rep.bsr_model_size, rep.mfo_model_size)
        candidates = [b for b in exact if b is not None]
        if not analysis.is_bsr(sf):
            try:
                bsr = to_bsr(
                    sf, selection_cap=2000, conjunct_cap=2000, clause_budget=2000,
                    dnf_term_cap=512,
                )
                candidates.append(max(len(bsr.leading) + len(S.constants_of(sf.matrix)), 1))
                details["translation_bound"] = candidates[-1]
            except BudgetExceeded:
                pass
        bound = min(candidates, default=None)
    limit = max_size if bound is None else min(bound, max_size)
    details.update({"path": "model-search", "bound": bound, "search_limit": limit})
    witness = find_model(expanded, max_size=limit)
    if witness is not None:
        return "sat", witness, details
    return ("unsat" if bound is not None and bound <= max_size else "inconclusive"), None, details


def test_decide_matches_bound_first_route(monkeypatch):
    # the size-1 probe changes when the translation runs, not what is
    # searched or answered
    from sepfrag import translate
    from sepfrag.search import ModelSearch

    searched, translations = [], [0]
    real_run, real_pushed = ModelSearch.run, translate._pushed

    def run(self, max_size, min_size=1):
        searched.extend(range(min_size, max_size + 1))
        return real_run(self, max_size, min_size)

    def pushed(*args, **kwargs):
        # the block pushing that every translation route starts with
        translations[0] += 1
        return real_pushed(*args, **kwargs)

    rng = random.Random(41)
    kinds = {"size 1": 0, "size 2+": 0, "unsat": 0, "inconclusive": 0}
    for _ in range(200):
        f, _ = random_sf_sentence(rng, with_eq=True)
        if not S.to_standard_form(f).universal_vars:
            continue
        status, witness, details = _bound_first(f, 3)
        searched.clear()
        translations[0] = 0
        with monkeypatch.context() as m:
            m.setattr(ModelSearch, "run", run)
            m.setattr(translate, "_pushed", pushed)
            v = decide_sat(f, DecideConfig(max_model_size=3))
        assert (v.status, v.structure) == (status, witness), print_formula(f)
        if status == "sat" and len(witness.universe) == 1:
            kinds["size 1"] += 1
            assert searched == [1]
            assert translations[0] == 0 and "translation_bound" not in v.details
        else:
            kinds["size 2+" if status == "sat" else status] += 1
            assert sorted(searched) == list(range(1, v.details["search_limit"] + 1))
            assert v.details == details, print_formula(f)
    assert min(kinds.values()) >= 5, kinds


def test_decide_prepares_the_search_once(monkeypatch):
    # size 1 is searched as written; sizes 2 and up share one
    # scope-minimized form and one memo plan
    from sepfrag import search

    calls = {"scope_minimized": 0, "_memo_plan": 0}
    for name in calls:
        real = getattr(search, name)

        def counted(f, real=real, name=name):
            calls[name] += 1
            return real(f)

        monkeypatch.setattr(search, name, counted)
    rng = random.Random(43)
    kinds = {"size 1": 0, "searched past size 1": 0}
    for _ in range(200):
        f, _ = random_sf_sentence(rng, max_blocks=3, with_eq=True)
        if not S.to_standard_form(f).universal_vars:
            continue
        for name in calls:
            calls[name] = 0
        v = decide_sat(f, DecideConfig(max_model_size=3))
        if v.structure is not None and len(v.structure.universe) == 1:
            kind, want = "size 1", 0
        else:
            want = int(v.details["search_limit"] >= 2)
            kind = "searched past size 1" if want else None
        assert calls == {"scope_minimized": want, "_memo_plan": want}, print_formula(f)
        if kind:
            kinds[kind] += 1
    assert min(kinds.values()) >= 20, kinds


def test_decide_krom_with_equality_routed_away():
    # equality elimination breaks the Krom property of this input
    f, _ = parse_formula("exists x y. (P(x) | P(y)) & x = y")
    v = decide_sat(f)
    assert v.status == "sat"


def test_decide_wide_ground_input():
    # 400 disjoint clauses over 1200 atoms: deep for a recursive solver
    f, _ = parse_formula(" & ".join(f"(P(a{i}) | P(b{i}) | P(c{i}))" for i in range(400)))
    v = decide_sat(f)
    assert v.status == "sat" and v.details["backend"] == "cdcl"
    assert evaluate(v.structure, {}, f)


def test_decide_agreement_with_find_model():
    rng = random.Random(23)
    import sys

    sys.path.insert(0, "tests")
    from util import random_sf_sentence

    agreements = 0
    for _ in range(50):
        f, _ = random_sf_sentence(rng, with_eq=True)
        raw = find_model(f, max_size=3)
        v = decide_sat(f, DecideConfig(max_model_size=3))
        if raw is not None:
            assert v.status == "sat"
            agreements += 1
        elif v.status == "unsat":
            assert raw is None
    assert agreements >= 20

import itertools
import random

import pytest

from sepfrag import syntax as S
from sepfrag.decide import (
    DecideConfig,
    PropCnf,
    decide_sat,
    dpll_sat,
    ground_equality_elim,
    horn_sat,
    krom_sat,
    prop_cnf,
    skolemize_existential,
    to_propositional,
)
from sepfrag.errors import HasUniversals, NotGround, NotHorn, NotKrom
from sepfrag.generators import expand_counting, generate_hard_family
from sepfrag.search import find_model
from sepfrag.semantics import evaluate
from sepfrag.syntax import parse_formula, print_formula

from util import random_atom, random_boolean, small_signature


# --- skolemization -----------------------------------------------------------

def test_skolemize_single():
    f, _ = parse_formula("exists x. P(x)")
    assert print_formula(skolemize_existential(f)) == "P(sk1)"


def test_skolemize_with_equation():
    f, _ = parse_formula("exists x y. R(x, y) & x = y")
    g = skolemize_existential(f)
    assert print_formula(g) == "R(sk1, sk2) & sk1 = sk2"


def test_skolemize_rejects_universals():
    f, _ = parse_formula("forall x. P(x)")
    with pytest.raises(HasUniversals):
        skolemize_existential(f)
    g, _ = parse_formula("~(exists x. P(x))")  # hidden universal
    with pytest.raises(HasUniversals):
        skolemize_existential(g)


def test_skolemize_equisatisfiable_random():
    rng = random.Random(3)
    for _ in range(50):
        sig = small_signature(rng, max_consts=1)
        vars_ = ["v1", "v2"]
        leaves = [random_atom(rng, sig, vars_, with_eq=True) for _ in range(3)]
        f = S.Exists(tuple(vars_), random_boolean(rng, leaves, allow_imp=False))
        g = skolemize_existential(f)
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
    # _model_bound and to_bsr both ask for the bounds and the fragment of
    # the same standard form; each is computed once
    from sepfrag import analysis

    calls = {"degree": 0, "is_separated": 0}
    for name in calls:
        real = getattr(analysis, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(analysis, name, counted)
    f, _ = parse_formula(
        "forall x1. exists y1. forall x2. exists y2. (P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))"
    )
    v = decide_sat(f, DecideConfig(max_model_size=2))
    assert "translation_bound" in v.details
    assert calls == {"degree": 1, "is_separated": 1}


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

import itertools
import random
import time
from collections import Counter

import pytest

from sepfrag import analysis, syntax as S
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
from sepfrag.errors import ArityMismatch, HasUniversals, NotASentence, NotGround, NotHorn, NotKrom, NotNNF, TooDeep
from sepfrag.generators import expand_counting, generate_hard_family
from sepfrag.search import ModelSearch, equivalent_upto, find_model
from sepfrag.semantics import evaluate
from sepfrag.syntax import parse_formula, print_formula

from util import deadline, iff_chain, random_atom, random_boolean, random_sf_sentence, small_signature


# --- skolemization -----------------------------------------------------------

def test_skolemize_single():
    f, _ = parse_formula("exists x. P(x)")
    assert print_formula(skolemize_existential(f)) == "P(sk1)"


def test_skolemize_with_equation():
    f, _ = parse_formula("exists x y. R(x, y) & x = y")
    g = skolemize_existential(f)
    assert print_formula(g) == "R(sk1, sk2) & sk1 = sk2"


def test_skolemize_avoids_taken_names():
    # the constant sk1 and the variable sk2 are both reserved
    f, _ = parse_formula("exists sk2 x. P(sk2, sk1, x)")
    g = skolemize_existential(f)
    assert print_formula(g) == "P(sk1#1, sk1, sk2#1)"


def test_skolemize_numbers_binders_in_pre_order():
    # a vacuous exists takes a number too, and a vacuous forall sibling
    # does not move the exists beneath it behind its neighbour's
    f, _ = parse_formula("exists w x. P(x)")
    assert print_formula(skolemize_existential(f)) == "P(sk2)"
    g, _ = parse_formula("(forall w. exists y. P(y)) & (exists x. Q(x))")
    assert print_formula(skolemize_existential(g)) == "P(sk1) & Q(sk2)"


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


# --- the survey and the route ------------------------------------------------


def _random_quantified(rng, depth=0, scope=()):
    """A random formula over the variables x, y and z, so that binders
    shadow each other, the constants a and b, P/1, Q/2 and equations,
    with plain and counting quantifiers under ~, -> and <->, true and
    false, and now and then the free variable w."""
    if depth >= 4 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return rng.choice([S.TRUE, S.FALSE])
        pool = [S.Var(v) for v in scope] + [S.Const("a"), S.Const("b")]
        pool += [S.Var("w")] if rng.random() < 0.03 else []
        roll = rng.random()
        if roll < 0.45:
            return S.Pred("P", (rng.choice(pool),))
        if roll < 0.85:
            return S.Pred("Q", (rng.choice(pool), rng.choice(pool)))
        return S.Eq(rng.choice(pool), rng.choice(pool))
    roll = rng.random()
    if roll < 0.35:
        names = tuple(rng.sample("xyz", rng.randint(1, 2)))
        body = _random_quantified(rng, depth + 1, scope + names)
        kind = rng.random()
        if kind < 0.4:
            return S.Forall(names, body)
        if kind < 0.8:
            return S.Exists(names, body)
        return S.CountingExists(rng.randint(1, 3), names, body)
    parts = [_random_quantified(rng, depth + 1, scope) for _ in range(2)]
    if roll < 0.5:
        return S.Not(parts[0])
    if roll < 0.65:
        return S.And(tuple(parts))
    if roll < 0.75:
        return S.Or(tuple(parts))
    if roll < 0.9:
        return S.Implies(*parts)
    return S.Iff(*parts)


def test_survey_agrees_with_the_walks_it_replaces():
    # the route flag against an attempted Skolemization of the expanded
    # sentence, and the names and arities against reference walks
    rng = random.Random(29)
    routes = Counter()
    for i in range(5000):
        f = _random_quantified(rng)
        s = S.survey(f)
        atoms = list(S.atoms_iter(f))
        arities = {}
        for a in atoms:
            if type(a) is S.Pred:
                arities.setdefault(a.name, len(a.args))
        terms = [t for a in atoms for t in (a.args if type(a) is S.Pred else (a.left, a.right))]
        assert s.free == S.free_vars(f)
        assert s.consts == {t.name for t in terms if type(t) is S.Const}
        assert list(s.predicates.items()) == list(arities.items()) and s.clash is None
        assert s.counting == any(type(g) is S.CountingExists for g in S.subformulas(f))
        if s.free:
            routes["open"] += 1
            continue
        expanded = expand_counting(f).formula
        try:
            skolemize_existential(expanded)
            universal = False
        except HasUniversals:
            universal = True
        assert S.survey(expanded).universal == universal, print_formula(f)
        if not s.counting:
            assert S.survey(S.to_nnf(f)).universal == universal  # a DAG under <->
        routes[universal, s.counting] += 1
        if i % 50 == 0:
            path = decide_sat(f, DecideConfig(max_model_size=0)).details["path"]
            assert path == ("model-search" if universal else "propositional")
    assert min(routes.values()) >= 100, routes


@pytest.mark.parametrize(
    "text, path",
    [
        ("forall x. P(a)", "propositional"),
        ("exists x. P(x) & (forall y. Q(c))", "propositional"),
        ("~(exists x. P(x) & ~P(x))", "model-search"),
        ("~(exists>=2 y. Q(a))", "model-search"),  # a universal only once expanded
        ("exists x. (P(x) <-> Q(a))", "propositional"),
        ("(exists x. P(x)) <-> Q(a)", "model-search"),
    ],
)
def test_decide_routes_on_the_survey(text, path):
    f, _ = parse_formula(text)
    assert decide_sat(f).details["path"] == path


@pytest.mark.parametrize(
    "text", ["forall x. P(x) | (exists>=2 y. Q(y))", "~(exists>=2 y. Q(a))", "exists>=2 y. Q(y)"]
)
def test_decide_surveys_a_counting_sentence_once(monkeypatch, text):
    # expand_counting reads the survey that decide_sat routes on
    f, _ = parse_formula(text)
    surveyed = []
    real = S.survey

    def survey(g):
        surveyed.append(g)
        return real(g)

    monkeypatch.setattr(S, "survey", survey)
    decide_sat(f)
    assert sum(g is f for g in surveyed) == 1


def test_a_predicate_at_two_arities_raises_arity_mismatch():
    a, b, x = S.Const("a"), S.Const("b"), S.Var("x")
    ground = S.And((S.Pred("P", (a,)), S.Pred("P", (a, b))))
    universal = S.Forall(("x",), S.Or((S.Pred("P", (x,)), S.Pred("P", (x, x)))))
    for f in (ground, universal):
        with pytest.raises(ArityMismatch):
            decide_sat(f)
        with pytest.raises(ArityMismatch):
            ModelSearch(f)
        with pytest.raises(ArityMismatch):
            equivalent_upto(f, S.TRUE, 1)
    with pytest.raises(ArityMismatch):  # one arity on each side
        equivalent_upto(ground.parts[0], ground.parts[1], 1)


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
    assert dpll_sat(prop_cnf(*to_propositional(S.to_nnf(ground_equality_elim(f))))).status == "unsat"
    assert dpll_sat(prop_cnf(*to_propositional(f, "E"))).status == "unsat"


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
    tree, amap, axioms = to_propositional(f)
    assert len(amap.atoms) == 1 and axioms == []
    cnf = prop_cnf(tree, amap)
    assert dpll_sat(cnf).status == "sat"


def test_abstraction_names_equality_from_its_atoms():
    # without ename, E avoids the predicate names the walk numbered
    f, _ = parse_formula("E(c, d) & c = d & ~P(c)")
    tree, amap, axioms = to_propositional(f)
    assert amap.equality == "E1"
    assert (tree, amap, axioms) == to_propositional(f, "E1")
    g, _ = parse_formula("P(c) | ~P(d)")
    _, amap, axioms = to_propositional(g)
    assert amap.equality is None and axioms == []


@pytest.mark.parametrize("text", ["P(c) -> Q(c)", "P(c) <-> Q(c)", "~(P(c) & Q(c))"])
def test_int_tree_walks_need_nnf(text):
    # only `to_nnf` rewrites -> and <-> and pushes ~
    f, _ = parse_formula(text)
    with pytest.raises(NotNNF):
        S.nnf_tree(f, lambda a: 1)
    with pytest.raises(NotNNF):
        S.cnf_matrix(f)
    with pytest.raises(NotNNF):
        to_propositional(f)


def test_cnf_matrix_rejects_a_quantifier():
    with pytest.raises(NotNNF):
        S.cnf_matrix(parse_formula("forall x. P(x)")[0])


def test_abstraction_preserves_horn_krom():
    f, _ = parse_formula("(~P(c) | Q(c)) & (~Q(c) | P(d))")
    cnf = prop_cnf(*to_propositional(f))
    assert all(sum(1 for l in cl if l > 0) <= 1 for cl in cnf.clauses)  # Horn
    assert all(len(cl) <= 2 for cl in cnf.clauses)  # Krom


def test_abstraction_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        sig = small_signature(rng, max_bits=9)
        sig.constants = {"c", "d"}
        leaves = [random_atom(rng, sig, []) for _ in range(3)]
        f = random_boolean(rng, leaves, allow_imp=False)
        v = dpll_sat(prop_cnf(*to_propositional(S.to_nnf(f))))
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


def clause_set(clauses):
    return {frozenset(cl) for cl in clauses}


def models_mask(n: int, clauses) -> int:
    """The models of clauses over variables 1..n as one bit per
    assignment: bit k is set when the assignment whose variable v is
    bit v - 1 of k satisfies every clause."""
    full = (1 << (1 << n)) - 1
    true = [0]
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        true.append((((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1)))
    out = full
    for cl in clauses:
        clause = 0
        for lit in cl:
            clause |= true[lit] if lit > 0 else full ^ true[-lit]
        out &= clause
    return out


def is_flat_cnf(tree) -> bool:
    def clause(t):
        return type(t) is int or t[0] == "|" and all(type(p) is int for p in t[1])

    return clause(tree) or tree[0] == "&" and all(map(is_flat_cnf, tree[1]))


def test_prop_cnf_matches_formula_route():
    # the gates keep the reference's models: satisfiability agrees with
    # the truth table, and a SAT assignment on the atoms satisfies the
    # reference clauses; a flat CNF gets no gates and the same clause set
    rng = random.Random(29)
    with_eq = flat = 0
    for i in range(200):
        sig = small_signature(rng, max_bits=9)
        sig.constants = {"c", "d", "e"}
        leaves = [random_atom(rng, sig, [], with_eq=i % 2 == 0) for _ in range(5)]
        f = random_boolean(rng, leaves + [S.TRUE, S.FALSE], max_depth=4)
        if any(isinstance(a, S.Eq) for a in S.atoms_iter(f)):
            with_eq += 1
            ename = S.equality_name(S.infer_signature(f).predicates)
            tree, amap, axioms = to_propositional(S.to_nnf(f), ename)
            n, expected = formula_route_cnf(ground_equality_elim(f))
        else:
            tree, amap, axioms = to_propositional(S.to_nnf(f))
            n, expected = formula_route_cnf(f)
        cnf = prop_cnf(tree, amap, axioms)
        assert n == len(amap.atoms) <= cnf.num_vars
        if is_flat_cnf(tree):
            flat += 1
            assert cnf.num_vars == n and clause_set(cnf.clauses) == clause_set(expected)
        v, models = dpll_sat(cnf), models_mask(n, expected)
        assert (v.status == "sat") == (models != 0), print_formula(f)
        if v.status == "sat":
            code = sum(1 << (x - 1) for x in range(1, n + 1) if v.assignment[x])
            assert models >> code & 1, print_formula(f)
    assert with_eq >= 50 and flat >= 20


def random_equational(rng, k):
    """Clauses of one to three literals over k constants, most literals
    equations, the rest unary P and binary R atoms."""
    consts = [S.Const(f"d{i}") for i in range(k)]

    def literal():
        roll = rng.random()
        if roll < 0.6:
            a = S.Eq(*rng.sample(consts, 2))
        elif roll < 0.8:
            a = S.Pred("P", (rng.choice(consts),))
        else:
            a = S.Pred("R", (rng.choice(consts), rng.choice(consts)))
        return S.Not(a) if rng.random() < 0.4 else a

    return S.conj([S.disj([literal() for _ in range(1 + i % 3)]) for i in range(3 * k)])


def reference_equality_elim(f: S.Formula) -> S.Formula:
    """f with equations as E atoms, conjoined with the equality axioms
    written out as formulas over the constants and atoms of f, in the
    order `equality_axioms` numbers and emits them."""
    consts = sorted(S.constants_of(f))
    e = {(c, d): S.Pred("E", (S.Const(c), S.Const(d))) for c in consts for d in consts}
    axioms = [e[c, c] for c in consts]
    axioms += [S.Implies(e[c, d], e[d, c]) for c, d in itertools.product(consts, repeat=2) if c != d]
    axioms += [
        S.Implies(S.And((e[c, d], e[d, b])), e[c, b])
        for c, d, b in itertools.product(consts, repeat=3)
        if c != d or d != b
    ]
    occurring = {}
    for a in S.atoms_iter(f):
        if isinstance(a, S.Pred):
            occurring.setdefault(a.name, {})[tuple(t.name for t in a.args)] = a
    for _, table in sorted(occurring.items()):
        for left, right in itertools.product(sorted(table), repeat=2):
            if left != right:
                prem = [e[c, d] for c, d in zip(left, right)] + [table[left]]
                axioms.append(S.Implies(S.conj(prem), table[right]))
    replaced, _ = S.equality_as_predicate(f, ())
    return S.conj([replaced] + axioms)


def test_integer_axioms_match_formula_route():
    rng = random.Random(31)
    for k in [6, 7, 8, 9, 10, 11, 12] * 2:
        f = random_equational(rng, k)
        cnf = prop_cnf(*to_propositional(f, "E"))
        assert ground_equality_elim(f) == reference_equality_elim(f)
        n, expected = formula_route_cnf(reference_equality_elim(f))
        assert cnf.num_vars == n and clause_set(cnf.clauses) == clause_set(expected)


def test_equality_axioms_keep_atom_numbers():
    # E(d, c) and P(c) are numbered by the sentence; the other E atoms
    # follow in order of first use, reflexivity first, then symmetry
    f, _ = parse_formula("d = c & P(c)")
    tree, amap, axioms = to_propositional(f, "E")
    assert tree == ("&", [1, 2])
    assert [print_formula(a) for a in amap.atoms] == [
        "E(d, c)", "P(c)", "E(c, c)", "E(d, d)", "E(c, d)"
    ]
    assert axioms[:4] == [(3,), (4,), (-5, 1), (-1, 5)]
    assert len(axioms) == 2 + 2 + 6  # no congruence pair: P has one atom


@pytest.mark.parametrize(
    "text, atoms",
    [
        (" | ".join("(" + " & ".join(f"{p}(a{i})" for i in range(1, 1002)) + ")" for p in "PQ"), 2002),
        (" | ".join(f"(P(a{i}) <-> Q(a{i}))" for i in range(21)), 42),
    ],
    ids=["conjunctions", "biconditionals"],
)
def test_decide_past_the_distribution_budget(text, atoms):
    # distributed, these take 1001^2 and 2^21 clauses; the gates keep
    # them linear, and the assignment leaves the gate variables out
    import time
    import tracemalloc

    f, _ = parse_formula(text)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        v = decide_sat(f)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.status == "sat" and evaluate(v.structure, {}, f)
    assert sorted(v.assignment) == list(range(1, atoms + 1)) and v.details["variables"] > atoms
    assert elapsed < 2 and peak < 50 * 2**20


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

@pytest.mark.parametrize("n, leading", [(40, False), (40, True), (100, False)])
def test_decide_long_iff_chain(n, leading):
    # the walks after to_nnf visit each shared node once per binding; as
    # tree walks they took 1.8 s at 16 operands
    f, _ = parse_formula(iff_chain(n, leading))
    start = time.perf_counter()
    with deadline(20):
        v = decide_sat(f)
    assert time.perf_counter() - start < 1.0
    assert v.status == "sat" and v.details["path"] == "propositional"
    assert evaluate(v.structure, {}, f)


@pytest.mark.parametrize("leading", [False, True])
def test_long_iff_chain_standard_form_and_bounds(leading):
    # standard form, analysis and bounds visit each shared node once; as
    # tree walks `sepfrag check` took 13 s at 18 operands
    f, _ = parse_formula(iff_chain(40, leading))
    with deadline(10):
        sf = S.to_standard_form(f)
        report, sizes = analysis.analyze(sf).to_json(), analysis.bounds(sf).to_json()
    assert report == {
        "is_sf": True, "is_ssf": True, "is_mfo": True, "is_bsr": True, "degree": 0,
        "alternations": 0, "irregular_prefix": False, "components": [], "levels": {},
    }
    n = 11544872091633 + 2 * leading  # formula_len of the standard form
    assert sizes == {
        "lemma12": {"expr": str(int(leading)), "exact": int(leading), "lower_bound": None},
        "expr1": {"expr": str(n), "exact": n, "lower_bound": None},
        "prop9": {"expr": str(n), "exact": n, "lower_bound": None},
        "prop5": 40 + leading,
        "prop6": 4,
    }


def test_decide_rejects_open_formulas():
    x, y = S.Var("x"), S.Var("y")
    with pytest.raises(NotASentence):
        decide_sat(S.And((S.Pred("P", (x,)), S.Pred("Q", (S.Const("a"),)))))
    with pytest.raises(NotASentence):
        decide_sat(S.Forall(("y",), S.Pred("R", (x, y))))


def test_decide_drops_a_vacuous_universal():
    f, _ = parse_formula("forall w. P(a) & ~P(b)")
    v = decide_sat(f)
    assert v.status == "sat" and v.details["path"] == "propositional"


@pytest.mark.parametrize(
    "text",
    [
        "(exists>=2 y. P(y) | Q(y)) & (forall x. ~P(x) | Q(x))",
        "(exists>=3 y. P(y)) & (forall x w. (Q(x) | ~P(x)) | x = w)",
    ],
)
def test_decide_searches_counting_as_written(text):
    # the shape of the benchmark's `counting` sentences: the search counts
    # natively and finds what it finds on the expanded sentence
    f, _ = parse_formula(text)
    v = decide_sat(f, DecideConfig(max_model_size=4))
    assert v.status == "sat"
    assert v.structure == ModelSearch(expand_counting(f).formula).run(4)


def test_standard_form_only_once_size_one_has_no_model(monkeypatch):
    calls = []
    real = S.to_standard_form
    monkeypatch.setattr(S, "to_standard_form", lambda f: calls.append(f) or real(f))
    for text, want in [
        ("exists x y. R(x, y) & x = y", 0),  # universal-free
        ("forall w. P(a) & ~P(b)", 0),  # a vacuous universal only
        ("forall x. exists y. P(x) | Q(y)", 0),  # a model at size 1
        ("forall x. exists y. R(x, y) & ~R(y, y)", 0),  # a model at size 2
        ("(exists x y z. ~x = y & ~y = z & ~x = z) & (forall w. P(w))", 1),  # none below 3
    ]:
        calls.clear()
        decide_sat(parse_formula(text)[0])
        assert len(calls) == want, text

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
    # no model at size 1 or 2, so the translation runs
    f, _ = parse_formula("forall x11 x12. exists y11. (~P(y11) & Q(x12)) & P(x11)")
    v = decide_sat(f, DecideConfig(max_model_size=2))
    assert v.status == "unsat"
    assert v.details["translation_bound"] == v.details["bound"] == 1
    assert v.details["search_limit"] == 2  # sizes 1 and 2 are searched before the bound
    assert calls == {"degree": 1, "is_separated": 1}


@pytest.mark.parametrize("size, limit", [(1, 1), (2, 2), (3, 2)])
def test_decide_bound_one_reports_the_sizes_searched(size, limit):
    # the bound is 1, but size 2 is searched before it is known
    f, _ = parse_formula("forall x11 x12. exists y11. (~P(y11) & Q(x12)) & P(x11)")
    v = decide_sat(f, DecideConfig(max_model_size=size))
    assert v.status == "unsat"
    assert v.details["bound"] == 1 and v.details["search_limit"] == limit


def test_decide_one_element_model_skips_translation(monkeypatch):
    from sepfrag import analysis, translate

    def refuse(*args, **kwargs):
        raise AssertionError("a size bound computed although size 1 or 2 has a model")

    for owner, name in [
        (translate, "to_bsr"), (translate, "bsr_leading_count"), (analysis, "bounds"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    for text, size in [
        (
            "forall x1. exists y1. forall x2. exists y2. "
            "(P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))",
            1,
        ),
        ("forall x. exists y. R(x, y) & ~R(y, y)", 2),
    ]:
        f, _ = parse_formula(text)
        v = decide_sat(f, DecideConfig(max_model_size=3))
        assert v.status == "sat"
        assert v.structure == find_model(f, max_size=3)
        assert len(v.structure.universe) == size
        assert v.details == {"path": "model-search", "search_limit": size}


def test_decide_two_element_model_builds_no_bound(monkeypatch):
    from sepfrag import analysis, translate

    def refuse(*args, **kwargs):
        raise AssertionError("a bound built although size 2 has a model")

    for owner, name in [
        (S, "to_standard_form"), (analysis, "bounds"), (translate, "bsr_leading_count"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    f, _ = parse_formula("(exists y1 y2. P(y1) & ~P(y2)) & (forall x. Q(x))")
    v = decide_sat(f)
    assert v.status == "sat" and len(v.structure.universe) == 2
    assert v.structure == find_model(f, max_size=2)
    assert v.details == {"path": "model-search", "search_limit": 2}


def test_decide_max_model_size_zero_searches_nothing():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    v = decide_sat(f, DecideConfig(max_model_size=0))
    assert v.status == "inconclusive"
    assert v.details["search_limit"] == 0


@pytest.mark.parametrize("size", [-1, -3])
def test_decide_rejects_negative_max_model_size(size):
    # nothing would be searched, so "search_limit" would report a search never made
    from sepfrag.errors import BadParams

    f, _ = parse_formula("forall x. P(x)")
    with pytest.raises(BadParams):
        decide_sat(f, DecideConfig(max_model_size=size))


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
    # searching sizes 1 and 2 before the bound changes when the
    # translation runs, not what is searched or answered
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
    kinds = Counter()
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
        size = len(witness.universe) if status == "sat" else None
        kinds[f"size {size}" if size else status] += 1
        if size is not None and size <= 2:
            assert searched == [1, 2]
            assert translations[0] == 0
            assert v.details == {"path": "model-search", "search_limit": size}
        else:
            # a bound of 1 is known only after size 2 has been searched
            assert sorted(searched) == list(range(1, v.details["search_limit"] + 1))
            limit = max(details["search_limit"], 2)
            assert v.details == {**details, "search_limit": limit}, print_formula(f)
    assert min(kinds[k] for k in ("size 1", "size 2", "unsat", "inconclusive")) >= 5, kinds


def test_decide_prepares_the_search_once(monkeypatch):
    # size 1 is searched as written; sizes 2 and up share one
    # scope-minimized form, and the scanned ones one memo plan
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
        scanned = want and len(v.details.get("sat_sizes", ())) < v.details["search_limit"] - 1
        assert calls == {"scope_minimized": want, "_memo_plan": int(scanned)}, print_formula(f)
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
    assert v.status == "sat" and v.details["path"] == "propositional"
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


@pytest.mark.parametrize(
    "entry",
    [
        decide_sat,
        lambda f: find_model(f, 1),
        lambda f: equivalent_upto(f, f, 1),
        S.to_standard_form,
    ],
    ids=["decide_sat", "find_model", "equivalent_upto", "to_standard_form"],
)
def test_deep_api_input_raises_too_deep(entry):
    # the parser caps nesting, but a chain built through the API is not
    # parsed; its recursive walks overflow the stack at 900 operands
    def operand(i):
        return S.Or((S.Pred("P", (S.Const(f"a{i}"),)), S.Pred("Q", (S.Const(f"a{i}"),))))

    f = operand(0)
    for i in range(1, 900):
        f = S.Iff(f, operand(i))
    with deadline(20), pytest.raises(TooDeep):
        entry(f)

import hashlib
import random

import pytest

from sepfrag import syntax as S
from sepfrag import analysis
from sepfrag.errors import (
    BadParams,
    BoundVariableInResidue,
    BudgetExceeded,
    EmptyIndexSet,
    NotSF,
    OverlappingSets,
    SelectionBudgetExceeded,
)
from sepfrag.generators import generate_hard_family
from sepfrag.search import equivalent_upto
from sepfrag.syntax import parse_formula, print_formula, to_standard_form
from sepfrag.translate import (
    BsrStats,
    SelectionInstance,
    _Units,
    _flatten_unit,
    _minimize_terms,
    _plan,
    bsr_leading_count,
    expand_selections,
    push_quantifiers,
    to_bsr,
)

from util import deadline, random_atom, random_sf_sentence, small_signature


def atom(name, *vars_):
    return S.Pred(name, tuple(S.Var(v) for v in vars_))


def make_instance(rng, max_i=3, max_k=2):
    sig = small_signature(rng, max_preds=2)
    zvars = ["z1", "z2"][: rng.randint(1, 2)]
    ys = ["y1", "y2"][: rng.randint(1, 2)]
    n_i = rng.randint(1, max_i)
    index_set = tuple(range(n_i))
    k_sets = {}
    residue = {}
    option = {}
    next_k = 100
    for i in index_set:
        residue[i] = random_atom(rng, sig, zvars)
        ks = []
        for _ in range(rng.randint(1, max_k)):
            option[next_k] = random_atom(rng, sig, ys + zvars)
            ks.append(next_k)
            next_k += 1
        k_sets[i] = tuple(ks)
    return SelectionInstance(index_set, k_sets, residue, option, tuple(ys))


# --- selection expansion -----------------------------------------------------

def test_single_index_single_eta():
    inst = SelectionInstance(
        (1,), {1: ("a",)}, {1: atom("P", "z")}, {"a": atom("Q", "y")}, ("y",)
    )
    out = expand_selections(inst)
    assert isinstance(out, S.Or)
    assert print_formula(out) == "P(z) | (exists y. Q(y))"


def test_two_indices_three_conjuncts():
    inst = SelectionInstance(
        (1, 2),
        {1: ("a",), 2: ("b",)},
        {1: atom("P", "z"), 2: atom("T", "z")},
        {"a": atom("Q", "y"), "b": atom("U", "y")},
        ("y",),
    )
    out = expand_selections(inst)
    assert isinstance(out, S.And) and len(out.parts) == 3
    last = out.parts[-1]
    assert isinstance(last, S.Or) and len(last.parts) == 3  # chi1, chi2, unit


def test_conjunct_count_before_dedup():
    rng = random.Random(5)
    for _ in range(30):
        inst = make_instance(rng)
        out = expand_selections(inst)
        count = len(out.parts) if isinstance(out, S.And) else 1
        assert count == 2 ** len(inst.index_set) - 1


def test_expansion_equivalent_random():
    rng = random.Random(7)
    for _ in range(40):
        inst = make_instance(rng)
        v = equivalent_upto(inst.to_formula(), expand_selections(inst), 3)
        assert v.equal


def test_validation_errors():
    with pytest.raises(EmptyIndexSet):
        expand_selections(SelectionInstance((), {}, {}, {}, ("y",)))
    with pytest.raises(EmptyIndexSet):
        expand_selections(SelectionInstance((1,), {1: ()}, {1: atom("P", "z")}, {}, ("y",)))
    with pytest.raises(BoundVariableInResidue):
        expand_selections(
            SelectionInstance(
                (1,), {1: ("a",)}, {1: atom("P", "y")}, {"a": atom("Q", "y")}, ("y",)
            )
        )
    # a missing residue or option is a bad instance, not a KeyError
    with pytest.raises(BadParams):
        expand_selections(SelectionInstance((1,), {1: ("a",)}, {}, {"a": atom("Q", "y")}, ("y",)))
    with pytest.raises(BadParams):
        expand_selections(SelectionInstance((1,), {1: ("a",)}, {1: atom("P", "z")}, {}, ("y",)))
    with pytest.raises(OverlappingSets):
        expand_selections(
            SelectionInstance(
                (1, 2),
                {1: ("a",), 2: ("a",)},
                {1: atom("P", "z"), 2: atom("T", "z")},
                {"a": atom("Q", "y")},
                ("y1",),
            )
        )


def test_expansion_binds_only_the_variables_its_units_use():
    p_cc, _ = parse_formula("P(c, c)")
    q_c, _ = parse_formula("Q(c)")
    inst = SelectionInstance((1,), {1: ("a",)}, {1: p_cc}, {"a": q_c}, ("y1",))
    assert print_formula(expand_selections(inst)) == "P(c, c) | Q(c)"
    # two equal options of one K set are one selection, so one unit
    inst = SelectionInstance(
        (1,), {1: ("a", "b")}, {1: p_cc}, {"a": atom("Q", "y"), "b": atom("Q", "y")}, ("y",)
    )
    out = expand_selections(inst)
    assert print_formula(out) == "P(c, c) | (exists y. Q(y))"
    assert equivalent_upto(inst.to_formula(), out, 3).equal


def test_expansion_past_the_conjunct_cap_raises_at_once():
    # 17 indices need 2^17 - 1 conjuncts, past DEFAULT_CONJUNCT_CAP; the
    # expansion used to enumerate them all, 4x longer per two more indices.
    # At 20,000 indices 2^n - 1 has more digits than int-to-str conversion
    # allows, and printing it in the message used to raise ValueError
    for n in (17, 20_000):
        idx = tuple(range(n))
        inst = SelectionInstance(
            idx,
            {i: (i,) for i in idx},
            {i: atom("P", "z") for i in idx},
            {i: atom(f"Q{i}", "y") for i in idx},
            ("y",),
        )
        with deadline(1), pytest.raises(SelectionBudgetExceeded, match=rf"2\^{n} - 1 conjuncts"):
            expand_selections(inst)


# --- pushing blocks ----------------------------------------------------------

def test_push_single_block():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    out = push_quantifiers(to_standard_form(f))
    assert equivalent_upto(f, out, 3).equal
    # no universal inside an existential scope and vice versa
    def check(g, inside):
        if isinstance(g, (S.Forall, S.Exists)):
            kind = type(g).__name__
            assert not (inside == "Exists" and kind == "Forall")
            assert not (inside == "Forall" and kind == "Exists")
            check(g.body, kind)
        elif isinstance(g, (S.And, S.Or)):
            for p in g.parts:
                check(p, inside)
        elif isinstance(g, S.Not):
            check(g.sub, inside)

    check(out, None)


def test_push_universal_conjunction_splits():
    f, _ = parse_formula("forall x. P(x) & Q(x)")
    out = push_quantifiers(to_standard_form(f))
    assert isinstance(out, S.And)
    assert equivalent_upto(f, out, 3).equal


def test_push_random_equivalence():
    rng = random.Random(13)
    for _ in range(100):
        f, _ = random_sf_sentence(rng, with_eq=True)
        sf = to_standard_form(f)
        try:
            out = push_quantifiers(sf)
        except NotSF:
            continue
        assert equivalent_upto(f, out, 3).equal


def test_push_rejects_non_sf():
    f, _ = parse_formula("forall x. exists y. R(x, y)")
    with pytest.raises(NotSF):
        push_quantifiers(to_standard_form(f))


# --- full translation ---------------------------------------------------------

def test_to_bsr_simple():
    f, _ = parse_formula("forall x. exists y. P(x) | Q(y)")
    b = to_bsr(to_standard_form(f))
    assert b.check()
    assert equivalent_upto(f, b.to_formula(), 3).equal
    assert b.stats.within_bound


def test_to_bsr_prefix_shape():
    f, _ = parse_formula(
        "forall x1. exists y1. forall x2. exists y2. (P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))"
    )
    b = to_bsr(to_standard_form(f))
    g = b.to_formula()
    # existentials strictly before universals
    assert isinstance(g, S.Exists)
    assert isinstance(g.body, S.Forall)
    assert S.is_quantifier_free(g.body.body)
    assert equivalent_upto(f, g, 3).equal


def test_to_bsr_already_bsr_fast_path():
    f, _ = parse_formula("exists z. forall x. P(x) | Q(z)")
    b = to_bsr(to_standard_form(f))
    assert b.stats.strategy == "direct"
    assert b.stats.leading_existentials == 1
    assert b.to_formula() == to_standard_form(f).to_formula()


def test_to_bsr_hard_family_one():
    # the n=1 member of the hard family needs at least 2 leading
    # existentials in any equivalent exists*forall* sentence
    f = generate_hard_family(1)
    b = to_bsr(to_standard_form(f))
    assert b.stats.leading_existentials >= 2
    assert b.stats.within_bound
    v = equivalent_upto(f, b.to_formula(), 3, budget=10**8)
    assert v.equal


def test_to_bsr_random_corpus():
    rng = random.Random(17)
    for _ in range(40):
        f, _ = random_sf_sentence(rng, with_eq=True)
        sf = to_standard_form(f)
        try:
            b = to_bsr(sf)
        except NotSF:
            continue
        assert b.check()
        assert equivalent_upto(f, b.to_formula(), 3).equal
        if b.stats.bound_exact is not None:
            assert b.stats.leading_existentials <= b.stats.bound_exact


def test_bsr_leading_count_matches_to_bsr():
    # the count-only path gives to_bsr's prefix length, or raises the same
    # budget error, under every strategy; small caps reach the direct
    # strategy and every budget
    rng = random.Random(29)
    seen, grown = {}, 0
    for _ in range(300):
        f, _ = random_sf_sentence(rng, max_blocks=3, max_atoms=5, with_eq=True)
        sf = to_standard_form(f)
        if not analysis.is_sf(sf) or analysis.is_bsr(sf):
            continue
        caps = dict(
            selection_cap=rng.choice((8, 2000)),
            conjunct_cap=rng.choice((16, 2000)),
            clause_budget=rng.choice((8, 2000, 2000, 2000)),
            dnf_term_cap=rng.choice((2, 8, 512)),
        )
        try:
            b = to_bsr(sf, **caps)
        except BudgetExceeded as e:
            with pytest.raises(type(e)) as raised:
                bsr_leading_count(sf, **caps)
            assert type(raised.value) is type(e)
            kind = type(e).__name__
        else:
            assert bsr_leading_count(sf, **caps) == len(b.leading), print_formula(f)
            kind = b.stats.strategy
            grown += len(b.leading) > len(sf.leading)
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 5 and grown >= 100, (seen, grown)


def _plan_slots_against_binders(sf):
    """Units whose recorded slots differ from their binder count, the
    survey `_plan` took it from before slots were recorded."""
    _, units, _, _, _ = _plan(sf, 2000, 2000, 2000, 512)
    exi = {i: u for i in units.source if isinstance(u := units.formula(i), S.Exists)}
    assert set(units.slots) == set(exi)
    return [i for i, u in exi.items() if units.slots[i] != len(S.names_in(u)[0])], len(exi)


def test_plan_slots_are_the_binders_of_each_existential_unit():
    rng = random.Random(31)
    planned = units = 0
    while planned < 200:
        f, _ = random_sf_sentence(rng, max_blocks=3, max_atoms=5, with_eq=True)
        sf = to_standard_form(f)
        if not analysis.is_sf(sf) or analysis.is_bsr(sf):
            continue
        try:
            wrong, n = _plan_slots_against_binders(sf)
        except BudgetExceeded:
            continue
        assert not wrong, print_formula(f)
        planned += 1
        units += n
    wrong, k = _plan_slots_against_binders(to_standard_form(generate_hard_family(1)))
    assert not wrong and k > 0
    assert units + k >= 1000, units


def _planned_forms(rng, count):
    """Standard forms of `count` separated, non-BSR draws."""
    out = []
    while len(out) < count:
        f, _ = random_sf_sentence(rng, max_blocks=3, max_atoms=5, with_eq=True)
        sf = to_standard_form(f)
        if analysis.is_sf(sf) and not analysis.is_bsr(sf):
            out.append(sf)
    return out


def test_planning_never_prints(monkeypatch):
    # units are keyed by structure: the plan builds no formula and prints
    # nothing, which is all that decide_sat asks of the translation
    sfs = _planned_forms(random.Random(37), 200) + [to_standard_form(generate_hard_family(1))]

    def refuse(*args, **kwargs):
        raise AssertionError("the plan printed a formula")

    for name in ("canonical_key", "print_formula", "_render"):
        monkeypatch.setattr(S, name, refuse)
    planned = 0
    for sf in sfs:
        try:
            bsr_leading_count(sf, 2000, 2000, 2000, 512)
            _, units, _, _, _ = _plan(sf, 2000, 2000, 2000, 512)
        except BudgetExceeded:
            continue
        assert not units._formulas and not units._printed
        planned += 1
    assert planned >= 150, planned


def _intern_unit(units, f):
    """Intern a unit formula as the translation does: a literal, or a
    quantified conjunction (existential) or disjunction (universal) of
    units over its bound variables, all of them used."""
    if isinstance(f, (S.Exists, S.Forall)):
        quantify, joined = (S.exists, S.And) if isinstance(f, S.Exists) else (S.forall, S.Or)
        parts = f.body.parts if isinstance(f.body, joined) else (f.body,)
        ids = frozenset(_intern_unit(units, p) for p in parts)
        return units.quantified(quantify, f.vars, ids, {})
    if isinstance(f, S.Not):
        return units.literal(False, f.sub)
    return units.literal(True, f)


def test_unit_ids_are_alpha_invariant():
    # every unit of the plans of random draws, and a copy of it with every
    # binder renamed, interned afresh: one id per alpha-equivalence class,
    # and units with different printed keys get different ids
    rng = random.Random(41)
    checked = quantified = 0
    for sf in _planned_forms(rng, 120):
        try:
            _, planned, _, _, _ = _plan(sf, 2000, 2000, 2000, 512)
        except BudgetExceeded:
            continue
        fresh = _Units()
        by_key = {}
        for i in planned.source:  # every unit made, not the marked copies
            u = planned.formula(i)
            binders = S.names_in(u)[0]
            variant = S.rename_apart(u, reserved=binders)
            assert set(S.names_in(variant)[0]).isdisjoint(binders)
            j = _intern_unit(fresh, u)
            assert _intern_unit(fresh, variant) == j, print_formula(u)
            key = S.canonical_key(u)
            assert planned.printed(i) == key  # the names it hands the printer are u's
            assert by_key.setdefault(j, key) == key, print_formula(u)
            checked += 1
            quantified += bool(binders)
        assert len(set(by_key.values())) == len(by_key)
    assert checked >= 1500 and quantified >= 800, (checked, quantified)


def test_bsr_stats_repr_with_huge_exact_bound():
    # 2^200000 has about 60,000 decimal digits, past the conversion limit
    from sepfrag import analysis

    bound = analysis.power(analysis.nat(2), analysis.nat(200000))
    stats = BsrStats(3, 2, 0, "direct", bound, bound.evaluate(), True)
    assert stats.bound_exact == 2**200000
    text = repr(stats)
    assert "leading_existentials=3" in text and "bound_exact" not in text


# The BsrStats of a few fixed translations, recorded before each block
# interned its units once.  dedup_count includes every unit a block repeats,
# so a memo that stops counting its hits changes it.  The SHA-1 of the
# printed sentence was recorded before the prefix was allocated from the
# plan's count: the stats and every equivalence test pass on a sentence
# whose prefix names are permuted, the digest does not.
TWO_BLOCK = (
    "forall x1. exists y1. forall x2. exists y2. (P(x1) | R(y1, y2)) & (Q(x2) | ~R(y2, y1))"
)
PINNED_STATS = [
    (TWO_BLOCK, (19, 4, 6, "factored"), "ea9b210ed1f2a94c94ddc4bb044525dfc0bfe7cd"),
    (22, (3, 3, 72, "factored"), "21319807199a93e960d143dadd2b81762749840d"),
    (33, (7, 4, 51, "factored"), "39abf7183f006c437c1fb3c21e15fe3bab676be7"),
    (710, (142, 14, 13, "direct"), "d28b5990a5785a34ca46f3df8bf8aed7dba4794f"),
]


@pytest.mark.parametrize(
    "source, expected, digest", PINNED_STATS, ids=["two-block", "draw22", "draw33", "draw710"]
)
def test_to_bsr_pinned_stats(source, expected, digest):
    if isinstance(source, str):
        f, _ = parse_formula(source)
    else:
        f, _ = random_sf_sentence(random.Random(source), max_blocks=3, max_atoms=5, with_eq=True)
    bsr = to_bsr(to_standard_form(f))
    st = bsr.stats
    assert (st.leading_existentials, st.universal_count, st.dedup_count, st.strategy) == expected
    assert hashlib.sha1(print_formula(bsr.to_formula()).encode()).hexdigest() == digest


# --- absorption ----------------------------------------------------------------

def _minimal_terms(terms):
    """Keep t unless some other term is a proper subset of t."""
    distinct = set(terms)
    kept = [t for t in distinct if not any(o < t for o in distinct)]
    return sorted(kept, key=lambda t: (len(t), sorted(t)))


def test_minimize_terms_keeps_exactly_the_minimal_terms():
    rng = random.Random(83)
    for _ in range(400):
        universe = [f"k{i}" for i in range(rng.randint(1, 7))]
        terms = []
        for _ in range(rng.randint(0, 40)):
            if terms and rng.random() < 0.4:
                # a duplicate or an extension of an earlier term: chains
                extra = rng.sample(universe, min(rng.randint(0, 2), len(universe)))
                terms.append(rng.choice(terms) | frozenset(extra))
            else:
                # mostly two-element terms: many of equal length
                k = min(rng.choice([2, 2, 2, 3, rng.randint(0, 4)]), len(universe))
                terms.append(frozenset(rng.sample(universe, k)))
        assert _minimize_terms(terms) == _minimal_terms(terms)


# --- flattening units ------------------------------------------------------------

def _flatten_by_substitution(f, alloc_names, cursor, fresh):
    """The flattening the one-walk _flatten_unit replaces: substitute the
    prefix names into the body at every quantifier, then walk the result."""
    if isinstance(f, (S.Forall, S.Exists)):
        sub = {}
        for v in f.vars:
            if len(alloc_names) <= cursor[0]:
                alloc_names.append(fresh(alloc_names))
            sub[v] = S.Var(alloc_names[cursor[0]])
            cursor[0] += 1
        return _flatten_by_substitution(S.substitute(f.body, sub), alloc_names, cursor, fresh)
    if isinstance(f, S.And):
        return S.conj([_flatten_by_substitution(p, alloc_names, cursor, fresh) for p in f.parts])
    if isinstance(f, S.Or):
        return S.disj([_flatten_by_substitution(p, alloc_names, cursor, fresh) for p in f.parts])
    return f


def _random_unit(rng, depth, scope, names):
    """Nested quantified conjunctions and disjunctions of literals and
    equalities over the variables in scope and a constant."""
    if depth and rng.random() < 0.7:
        r = rng.random()
        if r < 0.4:
            bound = tuple(next(names) for _ in range(rng.randint(1, 2)))
            kind = S.Exists if rng.random() < 0.5 else S.Forall
            return kind(bound, _random_unit(rng, depth - 1, scope + list(bound), names))
        parts = tuple(_random_unit(rng, depth - 1, scope, names) for _ in range(rng.randint(2, 3)))
        return S.And(parts) if r < 0.7 else S.Or(parts)
    terms = [S.Var(v) for v in scope] + [S.Const("c")]
    if rng.random() < 0.4:
        lit = S.Eq(rng.choice(terms), rng.choice(terms))
    else:
        lit = S.Pred("P", (rng.choice(terms), rng.choice(terms)))
    return S.Not(lit) if rng.random() < 0.3 else lit


def test_flatten_unit_matches_substitution_per_level():
    rng = random.Random(89)
    for _ in range(200):
        names = iter(f"w{i}" for i in range(1000))
        units = [_random_unit(rng, 4, ["z"], names) for _ in range(rng.randint(1, 3))]
        used = set()
        for u in units:
            used |= S.survey(u).names()
        fresh = S.FreshNames(used)
        alloc = ["u1"] if rng.random() < 0.5 else []
        cursor = [0]
        # consecutive units share one prefix, as in one factored disjunct
        expected = [
            _flatten_by_substitution(u, alloc, cursor, lambda a: fresh.fresh(f"u{len(a) + 1}"))
            for u in units
        ]
        prefix = iter(alloc)
        assert [_flatten_unit(u, prefix) for u in units] == expected
        # the walk took exactly the reference's first cursor[0] names, in order
        assert list(prefix) == alloc[cursor[0]:]


def test_flatten_unit_rejects_unexpected_shape():
    p, q = atom("P", "y"), atom("Q", "y")
    for bad in (S.Exists(("y",), S.Implies(p, q)), S.Iff(p, q)):
        with pytest.raises(NotSF):
            _flatten_unit(bad, iter(["u"]))

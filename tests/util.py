"""Random formula generators, the `<->` chain and a SIGALRM deadline,
shared by the test modules.

All generators take an explicit random.Random so suites stay
reproducible.
"""

import contextlib
import signal

from sepfrag import syntax as S


def random_term(rng, variables, constants):
    # sorted: the order of a set of strings depends on PYTHONHASHSEED
    pool = [S.Var(v) for v in variables] + [S.Const(c) for c in sorted(constants)]
    return rng.choice(pool)


def random_atom(rng, sig, variables, with_eq=False):
    choices = list(sig.predicates.items())
    if with_eq and (variables or sig.constants) and rng.random() < 0.3:
        return S.Eq(
            random_term(rng, variables, sig.constants),
            random_term(rng, variables, sig.constants),
        )
    name, arity = rng.choice(choices)
    return S.Pred(
        name, tuple(random_term(rng, variables, sig.constants) for _ in range(arity))
    )


def random_boolean(rng, leaves, max_depth=3, allow_imp=True):
    """Random boolean combination over the given leaf formulas."""

    def go(depth):
        if depth >= max_depth or rng.random() < 0.3:
            leaf = rng.choice(leaves)
            return S.Not(leaf) if rng.random() < 0.4 else leaf
        roll = rng.random()
        if roll < 0.35:
            return S.And(tuple(go(depth + 1) for _ in range(rng.randint(2, 3))))
        if roll < 0.7:
            return S.Or(tuple(go(depth + 1) for _ in range(rng.randint(2, 3))))
        if allow_imp and roll < 0.85:
            return S.Implies(go(depth + 1), go(depth + 1))
        if allow_imp:
            return S.Iff(go(depth + 1), go(depth + 1))
        return S.Not(go(depth + 1))

    return go(0)


def small_signature(rng, max_preds=3, max_arity=2, max_consts=1, max_bits=15, size=3):
    """Random signature whose ground-atom count at the given universe size
    stays under max_bits, so exhaustive checks stay cheap."""
    sig = S.Signature()
    bits = 0
    names = iter(["P", "Q", "R", "T", "U"])
    for _ in range(rng.randint(1, max_preds)):
        arity = rng.randint(1, max_arity)
        cost = size**arity
        if bits + cost > max_bits:
            arity = 1
            cost = size
            if bits + cost > max_bits:
                break
        sig.predicates[next(names)] = arity
        bits += cost
    if not sig.predicates:
        sig.predicates["P"] = 1
    for i in range(rng.randint(0, max_consts)):
        sig.constants.add(f"c{i + 1}" if i else "c")
    return sig


def random_sentence(rng, with_eq=False, max_quant_depth=2):
    """Random closed formula with arbitrary quantifier nesting; used for
    round-trip and normal-form oracles."""
    sig = small_signature(rng)
    var_names = ["x", "y", "z", "w"]

    def go(depth, scope):
        if depth < max_quant_depth and rng.random() < 0.55:
            take = [v for v in var_names if v not in scope][: rng.randint(1, 2)]
            if take:
                body = go(depth + 1, scope + take)
                kind = S.Forall if rng.random() < 0.5 else S.Exists
                return kind(tuple(take), body)
        usable = scope if scope else []
        if not usable and not sig.constants:
            sig.constants.add("c")
        leaves = [random_atom(rng, sig, usable, with_eq) for _ in range(3)]
        return random_boolean(rng, leaves)

    f = go(0, [])
    return S.rename_apart(f), sig


def boolean_tree_over(rng, leaves):
    """Random and/or tree using every leaf exactly once (possibly negated).
    Single-use keeps CNF sizes small enough for the translation pipeline's
    tower-shaped worst case to stay out of reach."""
    leaves = [S.Not(l) if rng.random() < 0.4 else l for l in leaves]

    def build(group):
        if len(group) == 1:
            return group[0]
        k = rng.randint(1, len(group) - 1)
        left, right = group[:k], group[k:]
        op = S.And if rng.random() < 0.5 else S.Or
        return op((build(left), build(right)))

    rng.shuffle(leaves)
    return build(leaves)


def random_sf_sentence(
    rng,
    max_blocks=2,
    max_block_vars=2,
    max_atoms=4,
    with_eq=False,
    with_leading=True,
):
    """Random separated-fragment sentence: atoms never mix universal and
    non-leading existential variables."""
    sig = small_signature(rng)
    n = rng.randint(1, max_blocks)
    zvars = ["z1"] if (with_leading and rng.random() < 0.4) else []
    blocks = []
    for i in range(1, n + 1):
        xs = [f"x{i}{j}" for j in range(1, rng.randint(1, max_block_vars) + 1)]
        ys = [f"y{i}{j}" for j in range(1, rng.randint(1, max_block_vars) + 1)]
        blocks.append((xs, ys))
    if rng.random() < 0.3:
        blocks[-1] = (blocks[-1][0], [])
    xs_all = [v for x, _ in blocks for v in x]
    ys_all = [v for _, y in blocks for v in y]

    def side_atom():
        if rng.random() < 0.5 and xs_all:
            vars_ = xs_all + zvars
        else:
            vars_ = ys_all + zvars
        vars_ = vars_ or zvars or xs_all or ys_all
        return random_atom(rng, sig, vars_, with_eq)

    n_atoms = rng.randint(2, max_atoms)
    leaves = [side_atom() for _ in range(n_atoms)]
    matrix = boolean_tree_over(rng, leaves)
    # make sure every prefix variable occurs in the matrix
    used = S.free_vars(matrix)
    extra = []
    for v in zvars + xs_all + ys_all:
        if v not in used:
            pname, arity = sorted(sig.predicates.items())[0]
            args = [S.Var(v)] + [
                random_term(rng, [v], sig.constants) for _ in range(arity - 1)
            ]
            extra.append(S.Pred(pname, tuple(args)))
    if extra:
        matrix = S.conj([matrix] + extra)
    f = matrix
    for xs, ys in reversed(blocks):
        f = S.exists(ys, f)
        f = S.forall(xs, f)
    f = S.exists(zvars, f)
    return f, sig


def bool_truth_vector(f, sig, size, cmap):
    """Truth vector of sentence f over all predicate tables of a
    single-chunk ground space at one constant map: an int whose bit j is
    set iff f holds on structure code j."""
    from sepfrag.search import GroundSpace, scope_minimized

    space = GroundSpace(sig, size)
    assert space.n_chunks == 1, "helper requires a single-chunk space"
    return space, space.eval_chunk(scope_minimized(f), cmap, 0)


def or_project_bit(vec, k, n_bits):
    """OR the two half-spaces of structure-code bit k of an n_bits-code
    truth vector (projection onto "exists a value for this atom")."""
    run = 1 << k
    # grows to the set of codes below 2^n_bits whose bit k is clear
    low = (1 << run) - 1
    width = 2 * run
    while width < 1 << n_bits:
        low |= low << width
        width *= 2
    half = (vec | (vec >> run)) & low
    return half | (half << run)


def models_extend(base_sentence, extended_sentence, extra_preds, size):
    """Check that every size-`size` model of base_sentence can be extended
    to a model of extended_sentence by choosing tables for extra_preds.

    Returns (holds, total_base_models)."""
    from sepfrag import syntax as S

    sig = S.infer_signature(
        extended_sentence, S.infer_signature(base_sentence)
    )
    ok_all = True
    total = 0
    for cmap_tuple in _const_maps(sig, size):
        space, base_vec = bool_truth_vector(base_sentence, sig, size, cmap_tuple)
        _, ext_vec = bool_truth_vector(extended_sentence, sig, size, cmap_tuple)
        acc = ext_vec
        for bit, (pname, _) in enumerate(space.atoms):
            if pname in extra_preds:
                acc = or_project_bit(acc, bit, space.n_bits)
        total += base_vec.bit_count()
        if base_vec & ~acc:
            ok_all = False
    return ok_all, total


def _const_maps(sig, size):
    import itertools

    names = sorted(sig.constants)
    for combo in itertools.product(range(size), repeat=len(names)):
        yield dict(zip(names, combo))


def first_disagreement(f, g, size):
    """(structure, "left" or "right") of the first structure, universe
    sizes 1..size and every constant map in lexicographic order, on which
    sentences f and g differ, or None.  The reference for
    `equivalent_upto`, which enumerates canonical constant maps only."""
    from sepfrag.search import GroundSpace

    sig = S.infer_signature(g, S.infer_signature(f))
    for m in range(1, size + 1):
        space = GroundSpace(sig, m)
        for cmap in space.const_maps():
            for chunk in range(space.n_chunks):
                va = space.eval_chunk(f, cmap, chunk)
                code = space.first_true(va ^ space.eval_chunk(g, cmap, chunk), chunk)
                if code is not None:
                    local = code - (chunk << space.chunk_bits)
                    left = (va >> local) & 1
                    return space.decode(cmap, code), "left" if left else "right"
    return None


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def iff_chain(n, leading=False):
    """(P(a0) | Q(a0)) <-> ... <-> (P(a<n-1>) | Q(a<n-1>)); with `leading`,
    under one `exists z` whose z replaces the a<i> in P of every even
    operand.  `to_nnf` shares both polarities of each operand, so the
    NNF is linear in n only as a DAG."""
    parts = [f"(P({'z' if leading and i % 2 == 0 else f'a{i}'}) | Q(a{i}))" for i in range(n)]
    return ("exists z. " if leading else "") + " <-> ".join(parts)

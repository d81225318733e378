import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.ainfinity import (
    _shift_sign,
    _transfer_tables,
    build_contraction,
    clifford_check,
    clifford_product,
    transfer_minimal_model,
)
from mfcat.errors import PreconditionError, VerificationError
from mfcat.fields import QQ, PrimeField, accumulate
from mfcat.series import RingCtx, Series, monomial_basis
from mfcat.serialize import parse_potential_text
from mfcat.superops import SuperOp, graded_commutator
from sorted_words import as_superop, merge_sorted, tuple_terms, word_mask


def potential(names, text):
    return parse_potential_text(RingCtx(tuple(names), QQ), text)


def spanning_set(ctx, degree):
    n = ctx.n_vars
    words = []
    for kt in range(n + 1):
        for th in combinations(range(n), kt):
            for kd in range(n + 1):
                for dl in combinations(range(n), kd):
                    words.append((th, dl))
    return [
        SuperOp.word(ctx, thetas=th, dels=dl, exp=exp)
        for exp in monomial_basis(ctx, degree)
        for th, dl in words
    ]


def test_descending_witnesses():
    w = potential("xy", "x^3 + x*y^2")
    wits = build_contraction(w).witnesses
    ctx = w.ctx
    x, y = Series.variable(ctx, 0), Series.variable(ctx, 1)
    assert wits == [x ** 2, x * y]
    total = x * wits[0] + y * wits[1]
    assert total == w


def pure_del_coefficients(C, a):
    n = a.ctx.n_vars
    keys = [((0,) * n, word_mask((), subset, n)) for subset in C.labels]
    return {i: a.terms[key] for i, key in enumerate(keys) if key in a.terms}


@pytest.mark.parametrize(
    "names, text, field, degree",
    [
        ("xy", "x^2*y + y^3", QQ, 2),
        ("xy", "x^3 + y^3", PrimeField(7), 2),
        ("xyz", "x^2 + y^2 + z^2", QQ, 1),
    ],
    ids=["D4", "cusp-GF7", "quadric3"],
)
def test_coords_are_pure_del_coefficients(names, text, field, degree):
    ctx = RingCtx(tuple(names), field)
    C = build_contraction(parse_potential_text(ctx, text))
    for a in spanning_set(ctx, degree):
        assert C.coords(C.p(a)) == pure_del_coefficients(C, a)
    with pytest.raises(VerificationError):
        C.coords(SuperOp.word(ctx, thetas=(0,)))


def stage_homotopy(ctx, i):
    """Division by x_i followed by left multiplication with theta_i."""

    def h(a):
        field = ctx.field
        out = {}
        for (exp, th, dl), c in tuple_terms(a).items():
            if exp[i] == 0:
                continue
            ins = merge_sorted((i,), th)
            if ins is None:
                continue
            sign, th_new = ins
            new_exp = list(exp)
            new_exp[i] -= 1
            accumulate(out, (tuple(new_exp), th_new, dl), c if sign > 0 else field.neg(c), field)
        return as_superop(ctx, out)

    return h


def uncached_maps(C):
    """d, h and p rebuilt with no cache: [delta, -] and the staged sandwich of
    the stage homotopies between the earlier stages' projections."""
    ctx = C.ctx
    n = ctx.n_vars

    def d(a):
        return graded_commutator(C.delta, a)

    def projection(h):
        return lambda a: a - d(h(a)) - h(d(a))

    stages = [stage_homotopy(ctx, i) for i in reversed(range(n))]
    projections = [projection(h) for h in stages]

    def h(a):
        total = SuperOp.zero(ctx)
        for i in range(n):
            mid = a
            for j in range(i):
                mid = projections[j](mid)
            mid = stages[i](mid)
            for j in reversed(range(i)):
                mid = projections[j](mid)
            total = total + mid
        return total

    return d, h, projection(h), projections


@pytest.mark.parametrize(
    "names, text, field, coeffs",
    [
        ("xy", "x^2*y + y^3", QQ, [Fraction(-3, 2), Fraction(5, 7), 2, -4]),
        ("xy", "x^3 + y^3", PrimeField(7), [2, 3, 5, 6]),
    ],
    ids=["D4", "cusp-GF7"],
)
def test_cached_maps_match_uncached_on_combinations(names, text, field, coeffs):
    ctx = RingCtx(tuple(names), field)
    C = build_contraction(parse_potential_text(ctx, text))
    d, h, p, projections = uncached_maps(C)
    rng = random.Random(0)
    # a pool of ten words: later combinations reuse terms whose images are cached
    pool = rng.sample(spanning_set(ctx, 2), 10)
    for _ in range(12):
        a = SuperOp.zero(ctx)
        for word in rng.sample(pool, rng.randint(2, 5)):
            a = a + word.scale(rng.choice(coeffs))
        assert len(a.terms) >= 2
        assert C.d(a) == d(a)
        assert C.h(a) == h(a)
        assert C.p(a) == p(a)
        for i, plain in enumerate(projections):
            assert C.proj(a, i) == plain(a)
        assert C.check_identity(a)


def termwise(ctx, f):
    """f extended linearly from single terms, each image computed once: the
    uncached maps memoized in plain SuperOps, so a walk over every tuple ends
    in seconds."""
    images = {}

    def g(a):
        total = SuperOp.zero(ctx)
        for key, c in a.terms.items():
            if key not in images:
                images[key] = f(SuperOp(ctx, {key: ctx.field.one}))
            total = total + images[key].scale(c)
        return total

    return g


def every_tuple_products(w, max_arity):
    """The product tables from a walk over every tuple of every arity, in
    `itertools.product` order. lambda, h(lambda) and coords(p(lambda)) come
    from `SuperOp` products and `uncached_maps`; nothing runs on packed terms
    or on the contraction's columns."""
    C = build_contraction(w)
    ctx, field = w.ctx, w.ctx.field
    _, h, p, _ = uncached_maps(C)
    h, p = termwise(ctx, h), termwise(ctx, p)
    basis = [p(SuperOp.word(ctx, dels=subset)) for subset in C.labels]
    hlam = {(i,): elt for i, elt in enumerate(basis)}
    products = {}
    for k in range(2, max_arity + 1):
        table = {}
        for args in iter_product(range(len(C.labels)), repeat=k):
            lam = SuperOp.zero(ctx)
            odd = 1
            for j in range(1, k):
                odd ^= C.parities[args[j - 1]] ^ 1
                if args[:j] in hlam and args[j:] in hlam:
                    term = hlam[args[:j]] * hlam[args[j:]]
                    lam = lam - term if odd else lam + term
            if lam.is_zero():
                continue
            image = h(lam)
            if not image.is_zero():
                hlam[args] = image
            projected = p(lam)
            vec = pure_del_coefficients(C, projected)
            spanned = SuperOp.zero(ctx)
            for i, c in vec.items():
                spanned = spanned + basis[i].scale(c)
            assert projected == spanned
            if vec:
                if _shift_sign(C.parities, args) < 0:
                    vec = {i: field.neg(c) for i, c in vec.items()}
                table[args] = vec
        if table:
            products[k] = table
    return products


def assert_same_tables(model, expected):
    # equal tables, with the same keys in the same insertion order
    assert list(model.products) == list(expected)
    for k, table in expected.items():
        assert list(model.products[k].items()) == list(table.items())


@pytest.mark.parametrize(
    "names, text, field, max_arity",
    [
        ("xyz", "x^3 + y^3 + z^3", QQ, 4),
        ("xy", "x^2*y + y^3", QQ, 6),
        ("xy", "x^4 + y^5 + x^2*y^3", QQ, 5),
        ("x", "x^2 + x^3 + x^5", QQ, 7),
        ("xy", "x^3 + y^3", PrimeField(7), 5),
    ],
    ids=["fermat3", "D4", "W12", "A-x2x3x5", "cusp-GF7"],
)
def test_live_tuples_give_the_every_tuple_tables(names, text, field, max_arity):
    w = parse_potential_text(RingCtx(tuple(names), field), text)
    expected = every_tuple_products(w, max_arity)
    assert expected
    assert_same_tables(transfer_minimal_model(w, max_arity), expected)


@pytest.mark.parametrize(
    "names, text, max_arity, bits",
    [("x", "x^100", 4, 16), ("x", "x^40000", 4, 32), ("xy", "x^40000 + y^3", 3, 32)],
)
def test_exponent_fields_widen_until_every_exponent_fits(names, text, max_arity, bits):
    # x^100 builds its contraction in 8-bit fields and overflows in a
    # transfer product; 40000 >= 2^15 overflows delta in 8 and 16 bits
    w = potential(names, text)
    C = build_contraction(w)
    C._exact(_transfer_tables, C.parities, max_arity)
    assert C._bits == bits
    assert_same_tables(transfer_minimal_model(w, max_arity), every_tuple_products(w, max_arity))


@settings(max_examples=25, deadline=None)
@given(
    field=st.sampled_from([QQ, PrimeField(7)]),
    n=st.integers(1, 2),
    terms=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([-3, -2, -1, 1, 2, 3])),
        min_size=1,
        max_size=3,
    ),
    max_arity=st.integers(2, 4),
)
def test_random_potentials_give_the_reference_tables(field, n, terms, max_arity):
    ctx = RingCtx("xy"[:n], field)
    w = Series.zero(ctx)
    for i, j, c in terms:
        exp = (i, j)[:n]
        if sum(exp) >= 2:
            w = w + Series(ctx, {exp: field.of(c)})
    if w.is_zero():
        return
    C = build_contraction(w)
    ops = C._exact(lambda ops: ops)
    for elt in C.basis_elements:
        assert ops.unpack(ops.pack(elt)) == elt
    assert_same_tables(transfer_minimal_model(w, max_arity), every_tuple_products(w, max_arity))


def test_a_corrupted_column_or_basis_element_is_caught():
    w = potential("xy", "x^2*y + y^3")
    ctx, one = w.ctx, w.ctx.field.one
    theta = SuperOp.word(ctx, thetas=(0,))
    term = SuperOp.word(ctx, dels=(0,), exp=(1, 0))
    # pi reads p(t): one extra theta term leaves the pure part, and so the
    # coordinates, unchanged, and p(t) = iota(pi(t)) fails
    ops = build_contraction(w)._exact(lambda ops: ops)
    (t,) = ops.pack(term)
    (extra,) = ops.pack(theta)
    plain_p = ops.p
    ops.p = lambda a: {**plain_p(a), extra: plain_p(a).get(extra, 0) + one}
    with pytest.raises(VerificationError):
        ops.pi({t: one})
    ops.p = plain_p
    assert ops.pi({t: one}) == pure_del_coefficients(build_contraction(w), term)
    # a basis element scaled by 2 no longer rebuilds p of its own pure word
    ops = build_contraction(w)._exact(lambda ops: ops)
    ops.basis[1] = {u: 2 * c for u, c in ops.basis[1].items()}
    with pytest.raises(VerificationError):
        ops.pi({ops.pure[1]: one})


def test_one_variable_contraction():
    w = potential("x", "x^3")
    C = build_contraction(w)
    ctx = w.ctx
    de = SuperOp.word(ctx, dels=(0,))
    # the corrected generator is del - (w/x^2) theta
    assert C.p(de) == de - SuperOp.word(ctx, exp=(1,)) * SuperOp.word(ctx, thetas=(0,))
    assert C.h(SuperOp.word(ctx)).is_zero()  # no divisible part
    for elt in spanning_set(ctx, 5):
        assert C.check_identity(elt)
    # projection behaves like one
    for elt in spanning_set(ctx, 3):
        assert C.p(C.p(elt)) == C.p(elt)
        assert C.p(C.d(elt)) == C.d(C.p(elt))


def test_two_variable_contraction_paper_corrections():
    w = potential("xy", "x^3 + x*y^2")
    C = build_contraction(w)
    ctx = w.ctx
    x = SuperOp.word(ctx, exp=(1, 0))
    t0, t1 = SuperOp.word(ctx, thetas=(0,)), SuperOp.word(ctx, thetas=(1,))
    d0, d1 = SuperOp.word(ctx, dels=(0,)), SuperOp.word(ctx, dels=(1,))
    assert C.basis_elements[C.labels.index((0,))] == d0 - x * t0
    assert C.basis_elements[C.labels.index((1,))] == d1 - x * t1
    for elt in spanning_set(ctx, 3):
        assert C.check_identity(elt)


def test_quadratic_contraction_example():
    w = potential("xy", "x^2 + y^2")
    C = build_contraction(w)
    ctx = w.ctx
    assert C.basis_elements[1] == SuperOp.word(ctx, dels=(0,)) - SuperOp.word(ctx, thetas=(0,))
    for elt in spanning_set(ctx, 3):
        assert C.check_identity(elt)


def test_contraction_three_variables():
    w = potential("xyz", "x^2 + y^2 + z^2")
    C = build_contraction(w)
    for elt in spanning_set(w.ctx, 2):
        assert C.check_identity(elt)


def test_one_variable_coefficient_recovery():
    w = potential("x", "x^2 + x^3 + x^5")
    model = transfer_minimal_model(w, 6)
    gen = model.label_subsets.index((0,))
    unit = model.label_subsets.index(())
    expected = {2: 1, 3: 1, 4: 0, 5: 1, 6: 0}
    for arity, r in expected.items():
        vec = model.product((gen,) * arity)
        if r == 0:
            assert vec == {}
        else:
            assert set(vec) == {unit} and abs(vec[unit]) == r
    assert model.stasheff_holds(6)


def test_quadratic_model_is_clifford():
    w = potential("x", "x^2")
    model = transfer_minimal_model(w, 4)
    gen = model.label_subsets.index((0,))
    unit = model.label_subsets.index(())
    assert model.product((gen, gen)) == {unit: QQ.of(-1)}
    for k in (3, 4):
        assert not model.products.get(k)


def test_mixed_coefficient_recovery():
    w = potential("xy", "x^2*y + y^3")
    model = transfer_minimal_model(w, 3)
    g1 = model.label_subsets.index((0,))
    g2 = model.label_subsets.index((1,))
    unit = model.label_subsets.index(())
    vec = model.product((g1, g1, g2))
    assert set(vec) == {unit} and abs(vec[unit]) == 1
    pure = model.product((g2, g2, g2))
    assert set(pure) == {unit} and abs(pure[unit]) == 1  # coefficient of y^3


def test_stasheff_identities_all_small_models():
    for names, text in (("x", "x^4"), ("xy", "x^3 + y^3"), ("xy", "x^2*y + y^3")):
        w = potential(names, text)
        model = transfer_minimal_model(w, 6)
        assert model.stasheff_holds(6)


def test_unit_acts_as_identity():
    w = potential("xy", "x^3 + y^3")
    model = transfer_minimal_model(w, 2)
    unit = model.label_subsets.index(())
    for i in range(model.dimension):
        assert model.product((unit, i)) == {i: QQ.one}
        assert model.product((i, unit)) == {i: QQ.one}


def test_clifford_check():
    assert clifford_check(potential("x", "x^2"))
    assert clifford_check(potential("xy", "x^2 + y^2"))
    assert clifford_check(potential("xy", "x^2 + 2*y^2"))
    with pytest.raises(PreconditionError):
        clifford_check(potential("x", "x^3"))
    with pytest.raises(PreconditionError):
        clifford_check(potential("xy", "x^2 + x*y + y^2"))


def test_clifford_check_char2_rejected():
    ctx = RingCtx(("x",), PrimeField(2))
    w = Series.variable(ctx, 0) ** 2
    with pytest.raises(PreconditionError):
        clifford_check(w)


def test_clifford_reference_product():
    a = [QQ.of(1), QQ.of(2)]
    s, word = clifford_product((0,), (0,), a, QQ)
    assert (s, word) == (QQ.of(-1), ())
    s, word = clifford_product((1,), (0,), a, QQ)
    assert (s, word) == (QQ.of(-1), (0, 1))
    s, word = clifford_product((0, 1), (1,), a, QQ)
    assert (s, word) == (QQ.of(-2), (0,))


def test_max_arity_precondition():
    with pytest.raises(PreconditionError):
        transfer_minimal_model(potential("x", "x^2"), 1)


def test_minimal_model_has_no_unary_product():
    model = transfer_minimal_model(potential("xy", "x^3 + y^3"), 4)
    assert 1 not in model.products
    C = build_contraction(potential("xy", "x^3 + y^3"))
    for elt in C.basis_elements:
        assert C.d(elt).is_zero()


def test_transfer_prime_field():
    ctx = RingCtx(("x",), PrimeField(5))
    w = Series.variable(ctx, 0) ** 2 + Series.variable(ctx, 0) ** 3
    model = transfer_minimal_model(w, 3)
    gen = model.label_subsets.index((0,))
    unit = model.label_subsets.index(())
    assert model.product((gen, gen)) == {unit: 4}  # -1 mod 5
    assert model.product((gen, gen, gen)) in ({unit: 1}, {unit: 4})
    assert model.stasheff_holds(3)


def test_sign_convention_regression_lock():
    # coefficient identities are sign-agnostic in the acceptance battery;
    # this locks the signs our bar-shift convention actually produces
    w = potential("x", "x^2 + x^3 + x^5")
    model = transfer_minimal_model(w, 5)
    gen, unit = 1, 0
    assert model.product((gen,) * 2) == {unit: QQ.of(-1)}
    assert model.product((gen,) * 3) == {unit: QQ.of(1)}
    assert model.product((gen,) * 5) == {unit: QQ.of(-1)}

    d4 = transfer_minimal_model(potential("xy", "x^2*y + y^3"), 3)
    tables = {
        args: {i: str(c) for i, c in vec.items()}
        for args, vec in d4.products[3].items()
    }
    assert tables == {
        (1, 1, 2): {0: "1"},
        (1, 1, 3): {1: "-1"},
        (1, 3, 2): {2: "-1"},
        (1, 3, 3): {3: "-1"},
        (2, 2, 2): {0: "1"},
        (2, 2, 3): {1: "-1"},
        (2, 3, 2): {1: "1"},
        (3, 1, 2): {2: "1"},
        (3, 1, 3): {3: "1"},
        (3, 2, 2): {1: "-1"},
    }


def test_mixed_triple_recovers_cross_coefficient():
    # the cubic with a -3xyz term: the mixed product reads off that
    # coefficient even though the singularity is not isolated
    w = potential("xyz", "x^3 + y^3 + z^3 - 3*x*y*z")
    model = transfer_minimal_model(w, 3)
    unit = model.label_subsets.index(())
    g = [model.label_subsets.index((i,)) for i in range(3)]
    assert model.product((g[0], g[0], g[0])) == {unit: QQ.of(1)}
    mixed = model.product((g[0], g[1], g[2]))
    assert mixed.get(unit) == QQ.of(-3)
    assert model.stasheff_holds(3)


def test_correction_with_nonzero_division_remainder():
    # witness w2 = x^2 + xy divides by y with quotient x and remainder x^2,
    # so the second corrected generator picks up a theta_1 term as well
    w = potential("xy", "x^3 + x^2*y + x*y^2")
    wits = build_contraction(w).witnesses
    ctx = w.ctx
    x = Series.variable(ctx, 0)
    y = Series.variable(ctx, 1)
    assert wits == [x ** 2, x ** 2 + x * y]
    C = build_contraction(w)
    xo = SuperOp.word(ctx, exp=(1, 0))
    expected = (
        SuperOp.word(ctx, dels=(1,))
        - xo * SuperOp.word(ctx, thetas=(1,))
        - xo * SuperOp.word(ctx, thetas=(0,))
    )
    assert C.basis_elements[C.labels.index((1,))] == expected

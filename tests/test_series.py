import random
from math import comb

import pytest

from mfcat.errors import ContextMismatchError, PreconditionError
from mfcat.factorization import MatrixFactorization, RMatrix, verify_mf
from mfcat.fields import QQ, PrimeField
from mfcat.series import (
    RingCtx,
    Series,
    difference_quotient,
    monomial_basis,
    monomial_sort_key,
    monomials_of_degree,
)


def ctx1():
    return RingCtx(("x",), QQ)


def ctx2():
    return RingCtx(("x", "y"), QQ)


def var(ctx, i):
    return Series.variable(ctx, i)


def rand_series(rng, ctx, max_degree):
    terms = {}
    for exp in monomial_basis(ctx, max_degree):
        c = rng.randint(-3, 3)
        if c:
            terms[exp] = QQ.of(c)
    return Series(ctx, terms)


def test_monomial_products():
    c = ctx1()
    x = var(c, 0)
    assert x * x == x ** 2
    c2 = ctx2()
    x, y = var(c2, 0), var(c2, 1)
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        var(ctx1(), 0) + var(RingCtx(("y",), QQ), 0)


def test_partial_derivative_examples():
    c = ctx1()
    x = var(c, 0)
    assert (x ** 3).partial_derivative(0) == (x ** 2).scale(3)
    c2 = ctx2()
    x, y = var(c2, 0), var(c2, 1)
    assert (x ** 2 * y + y ** 3).partial_derivative(1) == x ** 2 + (y ** 2).scale(3)
    c3 = RingCtx(("x", "y", "z"), QQ)
    x, y, z = (var(c3, i) for i in range(3))
    w = x ** 3 + y ** 3 + z ** 3 - (x * y * z).scale(3)
    assert w.partial_derivative(0) == (x ** 2).scale(3) - (y * z).scale(3)


def test_partial_derivative_index_range():
    with pytest.raises(PreconditionError):
        var(ctx1(), 0).partial_derivative(1)


def test_split_by_variable_examples():
    c = ctx1()
    x = var(c, 0)
    assert (x ** 3).split_by_variable(0) == (x ** 2, Series.zero(c))
    c2 = ctx2()
    x, y = var(c2, 0), var(c2, 1)
    q, r = (x ** 2 * y + y ** 3).split_by_variable(0)
    assert q == x * y and r == y ** 3
    const = Series.constant(c, 7)
    assert const.split_by_variable(0) == (Series.zero(c), const)


def test_split_reconstruction_random():
    rng = random.Random(7)
    c = ctx2()
    for _ in range(50):
        a = rand_series(rng, c, 3)
        for i in range(2):
            q, r = a.split_by_variable(i)
            assert var(c, i) * q + r == a
            assert r.set_zero([i]) == r


def test_residue_map():
    c = ctx1()
    x = var(c, 0)
    assert (Series.constant(c, 3) + x + x ** 2).residue() == QQ.of(3)
    assert (x ** 5).residue() == QQ.zero
    assert ((Series.one(c) + x) * (Series.one(c) - x)).residue() == QQ.one


def test_residue_is_ring_hom():
    rng = random.Random(11)
    c = ctx2()
    for _ in range(30):
        a, b = rand_series(rng, c, 2), rand_series(rng, c, 2)
        assert (a * b).residue() == QQ.mul(a.residue(), b.residue())
        assert (a + b).residue() == QQ.add(a.residue(), b.residue())


def test_monomial_basis_counts_and_order():
    assert monomial_basis(1, 2) == [(0,), (1,), (2,)]
    assert monomial_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(monomial_basis(2, 2)) == 6
    # within a degree the larger first variable comes first
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_monomials_of_degree_come_in_canonical_order():
    # the enumeration order itself is canonical; nothing sorts it
    for n in range(1, 7):
        for d in range(7):
            monos = monomials_of_degree(n, d)
            assert monos == sorted(monos, key=monomial_sort_key)
            assert len(set(monos)) == len(monos) == comb(n + d - 1, d)


def test_difference_quotient_examples():
    c = ctx1()
    x = var(c, 0)
    d = c.doubled()
    xx, yy = var(d, 0), var(d, 1)
    assert difference_quotient(x ** 2, 0) == xx + yy
    assert difference_quotient(x, 0) == Series.one(d)
    c2 = ctx2()
    x1, x2 = var(c2, 0), var(c2, 1)
    w = x1 * x2
    d2 = c2.doubled()
    dq0 = difference_quotient(w, 0)
    dq1 = difference_quotient(w, 1)
    # telescoping sum reproduces w(x) - w(x')
    gens = [var(d2, i) - var(d2, 2 + i) for i in range(2)]
    total = gens[0] * dq0 + gens[1] * dq1
    left = w.relabel(d2, (0, 1))
    right = w.relabel(d2, (2, 3))
    assert total == left - right


def test_difference_quotient_telescoping_random():
    rng = random.Random(23)
    c = ctx2()
    d = c.doubled()
    for _ in range(25):
        w = rand_series(rng, c, 4)
        gens = [var(d, i) - var(d, 2 + i) for i in range(2)]
        total = Series.zero(d)
        for i in range(2):
            total = total + gens[i] * difference_quotient(w, i, d)
        assert total == w.relabel(d, (0, 1)) - w.relabel(d, (2, 3))


def test_ring_axioms_random():
    rng = random.Random(3)
    c = ctx2()
    for _ in range(25):
        a, b, cc = (rand_series(rng, c, 2) for _ in range(3))
        assert (a + b) * cc == a * cc + b * cc
        assert (a * b) * cc == a * (b * cc)
        assert a * b == b * a
        assert a + b == b + a


def test_partials_commute_random():
    rng = random.Random(5)
    c = RingCtx(("x", "y", "z"), QQ)
    for _ in range(20):
        a = rand_series(rng, c, 3)
        for i in range(3):
            for j in range(3):
                assert a.partial_derivative(i).partial_derivative(j) == a.partial_derivative(
                    j
                ).partial_derivative(i)


def test_prime_field_mode():
    F = PrimeField(7)
    c = RingCtx(("x",), F)
    x = var(c, 0)
    assert (x.scale(3) + x.scale(5)) == x  # 8 = 1 mod 7
    assert (x.scale(4) * x.scale(2)) == x ** 2  # 8 = 1 mod 7
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_coefficients_are_reduced_at_construction():
    F = PrimeField(3)
    c = RingCtx(("x",), F)
    assert Series(c, {(1,): 3}).is_zero()
    assert Series(c, {(1,): 5}) == Series(c, {(1,): 2}) == var(c, 0).scale(2)
    assert hash(Series(c, {(1,): 5})) == hash(Series(c, {(1,): 2}))
    assert Series(c, {(1,): 5}).terms == {(1,): 2}
    assert Series(c, {(1,): -1}) == -var(c, 0)
    # (x, 2x) factors 2x^2, written with the unreduced coefficient 5
    x = var(c, 0)
    w = Series(c, {(2,): 5})
    assert verify_mf(MatrixFactorization(c, w, RMatrix(c, [[x]]), RMatrix(c, [[x.scale(2)]])))


def test_truncation_precondition():
    with pytest.raises(PreconditionError):
        RingCtx((), QQ)

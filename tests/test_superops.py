import random
from fractions import Fraction
from itertools import combinations

import pytest

from mfcat.ainfinity import DgAlgebra
from mfcat.errors import ContextMismatchError, PreconditionError
from mfcat.exterior import merge_sorted
from mfcat.fields import QQ, PrimeField, accumulate
from mfcat.series import RingCtx, Series, monomial_basis
from mfcat.serialize import parse_potential_text
from mfcat.superops import SuperOp, _del_theta, graded_commutator, multiply_into


def ctx_n(n):
    return RingCtx(n, QQ)


def test_canonical_relations():
    c = ctx_n(2)
    t0, t1 = SuperOp.theta(c, 0), SuperOp.theta(c, 1)
    d0, d1 = SuperOp.del_theta(c, 0), SuperOp.del_theta(c, 1)
    one = SuperOp.one(c)
    assert d0 * t0 + t0 * d0 == one
    assert d0 * t1 + t1 * d0 == SuperOp.zero(c)
    assert t0 * t0 == SuperOp.zero(c)
    assert d1 * d1 == SuperOp.zero(c)
    assert t0 * t1 == -(t1 * t0)
    # normal form of d0 t0 is 1 - t0 d0
    assert d0 * t0 == one - t0 * d0


def rand_op(rng, c, deg=1):
    terms = {}
    words = []
    n = c.n_vars
    for kt in range(n + 1):
        for th in combinations(range(n), kt):
            for kd in range(n + 1):
                for dl in combinations(range(n), kd):
                    words.append((th, dl))
    for exp in monomial_basis(c, deg):
        for th, dl in words:
            if rng.random() < 0.25:
                v = rng.randint(-2, 2)
                if v:
                    terms[(exp, th, dl)] = QQ.of(v)
    return SuperOp(c, terms)


def test_associativity_random():
    rng = random.Random(61)
    c = ctx_n(2)
    for _ in range(20):
        a, b, d = rand_op(rng, c), rand_op(rng, c), rand_op(rng, c)
        assert (a * b) * d == a * (b * d)


def test_parity():
    c = ctx_n(2)
    assert SuperOp.theta(c, 0).parity() == 1
    assert (SuperOp.theta(c, 0) * SuperOp.del_theta(c, 1)).parity() == 0
    mixed = SuperOp.one(c) + SuperOp.theta(c, 0)
    with pytest.raises(PreconditionError):
        mixed.parity()
    even, odd = mixed.parity_parts()
    assert even == SuperOp.one(c) and odd == SuperOp.theta(c, 0)


def test_differential_on_generators():
    c = ctx_n(1)
    w = parse_potential_text(RingCtx(("x",), QQ), "x^3")
    A = DgAlgebra(w)
    x = SuperOp.from_series(Series.variable(A.ctx, 0))
    assert A.d(SuperOp.theta(A.ctx, 0)) == x
    assert A.d(SuperOp.del_theta(A.ctx, 0)) == x * x
    assert A.d(SuperOp.one(A.ctx)) == SuperOp.zero(A.ctx)
    # [delta, delta] = 2 delta^2 = 2w, the square being central makes d^2 = 0
    assert A.d(A.delta) == SuperOp.from_series(w).scale(2)
    assert A.d(A.d(A.delta)).is_zero()


def test_differential_squares_to_zero_and_leibniz():
    rng = random.Random(67)
    ctx = RingCtx(("x", "y"), QQ)
    w = parse_potential_text(ctx, "x^2*y + y^3")
    A = DgAlgebra(w)
    for _ in range(15):
        a = rand_op(rng, A.ctx)
        assert A.d(A.d(a)).is_zero()
        ae, ao = a.parity_parts()
        b = rand_op(rng, A.ctx)
        for part, sign in ((ae, 1), (ao, -1)):
            lhs = A.d(part * b)
            db = A.d(b)
            rhs = A.d(part) * b + (part * db if sign > 0 else -(part * db))
            assert lhs == rhs


def test_graded_commutator_symmetry():
    rng = random.Random(71)
    c = ctx_n(2)
    for _ in range(10):
        a = rand_op(rng, c)
        ae, ao = a.parity_parts()
        b = rand_op(rng, c)
        be, bo = b.parity_parts()
        # odd-odd bracket is symmetric, others antisymmetric
        assert graded_commutator(ao, bo) == graded_commutator(bo, ao)
        assert graded_commutator(ae, be) == -graded_commutator(be, ae)


def test_word_rejects_non_canonical():
    c = ctx_n(2)
    with pytest.raises(PreconditionError):
        SuperOp.word(c, thetas=(1, 0))
    with pytest.raises(PreconditionError):
        SuperOp.word(c, dels=(0, 0))
    with pytest.raises(PreconditionError):
        SuperOp.word(c, dels=(5,))


def test_context_mismatch_raises():
    a = SuperOp.theta(ctx_n(1), 0)
    b = SuperOp.theta(RingCtx(("y",), QQ), 0)
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b


def reference_product(a, b):
    """The product term pair by term pair: `_del_theta`, then two
    `merge_sorted` calls, with the sign brought in through `field.of`."""
    field = a.ctx.field
    out = {}
    for (e1, th1, dl1), c1 in a.terms.items():
        for (e2, th2, dl2), c2 in b.terms.items():
            exp = tuple(u + v for u, v in zip(e1, e2))
            c12 = field.mul(c1, c2)
            for (th_mid, dl_mid), s_mid in _del_theta(dl1, th2):
                left = merge_sorted(th1, th_mid)
                if left is None:
                    continue
                s_th, th = left
                right = merge_sorted(dl_mid, dl2)
                if right is None:
                    continue
                s_dl, dl = right
                sign = s_mid * s_th * s_dl
                accumulate(out, (exp, th, dl), field.mul(c12, field.of(sign)), field)
    return SuperOp(a.ctx, out)


def rand_op_over(rng, c, coeffs, density):
    n = c.n_vars
    words = [
        (th, dl)
        for kt in range(n + 1)
        for th in combinations(range(n), kt)
        for kd in range(n + 1)
        for dl in combinations(range(n), kd)
    ]
    terms = {}
    for deg in (0, 1):
        for exp in monomial_basis(c, deg):
            for th, dl in words:
                if rng.random() < density:
                    terms[(exp, th, dl)] = c.field.of(rng.choice(coeffs))
    return SuperOp(c, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "field, coeffs",
    [
        (QQ, [Fraction(-3, 2), Fraction(5, 7), Fraction(1, 3), 2, -1]),
        (PrimeField(7), [1, 2, 3, 5, 6]),
    ],
    ids=["QQ", "GF7"],
)
def test_product_kernel_matches_term_pair_reference(n, field, coeffs):
    c = RingCtx(n, field)
    rng = random.Random(100 + n)
    density = {1: 0.7, 2: 0.35, 3: 0.12}[n]
    for _ in range(8):
        a, b = rand_op_over(rng, c, coeffs, density), rand_op_over(rng, c, coeffs, density)
        assert len(a.terms) > 1 and len(b.terms) > 1
        ab = reference_product(a, b)
        assert a * b == ab
        ae, ao = a.parity_parts()
        be, bo = b.parity_parts()
        bracket = ab - reference_product(be, a) - reference_product(bo, ae) + reference_product(bo, ao)
        assert graded_commutator(a, b) == bracket
        # the kernel adds into what the dict already holds, with either sign
        out = dict(ab.terms)
        multiply_into(out, b, a, -1)
        assert SuperOp(c, out) == ab - reference_product(b, a)

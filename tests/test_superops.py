import random
from fractions import Fraction
from itertools import combinations

import pytest

from mfcat.ainfinity import build_contraction
from mfcat.errors import ContextMismatchError, PreconditionError
from mfcat.fields import QQ, PrimeField, accumulate
from mfcat.series import RingCtx, Series, monomial_basis
from mfcat.serialize import parse_potential_text
from mfcat.superops import ExponentOverflow, Packing, SuperOp, graded_commutator
from sorted_words import merge_sorted


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
    A = build_contraction(w)
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
    A = build_contraction(w)
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


def _del_theta(dels: tuple, thetas: tuple):
    """Normal ordering of del_word * theta_word, one del at a time.

    Returns a tuple of ((theta_out, del_out), sign) using
    del_b theta_C = (-1)^|C| theta_C del_b + [b in C] (-1)^pos theta_(C-b).
    """
    if not dels:
        return (((thetas, ()), 1),)
    b = dels[-1]
    head = dels[:-1]
    out: dict = {}

    def add_sign(key, sign):
        out[key] = out.get(key, 0) + sign
        if out[key] == 0:
            del out[key]

    sign_pass = -1 if len(thetas) % 2 else 1
    for (th, dl), s in _del_theta(head, thetas):
        # b is the largest index in `dels`, so appending keeps dl sorted
        add_sign((th, dl + (b,)), s * sign_pass)
    if b in thetas:
        pos = thetas.index(b)
        reduced = thetas[:pos] + thetas[pos + 1 :]
        sign_hit = -1 if pos % 2 else 1
        for (th, dl), s in _del_theta(head, reduced):
            add_sign((th, dl), s * sign_hit)
    return tuple(out.items())


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
        pk = Packing.fitting(a, b)
        out = pk.pack(ab)
        pk.mul_into(out, pk.pack(b), pk.pack(a), -1)
        assert pk.unpack(out) == ab - reference_product(b, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_pair_table_matches_the_one_del_at_a_time_reference(n):
    # every word pair theta_A del_B * theta_C del_D, against `_del_theta` and
    # two `merge_sorted` calls
    pk = Packing(ctx_n(n), 4)
    words = [tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    for index in range(1 << 4 * n):
        (b, a), (d, c) = divmod(index >> 2 * n, 1 << n), divmod(index & (1 << 2 * n) - 1, 1 << n)
        expected = {}
        for (th, dl), s in _del_theta(words[b], words[c]):
            left, right = merge_sorted(words[a], th), merge_sorted(dl, words[d])
            if left is not None and right is not None:
                key = sum(1 << i for i in left[1]) + sum(1 << n + i for i in right[1])
                expected[key] = s * left[0] * right[0]
        assert dict(pk._pair(index)) == expected


def test_packing_guards_every_exponent_field():
    c = ctx_n(2)
    pk = Packing(c, 4)  # exponents below 2^3 fit
    a = SuperOp.word(c, thetas=(0,), exp=(7, 0))
    assert pk.unpack(pk.pack(a)) == a
    with pytest.raises(ExponentOverflow):
        pk.pack(SuperOp.word(c, exp=(0, 8)))
    out = {}
    pk.mul_into(out, pk.pack(a), pk.pack(SuperOp.word(c, exp=(0, 7))), 1)
    assert pk.unpack(out) == a * SuperOp.word(c, exp=(0, 7))
    with pytest.raises(ExponentOverflow):
        pk.mul_into({}, pk.pack(a), pk.pack(SuperOp.word(c, exp=(1, 0))), 1)
    # a product sized by `fitting` never reaches the guard
    big = SuperOp.word(c, dels=(1,), exp=(40000, 3))
    assert (big * big).is_zero() and (big * a).terms

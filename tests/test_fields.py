from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcat.errors import InputParseError
from mfcat.fields import QQ, PrimeField

# ints, and Fractions, among them integral ones such as Fraction(2)
rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))
nonzero = rationals.filter(lambda q: q != 0)


def check(got, expected):
    """`got` equals `expected`, is an int exactly when integral, and is never a float."""
    assert type(got) in (int, Fraction)
    assert got == expected
    assert (type(got) is int) == (Fraction(expected).denominator == 1)


@given(rationals, rationals)
def test_ring_operations_match_fraction(a, b):
    a, b = QQ.of(a), QQ.of(b)
    fa, fb = Fraction(a), Fraction(b)
    check(QQ.add(a, b), fa + fb)
    check(QQ.sub(a, b), fa - fb)
    check(QQ.mul(a, b), fa * fb)
    check(QQ.neg(a), -fa)


@given(rationals, nonzero)
def test_inverse_and_division_match_fraction(a, b):
    a, b = QQ.of(a), QQ.of(b)
    check(QQ.inv(b), 1 / Fraction(b))
    check(QQ.div(a, b), Fraction(a) / Fraction(b))


@given(rationals)
def test_of_normalizes_fractions_and_literals(q):
    q = Fraction(q)
    check(QQ.of(q), q)
    check(QQ.of(q.numerator), q.numerator)
    check(QQ.of(str(q)), q)
    check(QQ.of(f"{2 * q.numerator}/{2 * q.denominator}"), q)


def test_constants_and_rejections():
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)
    for flag in (True, False):
        with pytest.raises(TypeError):
            QQ.of(flag)
    with pytest.raises(TypeError):
        QQ.of(0.5)
    with pytest.raises(InputParseError):
        QQ.of("1/0")


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_prime_field_is_unchanged(a, b):
    F = PrimeField(7)
    x, y = F.of(a), F.of(b)
    assert x == a % 7 and y == b % 7
    assert F.add(x, y) == (a + b) % 7
    assert F.sub(x, y) == (a - b) % 7
    assert F.mul(x, y) == a * b % 7
    assert F.neg(x) == -a % 7
    if y:
        assert F.div(x, y) * y % 7 == x
        assert F.inv(y) * y % 7 == 1
    assert F.of(Fraction(a, 3)) == a * 5 % 7
    assert F.of(f"{a}/3") == a * 5 % 7

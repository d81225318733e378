"""Exact coefficient fields: arbitrary-precision rationals and GF(p).

Field elements are plain Python values (Fraction for the rationals, int in
[0, p) for a prime field); the field object supplies the arithmetic. All
operations are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputParseError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond 64-bit moduli
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputParseError(f"bad rational literal {value!r}") from exc
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        return a / b

    def to_str(self, a) -> str:
        return str(a)

    @property
    def characteristic(self) -> int:
        return 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p); elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"prime field modulus must be prime, got {p}")
        self.p = p
        self.name = f"prime:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.of(value.numerator) * self.inv(self.of(value.denominator)) % self.p
        if isinstance(value, str):
            try:
                if "/" in value:
                    num, den = value.split("/", 1)
                    return self.div(self.of(int(num)), self.of(int(den)))
                return int(value) % self.p
            except (ValueError, ZeroDivisionError) as exc:
                raise InputParseError(f"bad GF({self.p}) literal {value!r}") from exc
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    @property
    def characteristic(self) -> int:
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name: str):
    if name == "rational":
        return QQ
    if name.startswith("prime:"):
        try:
            return PrimeField(int(name.split(":", 1)[1]))
        except ValueError as exc:
            raise InputParseError(f"bad field spec {name!r}: {exc}") from exc
    raise InputParseError(f"unknown field spec {name!r}")


def accumulate(out: dict, key, value, field):
    """Add `value` into out[key], dropping the key when the sum is zero."""
    total = field.add(out.get(key, field.zero), value)
    if total == field.zero:
        out.pop(key, None)
    else:
        out[key] = total

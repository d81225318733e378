"""Exact multivariate arithmetic in the polynomial ring k[x1..xn].

A series is a dict from exponent vectors to nonzero field scalars. Nothing is
ever dropped: the local ring is reached by the engines' own level and strand
truncations, which read polynomial entries.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import ContextMismatchError, PreconditionError
from .fields import QQ, accumulate


def default_names(n: int) -> tuple[str, ...]:
    if n <= 3:
        return tuple("xyz"[:n])
    return tuple(f"x{i + 1}" for i in range(n))


class RingCtx:
    """Shared context for series: variable names and coefficient field.

    Contexts compare by value so a deserialized context is interchangeable
    with the one it was written from. Mixed-context arithmetic raises.
    """

    __slots__ = ("names", "field")

    def __init__(self, names, field=QQ):
        if isinstance(names, int):
            names = default_names(names)
        names = tuple(names)
        if len(names) < 1:
            raise PreconditionError("a ring context needs at least one variable")
        if len(set(names)) != len(names):
            raise PreconditionError(f"duplicate variable names in {names}")
        self.names = names
        self.field = field

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def doubled(self) -> "RingCtx":
        """Context of the two-sided ring: original variables then primed copies."""
        return RingCtx(self.names + tuple(f"{n}'" for n in self.names), self.field)

    def __eq__(self, other):
        return (
            isinstance(other, RingCtx)
            and self.names == other.names
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"RingCtx({','.join(self.names)}; {self.field!r})"


def _check_ctx(a, b):
    # results share their operands' context object, so identity settles most checks
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx!r} vs {b.ctx!r}")


class LinearCombination:
    """Finite linear combination: `terms` maps hashable terms to nonzero
    coefficients in the context's field, each reduced through `field.of` on
    construction. `Series` and `SuperOp` add their products, constructors
    and views. Immutable."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms: dict):
        # an explicit loop: before Python 3.12 a comprehension is a frame per call
        of, zero = ctx.field.of, ctx.field.zero
        clean = {}
        for key, coeff in terms.items():
            coeff = of(coeff)
            if coeff != zero:
                clean[key] = coeff
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def zero(cls, ctx: RingCtx):
        return cls(ctx, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        _check_ctx(self, other)
        field = self.ctx.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c, field)
        return type(self)(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.field.neg
        return type(self)(self.ctx, {k: neg(c) for k, c in self.terms.items()})

    def scale(self, scalar):
        field = self.ctx.field
        c0 = field.of(scalar)
        if c0 == field.zero:
            return type(self).zero(self.ctx)
        return type(self)(self.ctx, {k: field.mul(c0, c) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self) and self.ctx == other.ctx and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))


class Series(LinearCombination):
    """Element of k[x1..xn]. Immutable."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(ctx: RingCtx, value) -> "Series":
        return Series(ctx, {(0,) * ctx.n_vars: ctx.field.of(value)})

    @staticmethod
    def one(ctx: RingCtx) -> "Series":
        return Series.constant(ctx, 1)

    @staticmethod
    def variable(ctx: RingCtx, i: int) -> "Series":
        if not 0 <= i < ctx.n_vars:
            raise PreconditionError(f"variable index {i} out of range")
        exp = [0] * ctx.n_vars
        exp[i] = 1
        return Series(ctx, {tuple(exp): ctx.field.one})

    # -- predicates and views ----------------------------------------------

    def residue(self):
        """Constant term, i.e. the image in the residue field."""
        return self.terms.get((0,) * self.ctx.n_vars, self.ctx.field.zero)

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero series."""
        return max((sum(e) for e in self.terms), default=-1)

    def order(self) -> int:
        """Min total degree of a term; large sentinel for zero."""
        return min((sum(e) for e in self.terms), default=1 << 30)

    def in_maximal_ideal_square(self) -> bool:
        return self.order() >= 2

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        _check_ctx(self, other)
        field = self.ctx.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                accumulate(out, exp, field.mul(c1, c2), field)
        return Series(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative powers are not ring elements")
        result = Series.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, i: int) -> "Series":
        if not 0 <= i < self.ctx.n_vars:
            raise PreconditionError(f"variable index {i} out of range")
        field = self.ctx.field
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = field.mul(field.of(exp[i]), c)
        return Series(self.ctx, out)

    def split_by_variable(self, i: int):
        """Write self = x_i * quotient + remainder with remainder free of x_i."""
        if not 0 <= i < self.ctx.n_vars:
            raise PreconditionError(f"variable index {i} out of range")
        quot, rem = {}, {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                rem[exp] = c
            else:
                new = list(exp)
                new[i] -= 1
                quot[tuple(new)] = c
        return Series(self.ctx, quot), Series(self.ctx, rem)

    def set_zero(self, indices) -> "Series":
        """Substitute x_i = 0 for every index in `indices`."""
        idx = set(indices)
        out = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return Series(self.ctx, out)

    def relabel(self, new_ctx: RingCtx, var_map) -> "Series":
        """Push into `new_ctx`, sending variable i to variable var_map[i]."""
        if self.ctx.field != new_ctx.field:
            raise ContextMismatchError("relabel cannot change the coefficient field")
        out = {}
        for exp, c in self.terms.items():
            new = [0] * new_ctx.n_vars
            for i, e in enumerate(exp):
                if e:
                    new[var_map[i]] += e
            out[tuple(new)] = c
        return Series(new_ctx, out)

    def __repr__(self):
        return f"Series({format_series(self)})"


def format_series(s: Series) -> str:
    if s.is_zero():
        return "0"
    field = s.ctx.field
    parts = []
    for exp in sorted(s.terms, key=monomial_sort_key):
        c = s.terms[exp]
        mono = "*".join(
            f"{name}^{e}" if e > 1 else name
            for name, e in zip(s.ctx.names, exp)
            if e
        )
        cs = field.to_str(c)
        if mono:
            if cs == "1":
                term = mono
            elif cs == "-1":
                term = f"-{mono}"
            else:
                term = f"{cs}*{mono}"
        else:
            term = cs
        parts.append(term)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


# -- monomial enumeration ----------------------------------------------------


def monomial_sort_key(exp):
    """Graded order, largest-first-variable listed first within a degree."""
    return (sum(exp), tuple(-e for e in exp))


def monomials_of_degree(n_vars: int, degree: int):
    """All exponent vectors of total degree exactly `degree`, canonical order."""
    out = []
    for combo in combinations_with_replacement(range(n_vars), degree):
        exp = [0] * n_vars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    out.sort(key=monomial_sort_key)
    return out


def monomial_basis(ctx_or_n, max_degree: int):
    """All exponent vectors of total degree <= max_degree in graded-lex order."""
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    n = ctx_or_n.n_vars if isinstance(ctx_or_n, RingCtx) else int(ctx_or_n)
    out = []
    for d in range(max_degree + 1):
        out.extend(monomials_of_degree(n, d))
    return out


# -- the two-sided ring -------------------------------------------------------


def difference_quotient(w: Series, i: int, doubled: RingCtx | None = None) -> Series:
    """The i-th divided difference of w in the two-sided ring.

    Returns (w(y1..y_{i-1}, x_i..x_n) - w(y1..y_i, x_{i+1}..x_n)) / (x_i - y_i),
    where y_j denotes the primed copy of x_j. The division is exact; summing
    (x_i - y_i) times the quotients over all i telescopes to w(x) - w(y).
    """
    n = w.ctx.n_vars
    if not 0 <= i < n:
        raise PreconditionError(f"variable index {i} out of range")
    if doubled is None:
        doubled = w.ctx.doubled()
    field = w.ctx.field
    out = {}
    for exp, c in w.terms.items():
        if exp[i] == 0:
            continue
        base = [0] * (2 * n)
        for j in range(i):
            base[n + j] = exp[j]
        for j in range(i + 1, n):
            base[j] = exp[j]
        # (x_i^a - y_i^a) / (x_i - y_i) = sum_t x_i^t y_i^(a-1-t)
        for t in range(exp[i]):
            e = list(base)
            e[i] += t
            e[n + i] += exp[i] - 1 - t
            accumulate(out, tuple(e), c, field)
    return Series(doubled, out)

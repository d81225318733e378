"""Normal-form algebra of polynomial differential operators on R<theta_1..theta_n>.

A term is (x-exponent, theta word, del word) with both words sorted strictly
ascending and every theta written left of every del. Multiplication
normal-orders via del_i theta_j + theta_j del_i = delta_ij with all Koszul
signs tracked exactly. Each pair of words is normal-ordered once
(`_word_product`), and every product goes through one kernel that reads
that table (`multiply_into`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add as _add_exponents

from .errors import PreconditionError
from .exterior import merge_sorted
from .series import LinearCombination, Series, _check_ctx


@lru_cache(maxsize=None)
def _del_theta(dels: tuple, thetas: tuple):
    """Normal ordering of del_word * theta_word.

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


@lru_cache(maxsize=None)
def _word_product(th1: tuple, dl1: tuple, th2: tuple, dl2: tuple):
    """Normal form of theta_th1 del_dl1 * theta_th2 del_dl2.

    Returns ((theta, del, sign), ...) with sign +1 or -1: `_del_theta` moves
    del_dl1 past theta_th2, then theta_th1 and del_dl2 merge in. Each term of
    `_del_theta(dl1, th2)` is theta_(th2 - S) del_(dl1 - S) for one S in
    dl1 & th2, so the terms have distinct theta words, and so distinct
    words after the merge with th1: no two terms combine.
    """
    out = []
    for (th_mid, dl_mid), s_mid in _del_theta(dl1, th2):
        left = merge_sorted(th1, th_mid)
        if left is None:
            continue
        right = merge_sorted(dl_mid, dl2)
        if right is None:
            continue
        out.append((left[1], right[1], s_mid * left[0] * right[0]))
    return tuple(out)


def multiply_into(out: dict, a, b, sign: int) -> None:
    """Add sign * a b into the term dict `out`, for sign +1 or -1.

    The product of two terms reads the normal-ordered words of their word
    pair from `_word_product`; a sign -1 negates the coefficient. A sum that
    cancels stays in `out` as a zero, which the `SuperOp` built from it drops.
    """
    field = a.ctx.field
    add, mul, neg, zero = field.add, field.mul, field.neg, field.zero
    b_terms = b.terms.items()
    for (e1, th1, dl1), c1 in a.terms.items():
        if sign < 0:
            c1 = neg(c1)
        for (e2, th2, dl2), c2 in b_terms:
            words = _word_product(th1, dl1, th2, dl2)
            if not words:
                continue
            exp = tuple(map(_add_exponents, e1, e2))
            c = mul(c1, c2)
            for th, dl, s in words:
                key = (exp, th, dl)
                out[key] = add(out.get(key, zero), c if s > 0 else neg(c))


class SuperOp(LinearCombination):
    """Element of the operator algebra, in normal form. Immutable."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def one(ctx):
        return SuperOp(ctx, {((0,) * ctx.n_vars, (), ()): ctx.field.one})

    @staticmethod
    def from_series(s: Series):
        return SuperOp(s.ctx, {(exp, (), ()): c for exp, c in s.terms.items()})

    @staticmethod
    def theta(ctx, i):
        return SuperOp(ctx, {((0,) * ctx.n_vars, (i,), ()): ctx.field.one})

    @staticmethod
    def del_theta(ctx, i):
        return SuperOp(ctx, {((0,) * ctx.n_vars, (), (i,)): ctx.field.one})

    @staticmethod
    def word(ctx, thetas=(), dels=(), coeff=1, exp=None):
        if exp is None:
            exp = (0,) * ctx.n_vars
        thetas, dels = tuple(thetas), tuple(dels)
        for w in (thetas, dels):
            if list(w) != sorted(set(w)) or any(not 0 <= i < ctx.n_vars for i in w):
                raise PreconditionError(f"generator word {w} is not strictly ascending")
        return SuperOp(ctx, {(tuple(exp), thetas, dels): ctx.field.of(coeff)})

    # -- structure ----------------------------------------------------------

    def parity_parts(self):
        """(even part, odd part) by (len thetas + len dels) mod 2."""
        even, odd = {}, {}
        for key, c in self.terms.items():
            (even if (len(key[1]) + len(key[2])) % 2 == 0 else odd)[key] = c
        return SuperOp(self.ctx, even), SuperOp(self.ctx, odd)

    def parity(self):
        pars = {(len(k[1]) + len(k[2])) % 2 for k in self.terms}
        if len(pars) > 1:
            raise PreconditionError("element is not parity homogeneous")
        return pars.pop() if pars else 0

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        _check_ctx(self, other)
        out: dict = {}
        multiply_into(out, self, other, 1)
        return SuperOp(self.ctx, out)

    def __repr__(self):
        if not self.terms:
            return "SuperOp(0)"
        bits = []
        for (exp, th, dl), c in sorted(self.terms.items()):
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(self.ctx.names, exp) if e
            )
            word = "".join([f"t{i}" for i in th] + [f"D{i}" for i in dl])
            bits.append(f"{self.ctx.field.to_str(c)}:{mono or '1'}:{word or '1'}")
        return "SuperOp(" + " + ".join(bits) + ")"


def graded_commutator(a: SuperOp, b: SuperOp) -> SuperOp:
    """[a, b] = ab - (-1)^(|a||b|) ba on parity-homogeneous pieces."""
    _check_ctx(a, b)
    out: dict = {}
    for x, px in zip(a.parity_parts(), (0, 1)):
        if x.is_zero():
            continue
        for y, py in zip(b.parity_parts(), (0, 1)):
            if y.is_zero():
                continue
            multiply_into(out, x, y, 1)
            multiply_into(out, y, x, 1 if px * py else -1)
    return SuperOp(a.ctx, out)

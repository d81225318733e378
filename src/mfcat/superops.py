"""Normal-form algebra of polynomial differential operators on R<theta_1..theta_n>.

A term is (x-exponent, theta word, del word) with both words sorted strictly
ascending and every theta written left of every del. Multiplication
normal-orders via del_i theta_j + theta_j del_i = delta_ij with all Koszul
signs tracked exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContextMismatchError, PreconditionError
from .exterior import merge_sorted
from .fields import accumulate
from .series import RingCtx, Series


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


class SuperOp:
    """Element of the operator algebra, in normal form. Immutable."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms: dict):
        cap = ctx.truncation
        zero = ctx.field.zero
        clean = {}
        for key, coeff in terms.items():
            if coeff == zero:
                continue
            if cap is not None and sum(key[0]) > cap:
                continue
            clean[key] = coeff
        self.ctx = ctx
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ctx):
        return SuperOp(ctx, {})

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

    def is_zero(self):
        return not self.terms

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

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("operator context mismatch")
        field = self.ctx.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c, field)
        return SuperOp(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.field.neg
        return SuperOp(self.ctx, {k: neg(c) for k, c in self.terms.items()})

    def scale(self, scalar):
        field = self.ctx.field
        c0 = field.of(scalar)
        if c0 == field.zero:
            return SuperOp.zero(self.ctx)
        return SuperOp(self.ctx, {k: field.mul(c0, c) for k, c in self.terms.items()})

    def __mul__(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("operator context mismatch")
        field = self.ctx.field
        cap = self.ctx.truncation
        out: dict = {}
        for (e1, th1, dl1), c1 in self.terms.items():
            d1 = sum(e1)
            for (e2, th2, dl2), c2 in other.terms.items():
                if cap is not None and d1 + sum(e2) > cap:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
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
        return SuperOp(self.ctx, out)

    def __eq__(self, other):
        return (
            isinstance(other, SuperOp) and self.ctx == other.ctx and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

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
    out = SuperOp.zero(a.ctx)
    ae, ao = a.parity_parts()
    be, bo = b.parity_parts()
    for x, px in ((ae, 0), (ao, 1)):
        if x.is_zero():
            continue
        for y, py in ((be, 0), (bo, 1)):
            if y.is_zero():
                continue
            prod = x * y
            back = y * x
            out = out + (prod + back if px * py else prod - back)
    return out

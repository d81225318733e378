"""Koszul-type stabilizations: residue field, diagonal, and general regular sequences.

The factorization attached to (f_1..f_m; w_1..w_m) with sum f_i w_i = w lives
on the exterior algebra of R^m, with differential contraction-by-f plus
wedge-by-w. Its words are `exterior` masks in the frozen `subsets_ordered`
order, and generator i acts on a word by one signed toggle of bit i
(`make_koszul_mf`). Basis order and witness conventions are frozen here so
outputs are bit-reproducible.
"""

from __future__ import annotations

from .errors import PreconditionError, VerificationError
from .exterior import inversions, mask_of, subsets_ordered
from .factorization import MatrixFactorization, RMatrix
from .series import RingCtx, Series, difference_quotient


class KoszulData:
    """A regular sequence with witnesses expressing the potential.

    Regularity itself is caller-asserted; the witness identity
    sum(f_i * w_i) = potential is checked exactly.
    """

    __slots__ = ("ctx", "generators", "witnesses", "potential")

    def __init__(self, ctx: RingCtx, generators, witnesses, potential=None):
        if len(generators) != len(witnesses) or not generators:
            raise PreconditionError("need equally many generators and witnesses, at least one")
        for s in list(generators) + list(witnesses):
            if s.ctx != ctx:
                raise PreconditionError("Koszul data context mismatch")
        total = Series.zero(ctx)
        for f, wit in zip(generators, witnesses):
            total = total + f * wit
        if potential is not None and total != potential:
            raise VerificationError("witness identity sum(f_i w_i) = w fails")
        self.ctx = ctx
        self.generators = list(generators)
        self.witnesses = list(witnesses)
        self.potential = total

    @property
    def size(self) -> int:
        return len(self.generators)


def make_koszul_mf(kd: KoszulData) -> MatrixFactorization:
    """Factorization (exterior algebra, contraction + wedge) of the witness sum.

    Generator i sends the word S to S ^ (1 << i): by contraction with f_i
    when i is in S, by wedge with w_i when it is not. Either way the entry
    is negated when an odd number of letters of S lie below i, the
    inversions of the word i followed by S. Distinct generators send S to
    distinct words, so each entry is one signed f_i or w_i.
    """
    ctx, neg = kd.ctx, kd.ctx.field.neg
    words = [mask_of(s) for s in subsets_ordered(kd.size)]
    even = [s for s in words if not s.bit_count() % 2]
    odd = [s for s in words if s.bit_count() % 2]
    row_of = {s: r for part in (even, odd) for r, s in enumerate(part)}

    def column(s):
        for i in range(kd.size):
            entry = (kd.generators if s >> i & 1 else kd.witnesses)[i]
            sign = inversions(1 << i, s) % 2
            for exp, c in entry.terms.items():
                yield row_of[s ^ 1 << i], exp, neg(c) if sign else c

    def differential(rows, cols):
        return RMatrix.from_columns(ctx, len(rows), [list(column(s)) for s in cols])

    return MatrixFactorization(ctx, kd.potential, differential(even, odd), differential(odd, even))


def peel_witnesses(w: Series, order) -> list:
    """Witnesses with w = sum x_i w_i, peeling the variables in `order`: w_i
    is the x_i-quotient once the variables peeled before x_i are set to 0."""
    witnesses = [None] * w.ctx.n_vars
    rest = w
    for i in order:
        witnesses[i], rest = rest.split_by_variable(i)
    if not rest.is_zero():
        raise PreconditionError("potential must have zero constant term")
    return witnesses


def require_potential(w: Series) -> None:
    """The precondition every construction from a potential shares."""
    if w.is_zero() or not w.in_maximal_ideal_square():
        raise PreconditionError("potential must be nonzero and lie in m^2")


def decompose_potential(w: Series) -> KoszulData:
    """Write w = sum x_i w_i by peeling variables in index order.

    w_i involves only x_i..x_n. Other decompositions give homotopy
    equivalent but different matrices; this one is the frozen convention.
    """
    require_potential(w)
    ctx = w.ctx
    witnesses = peel_witnesses(w, range(ctx.n_vars))
    generators = [Series.variable(ctx, i) for i in range(ctx.n_vars)]
    return KoszulData(ctx, generators, witnesses, w)


def stabilize_residue_field(w: Series) -> MatrixFactorization:
    """The compact generator: stabilization of R/m as a module over R/w."""
    return make_koszul_mf(decompose_potential(w))


def stabilized_diagonal(w: Series) -> MatrixFactorization:
    """Koszul factorization on x_i - x_i' with divided-difference witnesses.

    Lives over the doubled ring with potential -w(x) + w(x'); the witness
    signs are chosen so the identity sum(gen_i * wit_i) = -w(x) + w(x')
    holds exactly.
    """
    require_potential(w)
    ctx = w.ctx
    doubled = ctx.doubled()
    n = ctx.n_vars
    gens = [
        Series.variable(doubled, i) - Series.variable(doubled, n + i) for i in range(n)
    ]
    wits = [-difference_quotient(w, i, doubled) for i in range(n)]
    left = w.relabel(doubled, tuple(range(n)))
    right = w.relabel(doubled, tuple(range(n, 2 * n)))
    kd = KoszulData(doubled, gens, wits, -left + right)
    return make_koszul_mf(kd)

"""Koszul-type stabilizations: residue field, diagonal, and general regular sequences.

The factorization attached to (f_1..f_m; w_1..w_m) with sum f_i w_i = w lives
on the exterior algebra of R^m, with differential contraction-by-f plus
wedge-by-w. Basis order and witness conventions are frozen here so outputs
are bit-reproducible.
"""

from __future__ import annotations

from .errors import PreconditionError, VerificationError
from .exterior import contraction_terms, parity_split, wedge_terms
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
    """Factorization (wedge algebra, contraction + wedge) of the witness sum."""
    m = kd.size
    ctx = kd.ctx
    even, odd = parity_split(m)
    even_idx = {s: i for i, s in enumerate(even)}
    odd_idx = {s: i for i, s in enumerate(odd)}
    phi = RMatrix.zero(ctx, len(even), len(odd))
    psi = RMatrix.zero(ctx, len(odd), len(even))

    def add_action(mat, idx_out, col, subset):
        for i, rest, sign in contraction_terms(subset):
            target = idx_out.get(rest)
            if target is None:
                continue
            term = kd.generators[i] if sign > 0 else -kd.generators[i]
            mat.entries[target][col] = mat.entries[target][col] + term
        for i, merged, sign in wedge_terms(subset, m):
            target = idx_out.get(merged)
            if target is None:
                continue
            term = kd.witnesses[i] if sign > 0 else -kd.witnesses[i]
            mat.entries[target][col] = mat.entries[target][col] + term

    for col, subset in enumerate(odd):
        add_action(phi, even_idx, col, subset)
    for col, subset in enumerate(even):
        add_action(psi, odd_idx, col, subset)

    return MatrixFactorization(
        ctx, kd.potential, RMatrix(ctx, phi.entries), RMatrix(ctx, psi.entries)
    )


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


def decompose_potential(w: Series) -> KoszulData:
    """Write w = sum x_i w_i by peeling variables in index order.

    w_i involves only x_i..x_n. Other decompositions give homotopy
    equivalent but different matrices; this one is the frozen convention.
    """
    if not w.in_maximal_ideal_square() or w.is_zero():
        raise PreconditionError("potential must be nonzero and lie in m^2")
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
    if not w.in_maximal_ideal_square():
        raise PreconditionError("potential must lie in m^2")
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

"""Integral transforms: factorizations over the two-sided ring acting as kernels.

The ring tensor over the inner variables has infinite rank; the honest
equivalence is quasi-isomorphism, so the finite-rank representative is
produced by truncating the inner variables and is flagged as such. The
k-reduced cohomology of a transform is computed exactly from the untruncated
action complex instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Z2Complex, _truncated_operator_rows, cohomology_over_R
from .errors import PreconditionError
from .factorization import MatrixFactorization, RMatrix, _tensor_blocks
from .series import RingCtx, Series, monomial_basis


def _split_kernel_ctx(x_ctx: RingCtx, t_ctx: RingCtx) -> RingCtx:
    n = x_ctx.n_vars
    if t_ctx.n_vars <= n:
        raise PreconditionError("kernel must live over strictly more variables")
    if t_ctx.names[:n] != x_ctx.names or t_ctx.field != x_ctx.field:
        raise PreconditionError("kernel context must extend the source context")
    return RingCtx(t_ctx.names[n:], t_ctx.field, t_ctx.truncation)


def _restrict_outer(series: Series, n_inner: int, out_ctx: RingCtx) -> Series:
    out = {}
    for exp, c in series.terms.items():
        out[exp[n_inner:]] = c
    return Series(out_ctx, out)


def _output_potential(x: MatrixFactorization, t: MatrixFactorization, out_ctx) -> Series:
    """Check t's potential is -w(x) + w'(y) against x's and return w'."""
    n = x.ctx.n_vars
    lifted = x.potential.relabel(t.ctx, tuple(range(n)))
    total = t.potential + lifted
    if any(any(exp[:n]) for exp in total.terms):
        raise PreconditionError("kernel potential is not of the form -w(x) + w'(y)")
    return _restrict_outer(total, n, out_ctx)


def kernel_action_complex(x: MatrixFactorization, t: MatrixFactorization) -> Z2Complex:
    """The transform reduced modulo the output maximal ideal: a 2-periodic
    complex of free modules over the inner ring with finite-length cohomology."""
    out_ctx = _split_kernel_ctx(x.ctx, t.ctx)
    _output_potential(x, t, out_ctx)
    ctx = x.ctx
    n = ctx.n_vars
    outer = range(n, t.ctx.n_vars)

    def restrict_entry(e: Series) -> Series:
        zeroed = e.set_zero(outer)
        return Series(ctx, {exp[:n]: c for exp, c in zeroed.terms.items()})

    t_phi = t.phi.map_entries(restrict_entry, ctx)
    t_psi = t.psi.map_entries(restrict_entry, ctx)
    phi_c, psi_c = _tensor_blocks(x.phi, x.psi, t_phi, t_psi, ctx, x.rank, t.rank)
    return Z2Complex(ctx, psi_c, phi_c)


def transform_mod_k_dims(x: MatrixFactorization, t: MatrixFactorization, n_max=None):
    """Exact (even, odd) k-dimensions of the cohomology of k (x) (X (x)_R T)."""
    return cohomology_over_R(kernel_action_complex(x, t), n_max)


@dataclass
class TransformResult:
    factorization: MatrixFactorization
    truncation: int
    up_to_quasi_isomorphism: bool = True


def integral_transform(
    x: MatrixFactorization, t: MatrixFactorization, truncation=None
) -> TransformResult:
    """Finite-rank representative of X (x)_R T over the output ring.

    Inner variables are truncated at the given total degree (default twice
    the source potential degree). The result satisfies its factorization
    identity exactly at any truncation, but represents the transform only up
    to quasi-isomorphism, which the flag records.
    """
    out_ctx = _split_kernel_ctx(x.ctx, t.ctx)
    w_out = _output_potential(x, t, out_ctx)
    if truncation is None:
        truncation = 2 * max(1, x.potential.total_degree())
    n = x.ctx.n_vars
    # the graded tensor differential over the kernel's variables, untruncated
    ctx = t.ctx.with_truncation(None)
    inner_ctx = x.ctx.with_truncation(None)

    def lift(mat: RMatrix, positions) -> RMatrix:
        return mat.map_entries(lambda e: e.relabel(ctx, positions), ctx)

    inner, every = tuple(range(n)), tuple(range(ctx.n_vars))
    phi, psi = _tensor_blocks(
        lift(x.phi, inner),
        lift(x.psi, inner),
        lift(t.phi, every),
        lift(t.psi, every),
        ctx,
        x.rank,
        t.rank,
    )
    monos = monomial_basis(n, truncation)
    nm = len(monos)

    def expand(mat: RMatrix) -> RMatrix:
        # basis vector (tensor index r, inner monomial m) sits at r * nm + index(m);
        # one multiplication operator over the inner variables per outer monomial
        by_outer: dict = {}
        for r, row in enumerate(mat.entries):
            for s, e in enumerate(row):
                for exp, c in e.terms.items():
                    by_outer.setdefault(exp[n:], {}).setdefault((r, s), {})[exp[:n]] = c
        src = [(s, m) for s in range(mat.cols) for m in monos]
        tgt = {(r, m): r * nm + k for r in range(mat.rows) for k, m in enumerate(monos)}
        out = [[{} for _ in src] for _ in tgt]
        for outer, cells in by_outer.items():
            op = RMatrix(
                inner_ctx,
                [
                    [Series(inner_ctx, cells.get((r, s), {})) for s in range(mat.cols)]
                    for r in range(mat.rows)
                ],
            )
            for col, vec in enumerate(_truncated_operator_rows(op, src, tgt, ctx.field)):
                for row, c in vec.items():
                    out[row][col][outer] = c
        return RMatrix(out_ctx, [[Series(out_ctx, terms) for terms in row] for row in out])

    mf = MatrixFactorization(out_ctx, w_out, expand(phi), expand(psi))
    return TransformResult(mf, truncation)

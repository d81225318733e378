"""Integral transforms: factorizations over the two-sided ring acting as kernels.

A kernel T over the source variables x followed by the output variables y is
a factorization of -w(x) + w'(y), and sends X to X (x)_R T. The transform is
computed reduced modulo the output maximal ideal: setting y = 0 turns T into
T0, a factorization of -w over the source ring R (w'(0) = 0 is required), and
the reduction of X (x)_R T is the complex X (x)_R T0. Since `hom_complex(a, x)`
is X (x) dual(A) and dual(dual(T0)) is the parity conjugate of T0, X (x) T0 is
isomorphic to Hom(dual(T0), X). So a transform's dimensions are a Hom's, exact
and found with `hom_cohomology`'s stops. No representative over the output
ring is built.
"""

from __future__ import annotations

from .complexes import hom_cohomology
from .errors import PreconditionError
from .factorization import MatrixFactorization, dual
from .series import Series


def _output_potential(x: MatrixFactorization, t: MatrixFactorization) -> None:
    """Check t's potential is -w(x) + w'(y) against x's, with w'(0) = 0."""
    n = x.ctx.n_vars
    lifted = x.potential.relabel(t.ctx, tuple(range(n)))
    total = t.potential + lifted
    if any(any(exp[:n]) for exp in total.terms):
        raise PreconditionError("kernel potential is not of the form -w(x) + w'(y)")
    constant = total.terms.get((0,) * t.ctx.n_vars)
    if constant is not None:
        raise PreconditionError(
            f"kernel output potential w'(y) has constant term {t.ctx.field.to_str(constant)}, not 0"
        )


def _kernel_at_zero(x: MatrixFactorization, t: MatrixFactorization) -> MatrixFactorization:
    """T0: the kernel with its output variables set to 0, a factorization of -w
    over x's ring."""
    ctx = x.ctx
    n = ctx.n_vars
    if t.ctx.n_vars <= n:
        raise PreconditionError("kernel must live over strictly more variables")
    if t.ctx.names[:n] != ctx.names or t.ctx.field != ctx.field:
        raise PreconditionError("kernel context must extend the source context")
    _output_potential(x, t)
    outer = range(n, t.ctx.n_vars)

    def restrict_entry(e: Series) -> Series:
        return Series(ctx, {exp[:n]: c for exp, c in e.set_zero(outer).terms.items()})

    phi, psi = (m.map_entries(restrict_entry, ctx) for m in (t.phi, t.psi))
    return MatrixFactorization(ctx, -x.potential, phi, psi)


def transform_mod_k_dims(x: MatrixFactorization, t: MatrixFactorization):
    """Exact (even, odd) k-dimensions of the cohomology of k (x) (X (x)_R T),
    that is of H(Hom(dual(T0), X)) over R."""
    return hom_cohomology(dual(_kernel_at_zero(x, t)), x)

"""Hochschild invariants via the folded Koszul complex of the partials.

The Milnor/Tyurina dimensions come from exact linear algebra in truncated
quotients; that computation is sound because the truncated dimensions are
monotone and a repeat value certifies stabilization (graded Nakayama).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .complexes import (
    Z2Complex,
    _truncated_operator_rows,
    cohomology_over_R,
    hom_complex,
    mf_reduction,
    stabilization_cap,
)
from .errors import PreconditionError, StabilizationError, VerificationError
from .factorization import RMatrix, dual, shift_power
from .linalg import rref_dense
from .series import Series, monomial_basis
from .stabilize import KoszulData, make_koszul_mf, stabilized_diagonal


@dataclass
class JacobianReport:
    milnor_number: int
    tyurina_number: int
    monomial_basis: list = dc_field(default_factory=list)
    stabilized_at: int = 0


def _quotient_data(ctx, gens, cap):
    """dim and standard monomials of R/(gens) worked in R/m^(N+1), N = cap."""
    monos = monomial_basis(ctx, cap)
    field = ctx.field
    # the ideal is spanned by the rows of g_i * alpha: one operator row per
    # (generator, monomial) pair, for the 1 x len(gens) matrix of generators
    index = {(0, m): i for i, m in enumerate(monos)}
    src = [(i, alpha) for i in range(len(gens)) for alpha in monos]
    rows = []
    for vec in _truncated_operator_rows(RMatrix(ctx, [list(gens)]), src, index, field):
        if vec:
            row = [field.zero] * len(monos)
            for col, c in vec.items():
                row[col] = c
            rows.append(row)
    reduced, pivots = rref_dense(rows, field)
    pivot_set = set(pivots)
    standard = [monos[i] for i in range(len(monos)) if i not in pivot_set]
    return len(standard), standard


def _stabilized_quotient(ctx, gens, n_max=None):
    cap = stabilization_cap(n_max)
    prev = None
    n = 1
    while n <= cap:
        dim, standard = _quotient_data(ctx, gens, n)
        if prev is not None and prev[0] == dim:
            return dim, prev[1], n - 1
        prev = (dim, standard)
        n += 1
    raise StabilizationError(
        "quotient dimension does not stabilize: not isolated (or cap too low)"
    )


def jacobian_report(w: Series, n_max=None) -> JacobianReport:
    if not w.in_maximal_ideal_square() or w.is_zero():
        raise PreconditionError("potential must be nonzero and lie in m^2")
    ctx = w.ctx
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    milnor, standard, at = _stabilized_quotient(ctx, partials, n_max)
    tyurina, _, _ = _stabilized_quotient(ctx, partials + [w], n_max)
    return JacobianReport(milnor, tyurina, standard, at)


def folded_koszul_complex(gens) -> Z2Complex:
    """Z/2-folding of the Koszul complex of the given ring elements: the
    Koszul factorization with zero witnesses, whose differential squares to 0."""
    if not gens:
        raise PreconditionError("need at least one generator")
    ctx = gens[0].ctx
    mf = make_koszul_mf(KoszulData(ctx, gens, [Series.zero(ctx)] * len(gens)))
    return Z2Complex(ctx, mf.psi, mf.phi)


def hochschild_cohomology(w: Series, n_max=None):
    """(even, odd) dims from the folded Koszul complex of the partials.

    Cross-checked against the Milnor number; a mismatch means the input
    violates the isolatedness hypothesis rather than a tolerance.
    """
    return _checked_koszul_dims(w, jacobian_report(w, n_max), n_max)


def _checked_koszul_dims(w: Series, report: JacobianReport, n_max):
    ctx = w.ctx
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    dims = cohomology_over_R(folded_koszul_complex(partials), n_max)
    if dims[1] != 0 or dims[0] != report.milnor_number:
        raise VerificationError(
            f"Koszul route gave {dims}, Jacobian quotient gave ({report.milnor_number}, 0)"
        )
    return dims


def hochschild_homology(w: Series, n_max=None):
    """Total dimension is the Milnor number, placed in parity n mod 2."""
    report = jacobian_report(w, n_max)
    if w.ctx.n_vars % 2:
        return (0, report.milnor_number)
    return (report.milnor_number, 0)


def diagonal_hh_crosscheck(w: Series, n_max=None) -> bool:
    """Two routes: folded Koszul of the partials vs endomorphisms of the
    stabilized diagonal. True iff the dimension pairs agree."""
    route1 = hochschild_cohomology(w, n_max)
    diag = stabilized_diagonal(w)
    route2 = cohomology_over_R(hom_complex(diag, diag), n_max)
    return route1 == route2


def calabi_yau_parity_check(w: Series) -> bool:
    """Dimension shadow of the duality: k-reduced cohomology of the dual
    diagonal matches that of the diagonal shifted by n mod 2."""
    diag = stabilized_diagonal(w)
    lhs = cohomology_mod_k_of(dual(diag))
    rhs = cohomology_mod_k_of(shift_power(diag, w.ctx.n_vars % 2))
    return lhs == rhs


def cohomology_mod_k_of(mf):
    return mf_reduction(mf).cohomology_dims()


def hh_report(w: Series, n_max=None) -> dict:
    """The CLI-facing summary; periodic invariants equal the homology dims
    because everything sits in a single parity."""
    report = jacobian_report(w, n_max)
    even, odd = _checked_koszul_dims(w, report, n_max)
    return {
        "hh_even": even,
        "hh_odd": odd,
        "milnor": report.milnor_number,
        "tyurina": report.tyurina_number,
        "hh_homology_parity": w.ctx.n_vars % 2,
        "hp": report.milnor_number,
    }

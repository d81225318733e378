"""Hochschild invariants via the folded Koszul complex of the partials.

The Milnor/Tyurina dimensions are those of R/(gens + m^(N+1)) at levels
N = 1, 2, ..., each len(monomials of degree <= N) minus one sparse rank
(`complexes._quotient_dim`). The first repeated dimension is the answer:
the dimensions never decrease, and equality at N and N + 1 means
m^(N+1) lies in (gens) + m^(N+2), so m^(N+1) lies in (gens) by Nakayama's
lemma and every later level has the same dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .complexes import (
    _certified_top_degree,
    _quotient_dim,
    cohomology_mod_k,
    cohomology_over_R,
    hom_cohomology,
    stabilization_cap,
)
from .errors import PreconditionError, StabilizationError, VerificationError
from .factorization import MatrixFactorization, dual, shift_power
from .series import Series, monomial_basis
from .stabilize import KoszulData, make_koszul_mf, stabilized_diagonal


@dataclass
class JacobianReport:
    milnor_number: int
    tyurina_number: int
    stabilized_at: int = 0


def _stabilized_quotient(ctx, gens):
    """(dim R/(gens), N): the dimension of R/(gens + m^(N+1)) at the first
    level N whose dimension repeats at N + 1."""
    cap = stabilization_cap()
    prev = None
    for n in range(1, cap + 1):
        monos = monomial_basis(ctx, n)
        dim = _quotient_dim(gens, [(i, m) for i in range(len(gens)) for m in monos], monos)
        if dim == prev:
            return dim, n - 1
        prev = dim
    raise StabilizationError(
        "quotient dimension does not stabilize: not isolated (or cap too low)"
    )


def jacobian_report(w: Series) -> JacobianReport:
    if not w.in_maximal_ideal_square() or w.is_zero():
        raise PreconditionError("potential must be nonzero and lie in m^2")
    ctx = w.ctx
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    # by Krull's height theorem the n - 1 other partials cannot generate an
    # m-primary ideal, so no quotient dimension would ever stabilize
    for name, d in zip(ctx.names, partials):
        if d.is_zero():
            raise PreconditionError(
                f"dw/d{name} vanishes identically in characteristic "
                f"{ctx.field.characteristic}: the Jacobian ideal is not m-primary, "
                "so the Jacobian and Koszul routes do not apply"
            )
    milnor, at = _stabilized_quotient(ctx, partials)
    tyurina, _ = _stabilized_quotient(ctx, partials + [w])
    return JacobianReport(milnor, tyurina, at)


def folded_koszul_complex(gens) -> MatrixFactorization:
    """Z/2-folding of the Koszul complex of the given ring elements: the
    Koszul factorization with zero witnesses, a factorization of 0."""
    if not gens:
        raise PreconditionError("need at least one generator")
    ctx = gens[0].ctx
    return make_koszul_mf(KoszulData(ctx, gens, [Series.zero(ctx)] * len(gens)))


def hochschild_cohomology(w: Series):
    """(even, odd) dims from the folded Koszul complex of the partials.

    Cross-checked against the Milnor number; a mismatch means the input
    violates the isolatedness hypothesis rather than a tolerance.
    """
    return _checked_koszul_dims(w, jacobian_report(w))


def _checked_koszul_dims(w: Series, report: JacobianReport):
    ctx = w.ctx
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    dims = cohomology_over_R(folded_koszul_complex(partials), partial(_koszul_stop, partials))
    if dims[1] != 0 or dims[0] != report.milnor_number:
        raise VerificationError(
            f"Koszul route gave {dims}, Jacobian quotient gave ({report.milnor_number}, 0)"
        )
    return dims


def _koszul_stop(partials, u_even, u_odd, delta):
    """Last strand of the folded Koszul complex of the partials that can carry
    cohomology, u(e_0) + 2 top, or None when the proof below does not apply.

    It applies when each partial is nonzero and homogeneous and
    `_certified_top_degree` certifies them, with top = sum(deg - 1) (n(D - 2)
    for w homogeneous of degree D). Proof: the partials then form a regular
    sequence, so the Koszul complex is a resolution of Jac(w) and its folding
    has cohomology Jac(w) on the basis vector e_0 of the empty wedge word
    (even index 0). A class m e_0 with m of degree g lies in strand
    u(e_0) + 2g, and Jac(w) is zero above degree top.
    """
    top = _certified_top_degree(partials)
    return None if top is None else u_even[0] + 2 * top


def hochschild_homology(w: Series):
    """Total dimension is the Milnor number, placed in parity n mod 2."""
    report = jacobian_report(w)
    if w.ctx.n_vars % 2:
        return (0, report.milnor_number)
    return (report.milnor_number, 0)


def diagonal_hh_crosscheck(w: Series) -> bool:
    """Two routes: folded Koszul of the partials vs endomorphisms of the
    stabilized diagonal. True iff the dimension pairs agree."""
    route1 = hochschild_cohomology(w)
    diag = stabilized_diagonal(w)
    route2 = hom_cohomology(diag, diag)
    return route1 == route2


def calabi_yau_parity_check(w: Series) -> bool:
    """Dimension shadow of the duality: k-reduced cohomology of the dual
    diagonal matches that of the diagonal shifted by n mod 2."""
    diag = stabilized_diagonal(w)
    lhs = cohomology_mod_k(dual(diag))
    rhs = cohomology_mod_k(shift_power(diag, w.ctx.n_vars % 2))
    return lhs == rhs


def hh_report(w: Series) -> dict:
    """The CLI-facing summary; periodic invariants equal the homology dims
    because everything sits in a single parity."""
    report = jacobian_report(w)
    even, odd = _checked_koszul_dims(w, report)
    return {
        "hh_even": even,
        "hh_odd": odd,
        "milnor": report.milnor_number,
        "tyurina": report.tyurina_number,
        "hh_homology_parity": w.ctx.n_vars % 2,
        "hp": report.milnor_number,
    }

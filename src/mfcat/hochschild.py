"""Hochschild invariants via the folded Koszul complex of the partials.

The Milnor number is the dimension of R/J, J the ideal of the partials,
read off R/(J + m^(N+1)). The first repeated dimension is the answer: the
dimensions never decrease, and equality at N and N + 1 means m^(N+1) lies
in J + m^(N+2), so m^(N+1) lies in J by Nakayama's lemma and every later
level has the same dimension. The rule is the first N >= 1 with
dim_N = dim_(N+1) and N + 1 <= cap (env MFCAT_NMAX); that N is N_J
(`JacobianReport.stabilized_at`). The Tyurina number is the dimension of
R/(J + (w) + m^(N+1)) at that same N, with no rule of its own: m^(N+1)
lies in J, so in J + (w), and every level from N on has dimension
dim R/(J + (w)).

The levels are read in doubling steps, top = 2, 4, 8, ..., the last top
clamped to the cap, each giving both dims for every L <= top from one
`echelon` (`complexes._quotient_levels`): the products of the partials are
its first rows, and those of w follow them. Every generator lies in m, so
with the monomials ordered degree-major the products at level L are those
at level top on the first C(n + L, n) columns, and the rank of that column
prefix (of those rows, or of all of them) is the number of pivots in it.
So each step reads the same dims as ranking every level afresh, the rule
meets the same first N, and a level past a repeat only costs time:
x^8+y^8+z^8 repeats at 18 and is read up to 32.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import _quotient_levels, cohomology_mod_k, cohomology_over_R, stabilization_cap
from .errors import PreconditionError, StabilizationError, VerificationError
from .factorization import MatrixFactorization, dual, shift_power
from .series import Series
from .stabilize import KoszulData, make_koszul_mf, require_potential


@dataclass
class JacobianReport:
    milnor_number: int
    tyurina_number: int
    stabilized_at: int = 0


def jacobian_report(w: Series) -> JacobianReport:
    require_potential(w)
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
    cap = stabilization_cap()
    top = 1
    while top < cap:
        top = min(2 * top, cap)
        milnor, tyurina = _quotient_levels(partials, w, top)
        for n in range(1, top):
            if milnor[n] == milnor[n + 1]:
                return JacobianReport(milnor[n], tyurina[n], n)
    raise StabilizationError("quotient dimension does not stabilize: not isolated (or cap too low)")


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
    """The Koszul dims of `hochschild_cohomology`, checked against `report`.

    Its strand scan ends at the proven stop u_max + n(delta - 2) of
    `complexes._cohomology`. Proof: `report` found m^(N_J+1) in J, so the n
    partials generate an m-primary ideal. If the folded Koszul complex is
    graded, each partial, an entry of d, is homogeneous, so they form a
    regular sequence, the Koszul complex resolves Jac(w), and its folding has
    cohomology Jac(w) on the basis vector e_0 of the empty wedge word. Every
    edge of the basis graph is a contraction S + {i} -> S by d_i w and fixes
    u(S + {i}) - u(S) = 2 deg d_i w - delta, so no cycle forces a step,
    `detect_grading` gives delta = 0, and u_max = u(e_0) + 2 sum deg d_i w.
    A class m e_0 with m of degree g lies in strand u(e_0) + 2g, and Jac(w),
    of Hilbert series prod (1 - t^deg d_i w)/(1 - t)^n, is zero above degree
    sum(deg d_i w - 1). So every class lies at or below
    u(e_0) + 2 sum(deg d_i w - 1) = u_max - 2n = u_max + n(delta - 2).
    """
    ctx = w.ctx
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    dims = cohomology_over_R(folded_koszul_complex(partials), proven=True)
    if dims[1] != 0 or dims[0] != report.milnor_number:
        raise VerificationError(
            f"Koszul route gave {dims}, Jacobian quotient gave ({report.milnor_number}, 0)"
        )
    return dims


def hochschild_homology(w: Series):
    """Total dimension is the Milnor number, placed in parity n mod 2."""
    report = jacobian_report(w)
    if w.ctx.n_vars % 2:
        return (0, report.milnor_number)
    return (report.milnor_number, 0)


def calabi_yau_parity_check(diag: MatrixFactorization) -> bool:
    """Dimension shadow of the duality: k-reduced cohomology of the dual of
    the stabilized diagonal `diag` of w in n variables (a factorization over
    2n) matches that of the diagonal shifted by n mod 2."""
    lhs = cohomology_mod_k(dual(diag))
    rhs = cohomology_mod_k(shift_power(diag, diag.ctx.n_vars // 2 % 2))
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

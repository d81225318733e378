import sys

import pytest

from mfcat import complexes
from mfcat.complexes import _quotient_levels, _truncated_operator_rows, hom_cohomology
from mfcat.corpus import oracle_milnor
from mfcat.errors import PreconditionError, StabilizationError
from mfcat.factorization import RMatrix, verify_mf
from mfcat.fields import QQ, field_from_name
from mfcat.hochschild import (
    calabi_yau_parity_check,
    folded_koszul_complex,
    hh_report,
    hochschild_cohomology,
    hochschild_homology,
    jacobian_report,
)
from mfcat.linalg import echelon, rref_dense
from mfcat.series import RingCtx, monomial_basis
from mfcat.serialize import parse_potential_text
from mfcat.stabilize import stabilized_diagonal


def potential(names, text):
    return parse_potential_text(RingCtx(tuple(names), QQ), text)


def test_milnor_numbers():
    for n in range(2, 8):
        rep = jacobian_report(potential("x", f"x^{n}"))
        assert rep.milnor_number == n - 1
        assert rep.tyurina_number == n - 1
    assert jacobian_report(potential("xyz", "x^2 + y^2 + z^2")).milnor_number == 1
    assert jacobian_report(potential("xy", "x^3 + y^3")).milnor_number == 4
    assert jacobian_report(potential("xy", "x^2*y + y^3")).milnor_number == 4


def test_milnor_oracle_agrees():
    for names, text, mu in (
        ("x", "x^4", 3),
        ("xy", "x^3 + y^3", 4),
        ("xy", "x^2*y + y^3", 4),
        ("xy", "x^2 + y^2", 1),
    ):
        w = potential(names, text)
        assert oracle_milnor(w) == mu == jacobian_report(w).milnor_number


def _dense_quotient_data(ctx, gens, cap):
    """Reference: dim and standard monomials of R/(gens) in R/m^(N+1), N = cap,
    by Gauss-Jordan over dense rows."""
    monos = monomial_basis(ctx, cap)
    field = ctx.field
    index = {(0, m): i for i, m in enumerate(monos)}
    src = [(i, alpha) for i in range(len(gens)) for alpha in monos]
    rows = []
    for vec in _truncated_operator_rows(RMatrix(ctx, [list(gens)]).columns, src, index):
        if vec:
            row = [field.zero] * len(monos)
            for col, c in vec.items():
                row[col] = c
            rows.append(row)
    pivots = set(rref_dense(rows, field)[1])
    standard = [m for i, m in enumerate(monos) if i not in pivots]
    return len(standard), standard


def _dense_stabilized_quotient(ctx, gens):
    """Reference: (dim, standard monomials, level) at the first level whose
    dimension repeats at the next, with the dimension at every level visited."""
    prev, levels = None, []
    for n in range(1, 30):
        dim, standard = _dense_quotient_data(ctx, gens, n)
        levels.append(dim)
        if prev is not None and prev[0] == dim:
            return prev[0], prev[1], n - 1, levels
        prev = (dim, standard)
    raise AssertionError("reference loop did not stabilize")


JACOBIAN_CASES = [
    ("x", "x^2", None),
    ("x", "x^5", None),
    ("xy", "x^2 + y^2", None),
    ("xy", "x^3 + y^3", None),
    ("xy", "x^2*y + y^3", None),
    ("xy", "x^3 + y^4", None),
    ("xy", "x^3 + x*y^3", None),
    ("xy", "x^3 + y^5", None),
    ("xy", "x^2*y + y^4", None),
    # not quasi-homogeneous: W12 with tau = 11, x^5 + y^5 + x^2 y^2 with tau = 10
    ("xy", "x^4 + y^5 + x^2*y^3", None),
    ("xy", "x^5 + y^5 + x^2*y^2", None),
    ("xy", "x^2 + 3*x*y + 2*y^3 - 5*x^2*y^2", None),
    ("xy", "1/2*x^2 + 1/3*y^3", None),
    ("xy", "1/3*x^3 + 1/2*x^2*y + y^4", None),
    ("xy", "x^3 + y^3 + 1/2*x^2*y^2", None),
    ("xyz", "x^3 + y^3 + z^3", None),
    ("xyz", "x^2*y + y^3 + z^2", None),
    ("x", "x^3", "prime:7"),
    ("xy", "x^2*y + y^4", "prime:7"),
    ("xy", "x^4 + y^5 + x^2*y^3", "prime:7"),
    ("xy", "x^3 + y^4", "prime:5"),
    ("xy", "x^2*y + y^3", "prime:5"),
]


@pytest.mark.parametrize("names,text,field", JACOBIAN_CASES)
def test_jacobian_report_matches_dense_reference(names, text, field):
    """mu, tau and the level from one echelon per doubling step equal those
    of the dense reference loops, and mu equals the corpus oracle. One
    `_quotient_levels` call at the highest level the Milnor reference
    visited gives the dense dimension of R/(J + m^(L+1)) and of
    R/(J + (w) + m^(L+1)) at every level L up to it."""
    ctx = RingCtx(tuple(names), field_from_name(field) if field else QQ)
    w = parse_potential_text(ctx, text)
    partials = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    rep = jacobian_report(w)
    mu, standard, at, levels = _dense_stabilized_quotient(ctx, partials)
    tau, _, _, _ = _dense_stabilized_quotient(ctx, partials + [w])
    assert (rep.milnor_number, rep.tyurina_number, rep.stabilized_at) == (mu, tau, at)
    assert len(standard) == mu == oracle_milnor(w)
    milnor, tyurina = _quotient_levels(partials, w, len(levels))
    for n, dim in enumerate(levels, start=1):
        assert milnor[n] == dim, n
        assert tyurina[n] == _dense_quotient_data(ctx, partials + [w], n)[0], n


@pytest.mark.parametrize("names,text,field", JACOBIAN_CASES)
def test_jacobian_report_runs_one_echelon_per_doubling_step(monkeypatch, names, text, field):
    """mu, tau and N_J come from one `echelon` per doubling step
    top = 2, 4, 8, ..., and the steps end at the first top >= N_J + 1."""
    calls = []

    def counted(rows, field):
        calls.append(None)
        return echelon(rows, field)

    monkeypatch.setattr(complexes, "echelon", counted)
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    ctx = RingCtx(tuple(names), field_from_name(field) if field else QQ)
    rep = jacobian_report(parse_potential_text(ctx, text))
    assert len(calls) == rep.stabilized_at.bit_length()


@pytest.mark.parametrize(
    "names,text,cap",
    [
        ("xy", "x^2*y + y^3", 3),
        ("xy", "x^3 + x*y^3", 5),
        # W12: its Milnor level 5 needs one more than its Tyurina level 4
        ("xy", "x^4 + y^5 + x^2*y^3", 6),
        ("x", "x^7", 6),
        ("xy", "x^2 + y^30", 29),
    ],
)
def test_jacobian_report_smallest_cap(monkeypatch, names, text, cap):
    """The report answers at MFCAT_NMAX = cap and not at cap - 1: the first
    repeat N, N + 1 counts only when N + 1 <= cap, whatever levels the
    doubling reads (none of these caps is a power of two). Each Milnor
    level N is cap - 1."""
    w = potential(names, text)
    monkeypatch.setenv("MFCAT_NMAX", str(cap))
    assert jacobian_report(w).stabilized_at == cap - 1
    monkeypatch.setenv("MFCAT_NMAX", str(cap - 1))
    with pytest.raises(StabilizationError):
        jacobian_report(w)


def test_d4_standard_monomials():
    """The D4 standard set of the dense reference is {1, x, y, y^2}, one
    monomial per unit of the Milnor number."""
    w = potential("xy", "x^2*y + y^3")
    partials = [w.partial_derivative(i) for i in range(2)]
    mu, standard, _, _ = _dense_stabilized_quotient(w.ctx, partials)
    assert set(standard) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert len(standard) == mu == jacobian_report(w).milnor_number


def test_thom_sebastiani_shadow():
    mu_x3 = jacobian_report(potential("x", "x^3")).milnor_number
    mu_sum = jacobian_report(potential("xy", "x^3 + y^3")).milnor_number
    assert mu_sum == mu_x3 * mu_x3


def test_milnor_bounds_invariant():
    for names, text in (("x", "x^5"), ("xy", "x^2*y + y^3")):
        rep = jacobian_report(potential(names, text))
        assert rep.milnor_number >= rep.tyurina_number >= 1


def test_non_isolated_detected(monkeypatch):
    monkeypatch.delenv("MFCAT_NMAX", raising=False)
    w = potential("xy", "x^2*y")  # singular along a line
    with pytest.raises(StabilizationError):
        jacobian_report(w)


def test_hochschild_cohomology_examples():
    assert hochschild_cohomology(potential("x", "x^3")) == (2, 0)
    assert hochschild_cohomology(potential("xy", "x^2 + y^2")) == (1, 0)
    assert hochschild_cohomology(potential("xyz", "x^3 + y^3 + z^3")) == (8, 0)


def test_hochschild_homology_parity():
    assert hochschild_homology(potential("x", "x^3")) == (0, 2)
    assert hochschild_homology(potential("xy", "x^2 + y^2")) == (1, 0)
    assert hochschild_homology(potential("xyz", "x^2 + y^2 + z^2")) == (0, 1)


def end_of_diagonal(w):
    diag = stabilized_diagonal(w)
    return hom_cohomology(diag, diag)


def test_diagonal_crosscheck():
    # two routes to HH*: the folded Koszul complex of the partials and End(Delta)
    for w in (potential("x", "x^2"), potential("x", "x^3"), potential("xy", "x^2 + y^2")):
        assert hochschild_cohomology(w) == end_of_diagonal(w)


def test_calabi_yau_parity():
    assert calabi_yau_parity_check(stabilized_diagonal(potential("x", "x^2")))
    assert calabi_yau_parity_check(stabilized_diagonal(potential("x", "x^3")))
    assert calabi_yau_parity_check(stabilized_diagonal(potential("xy", "x^2 + y^2")))


def test_report_shape():
    rep = hh_report(potential("x", "x^3"))
    assert rep == {
        "hh_even": 2,
        "hh_odd": 0,
        "milnor": 2,
        "tyurina": 2,
        "hh_homology_parity": 1,
        "hp": 2,
    }


@pytest.mark.parametrize("text, mu", [("x^2*y + y^3", 4), ("x^3 + y^4", 6), ("x^3 + y^5", 8)],
                         ids=["D4", "E6", "E8"])
def test_hh_certifies_isolatedness_once(text, mu):
    # jacobian_report's repeat proves m^(N_J+1) in J, so the Koszul scan runs
    # no certificate of its own; the profile hook sees a call of the function
    # under any name a module binds it to
    code = complexes._certified_top_degree.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        rep = hh_report(potential("xy", text))
    finally:
        sys.setprofile(None)
    assert rep["hh_even"] == rep["milnor"] == mu and not calls


def test_folded_koszul_is_complex():
    w = potential("xy", "x^3 + y^3")
    C = folded_koszul_complex([w.partial_derivative(0), w.partial_derivative(1)])
    assert verify_mf(C)
    assert C.rank == 2


def test_precondition_rejects_linear():
    with pytest.raises(PreconditionError):
        jacobian_report(potential("x", "x"))


def test_prime_field_end_to_end():
    from mfcat.fields import PrimeField
    from mfcat.stabilize import stabilize_residue_field
    from mfcat.factorization import verify_mf

    ctx = RingCtx(("x",), PrimeField(7))
    w = parse_potential_text(ctx, "x^3")
    assert verify_mf(stabilize_residue_field(w))
    rep = jacobian_report(w)
    assert (rep.milnor_number, rep.tyurina_number) == (2, 2)
    assert hochschild_cohomology(w) == (2, 0)
    assert end_of_diagonal(w) == (2, 0)

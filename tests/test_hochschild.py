import pytest

from mfcat.corpus import oracle_milnor
from mfcat.errors import PreconditionError, StabilizationError
from mfcat.factorization import verify_mf
from mfcat.fields import QQ
from mfcat.hochschild import (
    calabi_yau_parity_check,
    diagonal_hh_crosscheck,
    folded_koszul_complex,
    hh_report,
    hochschild_cohomology,
    hochschild_homology,
    jacobian_report,
)
from mfcat.series import RingCtx
from mfcat.serialize import parse_potential_text


def potential(names, text):
    return parse_potential_text(RingCtx(tuple(names), QQ), text)


def test_milnor_numbers():
    for n in range(2, 8):
        rep = jacobian_report(potential("x", f"x^{n}"))
        assert rep.milnor_number == n - 1
        assert rep.tyurina_number == n - 1
        assert len(rep.monomial_basis) == n - 1
    assert jacobian_report(potential("xyz", "x^2 + y^2 + z^2")).milnor_number == 1
    assert jacobian_report(potential("xy", "x^3 + y^3")).milnor_number == 4
    rep = jacobian_report(potential("xy", "x^2*y + y^3"))
    assert rep.milnor_number == 4
    assert set(rep.monomial_basis) == {(0, 0), (1, 0), (0, 1), (0, 2)}


def test_milnor_oracle_agrees():
    for names, text, mu in (
        ("x", "x^4", 3),
        ("xy", "x^3 + y^3", 4),
        ("xy", "x^2*y + y^3", 4),
        ("xy", "x^2 + y^2", 1),
    ):
        w = potential(names, text)
        assert oracle_milnor(w) == mu == jacobian_report(w).milnor_number


def test_thom_sebastiani_shadow():
    mu_x3 = jacobian_report(potential("x", "x^3")).milnor_number
    mu_sum = jacobian_report(potential("xy", "x^3 + y^3")).milnor_number
    assert mu_sum == mu_x3 * mu_x3


def test_milnor_bounds_invariant():
    for names, text in (("x", "x^5"), ("xy", "x^2*y + y^3")):
        rep = jacobian_report(potential(names, text))
        assert rep.milnor_number >= rep.tyurina_number >= 1


def test_non_isolated_detected(monkeypatch):
    monkeypatch.setenv("MFCAT_NMAX", "12")
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


def test_diagonal_crosscheck():
    assert diagonal_hh_crosscheck(potential("x", "x^2"))
    assert diagonal_hh_crosscheck(potential("x", "x^3"))
    assert diagonal_hh_crosscheck(potential("xy", "x^2 + y^2"))


def test_calabi_yau_parity():
    assert calabi_yau_parity_check(potential("x", "x^2"))
    assert calabi_yau_parity_check(potential("x", "x^3"))
    assert calabi_yau_parity_check(potential("xy", "x^2 + y^2"))


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
    assert diagonal_hh_crosscheck(w)

import pytest

from mfcat.complexes import cohomology_mod_k
from mfcat.errors import PreconditionError
from mfcat.factorization import shift, trivial_mf, verify_mf
from mfcat.fields import QQ
from mfcat.series import RingCtx, Series
from mfcat.serialize import parse_potential_text
from mfcat.stabilize import stabilize_residue_field, stabilized_diagonal
from mfcat.transform import integral_transform, kernel_action_complex, transform_mod_k_dims


def setup(names, text):
    ctx = RingCtx(tuple(names), QQ)
    w = parse_potential_text(ctx, text)
    return w, stabilize_residue_field(w), stabilized_diagonal(w)


def test_action_complex_is_complex():
    w, X, T = setup("x", "x^3")
    C = kernel_action_complex(X, T)
    assert verify_mf(C)


def test_diagonal_acts_as_identity_on_dims():
    for names, text in (("x", "x^2"), ("x", "x^3"), ("xy", "x^2 + y^2")):
        w, X, T = setup(names, text)
        assert transform_mod_k_dims(X, T) == cohomology_mod_k(X)


def test_shifted_kernel_shifts():
    w, X, T = setup("x", "x^3")
    dims = transform_mod_k_dims(X, shift(T))
    expected = cohomology_mod_k(shift(X))
    assert dims == expected


def test_trivial_source_is_quasi_trivial():
    w, X, T = setup("x", "x^3")
    assert transform_mod_k_dims(trivial_mf(X.ctx, w), T) == (0, 0)


def test_truncated_representative_verifies():
    w, X, T = setup("x", "x^3")
    for cap in (0, 2, 5):
        res = integral_transform(X, T, truncation=cap)
        assert verify_mf(res.factorization)
        assert res.up_to_quasi_isomorphism
        assert res.factorization.potential == Series.variable(res.factorization.ctx, 0) ** 3
    # default truncation
    res = integral_transform(X, T)
    assert res.truncation == 2 * w.total_degree()
    assert verify_mf(res.factorization)


def test_kernel_context_validation():
    w, X, T = setup("x", "x^3")
    w2, X2, T2 = setup("xy", "x^2 + y^2")
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X2, T)  # kernel does not extend the source ring
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X2, T2 if False else X2)  # not even a doubled ring


def test_kernel_potential_validation():
    w, X, T = setup("x", "x^3")
    w4, X4, T4 = setup("x", "x^4")
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X4, T)  # -x^4 + x'^4 expected, got the cubic kernel

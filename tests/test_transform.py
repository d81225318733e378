import pytest

from mfcat.complexes import cohomology_mod_k, cohomology_over_R, hom_complex
from mfcat.errors import PreconditionError
from mfcat.factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    _columns,
    _tensor_columns,
    cone,
    direct_sum,
    dual,
    shift,
    trivial_mf,
    verify_mf,
)
from mfcat.fields import QQ
from mfcat.series import RingCtx, Series
from mfcat.serialize import parse_potential_text, parse_ring_spec
from mfcat.stabilize import stabilize_residue_field, stabilized_diagonal
from mfcat.transform import _kernel_at_zero, transform_mod_k_dims


def setup(names, text):
    ctx = RingCtx(tuple(names), QQ)
    w = parse_potential_text(ctx, text)
    return w, stabilize_residue_field(w), stabilized_diagonal(w)


def test_action_complex_is_complex():
    w, X, T = setup("x", "x^3")
    t0 = _kernel_at_zero(X, T)
    assert t0.potential == -w and verify_mf(t0)
    assert verify_mf(hom_complex(dual(t0), X))


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


def _action_complex_dims(x, t):
    """The reference for the Hom route: the k-reduced transform X (x) T0 built
    directly, as a factorization of 0 in the tensor basis order, with its
    cohomology over R."""
    t0 = _kernel_at_zero(x, t)
    columns = _tensor_columns(_columns(x), _columns(t0), x.rank, t0.rank, x.ctx.field)
    psi, phi = (RMatrix.from_columns(x.ctx, len(cols), cols) for cols in columns)
    return cohomology_over_R(MatrixFactorization(x.ctx, Series.zero(x.ctx), phi, psi))


@pytest.mark.parametrize(
    "ring, text, every_object",
    [
        ("x", "x^3", True),
        ("x;prime(2)", "x^3", True),
        ("x", "x^2 + x^3", True),
        ("x,y", "x^2 + y^2", True),
        ("x,y;prime(3)", "x^2 + y^2", True),
        ("x,y;prime(7)", "x^2*y + y^3", True),
        # ungraded in two variables: the rank-3 and rank-4 objects take the
        # two-cap route at about 0.5 s a pair, so only K and K[1] run
        ("x,y", "x^3 + x*y^3", False),
    ],
)
def test_transform_dims_match_the_kernel_action_complex(ring, text, every_object):
    ctx = parse_ring_spec(ring)
    w = parse_potential_text(ctx, text)
    k, diagonal = stabilize_residue_field(w), stabilized_diagonal(w)
    x0 = Series.variable(ctx, 0)
    objects = [trivial_mf(ctx, w), k, shift(k)]
    if every_object:
        objects += [direct_sum(k, trivial_mf(ctx, w)), cone(MFMorphism.scalar(k, x0))]
        if len(w.terms) == 1 and ctx.n_vars == 1:
            d = w.total_degree()
            for i in range(1, d):
                phi, psi = RMatrix(ctx, [[x0 ** i]]), RMatrix(ctx, [[x0 ** (d - i)]])
                objects.append(MatrixFactorization(ctx, w, phi, psi))
    for x in objects:
        assert transform_mod_k_dims(x, diagonal) == cohomology_mod_k(x)
        for t in (diagonal, shift(diagonal), direct_sum(diagonal, diagonal)):
            assert transform_mod_k_dims(x, t) == _action_complex_dims(x, t)


def test_kernel_context_validation():
    w, X, T = setup("x", "x^3")
    w2, X2, T2 = setup("xy", "x^2 + y^2")
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X2, T)  # kernel does not extend the source ring
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X2, X2)  # not even a doubled ring


def test_kernel_potential_validation():
    w, X, T = setup("x", "x^3")
    w4, X4, T4 = setup("x", "x^4")
    with pytest.raises(PreconditionError):
        transform_mod_k_dims(X4, T)  # -x^4 + x'^4 expected, got the cubic kernel
    # the trivial kernel (1, -x^3 + x'^3 + 1): w'(0) = 1, so X (x) T0 would have d^2 = id
    ctx = T.ctx
    v = Series.variable(ctx, 1) ** 3 - Series.variable(ctx, 0) ** 3 + Series.one(ctx)
    with pytest.raises(PreconditionError, match="constant term 1"):
        transform_mod_k_dims(X, trivial_mf(ctx, v))

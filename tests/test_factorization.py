import random

import pytest

from mfcat.complexes import cohomology_mod_k
from mfcat.corpus import elliptic_factorization
from mfcat.errors import PreconditionError, VerificationError
from mfcat.factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    cone,
    direct_sum,
    dual,
    external_tensor,
    parity_conjugate,
    shift,
    trivial_mf,
    verify_mf,
    verify_mf_report,
)
from mfcat.fields import QQ
from mfcat.series import RingCtx, Series
from mfcat.stabilize import stabilize_residue_field


def ring1():
    return RingCtx(("x",), QQ)


def node(ctx, w, a, b):
    return MatrixFactorization(ctx, w, RMatrix(ctx, [[a]]), RMatrix(ctx, [[b]]))


def cusp_node():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    return node(ctx, x ** 3, x, x ** 2)


def test_verify_examples():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    assert verify_mf(trivial_mf(ctx, x ** 3))
    bad = node(ctx, x ** 3, x, x)
    assert not verify_mf(bad)
    ok, offending = verify_mf_report(bad)
    assert not ok and offending == ("phi*psi", 0, 0)


def test_elliptic_example():
    mf = elliptic_factorization()
    assert mf.phi.det() == mf.potential
    assert verify_mf(mf)
    assert verify_mf(dual(mf))


def test_shift():
    X = cusp_node()
    s = shift(X)
    x = Series.variable(X.ctx, 0)
    assert s.phi == RMatrix(X.ctx, [[-(x ** 2)]])
    assert s.psi == RMatrix(X.ctx, [[-x]])
    assert verify_mf(s)
    assert shift(s) == X
    t = shift(trivial_mf(X.ctx, X.potential))
    assert verify_mf(t)


def test_dual():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    w = x ** 3
    t = dual(trivial_mf(ctx, w))
    assert t.potential == -w and verify_mf(t)
    d = dual(cusp_node())
    assert d.potential == -w and verify_mf(d) and d.rank == 1
    E = elliptic_factorization()
    assert dual(dual(E)) == parity_conjugate(E)
    assert dual(dual(cusp_node())) == parity_conjugate(cusp_node())


def test_direct_sum():
    X = cusp_node()
    ctx = X.ctx
    x = Series.variable(ctx, 0)
    other = node(ctx, x ** 3, x ** 2, x)
    s = direct_sum(X, other)
    assert s.rank == 2 and verify_mf(s)
    doubled = direct_sum(X, X)
    dims = cohomology_mod_k(doubled)
    single = cohomology_mod_k(X)
    assert dims == (2 * single[0], 2 * single[1])
    with pytest.raises(PreconditionError):
        direct_sum(X, trivial_mf(ctx, x ** 2))


def test_cone():
    X = cusp_node()
    c_id = cone(MFMorphism.identity(X))
    assert verify_mf(c_id)
    assert cohomology_mod_k(c_id) == (0, 0)
    c0 = cone(MFMorphism.zero(X, X))
    assert c0 == direct_sum(shift(X), X)
    cx = cone(MFMorphism.scalar(X, Series.variable(X.ctx, 0)))
    assert cx.rank == 2 and verify_mf(cx)
    not_closed = MFMorphism(X, X, "even", RMatrix(X.ctx, [[Series.one(X.ctx)]]),
                            RMatrix(X.ctx, [[Series.zero(X.ctx)]]))
    with pytest.raises(VerificationError):
        cone(not_closed)


def test_external_tensor():
    cx = RingCtx(("x",), QQ)
    cy = RingCtx(("y",), QQ)
    X = stabilize_residue_field(Series.variable(cx, 0) ** 2)
    Y = stabilize_residue_field(Series.variable(cy, 0) ** 2)
    T = external_tensor(X, Y)
    assert T.rank == X.rank * Y.rank * 2  # rank multiplies on the full module
    assert verify_mf(T)
    both = Series.variable(T.ctx, 0) ** 2 + Series.variable(T.ctx, 1) ** 2
    assert T.potential == both
    # tensoring with a contractible factor stays contractible mod k
    K = stabilize_residue_field(Series.variable(cx, 0) ** 3)
    triv = trivial_mf(cy, Series.variable(cy, 0) ** 2)
    quasi_trivial = external_tensor(K, triv)
    assert verify_mf(quasi_trivial)
    assert cohomology_mod_k(quasi_trivial) == (0, 0)


def test_tensor_rank_multiplies_random():
    rng = random.Random(13)
    cx = RingCtx(("x",), QQ)
    cy = RingCtx(("y",), QQ)
    x = Series.variable(cx, 0)
    y = Series.variable(cy, 0)
    for _ in range(5):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        X = node_like(cx, x, a)
        Y = node_like(cy, y, b)
        T = external_tensor(X, Y)
        assert T.rank == 2 * X.rank * Y.rank
        assert verify_mf(T)


def node_like(ctx, x, k):
    return MatrixFactorization(
        ctx, x ** (k + 1), RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** k]])
    )


def test_morphism_closedness():
    X = cusp_node()
    assert MFMorphism.identity(X).is_closed()
    f = MFMorphism.scalar(X, Series.variable(X.ctx, 0))
    assert f.is_closed()
    with pytest.raises(VerificationError):
        MFMorphism(X, X, "even", RMatrix(X.ctx, [[Series.one(X.ctx)]]),
                   RMatrix(X.ctx, [[Series.zero(X.ctx)]]), check_closed=True)


import random

import pytest

from mfcat.complexes import cohomology_mod_k
from mfcat.corpus import elliptic_factorization
from mfcat.errors import PreconditionError, VerificationError
from mfcat.factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    _tensor_columns,
    cone,
    direct_sum,
    dual,
    external_tensor,
    shift,
    trivial_mf,
    verify_mf,
    verify_mf_report,
)
from mfcat.fields import QQ, field_from_name
from mfcat.series import RingCtx, Series, monomial_basis
from mfcat.serialize import parse_potential_text
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
    # dual(dual(X)) is X conjugated by the involution that negates the odd summand
    for X in (elliptic_factorization(), cusp_node()):
        assert dual(dual(X)) == MatrixFactorization(X.ctx, X.potential, -X.phi, -X.psi)


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



# -- the tensor placement against Kronecker products ----------------------------


def _kronecker_tensor(xphi, xpsi, yphi, ypsi, ctx, rx, ry):
    """Reference for `_tensor_columns`: the tensor differential as Kronecker
    products of the blocks with identities, joined as 2 x 2 block matrices,
    in the frozen basis order (pair (i, j) at i * ry + j)."""
    z = Series.zero(ctx)

    def kron_eye(m, n, m_first, sign=1):
        # m (x) I_n if m_first, else I_n (x) m; each entry of m copied or negated
        out = [[z] * (m.cols * n) for _ in range(m.rows * n)]
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if e.is_zero():
                    continue
                if sign < 0:
                    e = -e
                for k in range(n):
                    if m_first:
                        out[i * n + k][j * n + k] = e
                    else:
                        out[k * m.rows + i][k * m.cols + j] = e
        return RMatrix(ctx, out)

    def block(tl, tr, bl, br):
        top = [r1 + r2 for r1, r2 in zip(tl.entries, tr.entries)]
        bot = [r1 + r2 for r1, r2 in zip(bl.entries, br.entries)]
        return RMatrix(ctx, top + bot)

    phi_xy = block(
        kron_eye(xphi, ry, True),
        kron_eye(yphi, rx, False),
        kron_eye(ypsi, rx, False, sign=-1),
        kron_eye(xpsi, ry, True),
    )
    psi_xy = block(
        kron_eye(xpsi, ry, True),
        kron_eye(yphi, rx, False, sign=-1),
        kron_eye(ypsi, rx, False),
        kron_eye(xphi, ry, True),
    )
    return phi_xy, psi_xy


def _placed(ctx, x, y, rx, ry):
    """(phi, psi) of the tensor from `_tensor_columns`, x and y given as
    (phi, psi) pairs of `RMatrix`es, and its column terms."""
    as_columns = lambda pair: (pair[1].columns, pair[0].columns)
    columns = _tensor_columns(as_columns(x), as_columns(y), rx, ry, ctx.field)
    psi, phi = (RMatrix.from_columns(ctx, len(cols), cols) for cols in columns)
    return phi, psi, columns


def _random_matrix(rng, ctx, rows, cols):
    monos = monomial_basis(ctx, 2)

    def entry():
        picked = rng.sample(monos, rng.randint(0, 3))
        return Series(ctx, {m: ctx.field.of(rng.choice([-2, -1, 1, 3])) for m in picked})

    return RMatrix(ctx, [[entry() for _ in range(cols)] for _ in range(rows)])


def _random_square(rng, ctx, r):
    return _random_matrix(rng, ctx, r, r)


@pytest.mark.parametrize("field_name", ["rational", "prime:7"])
def test_tensor_columns_match_kronecker_products(field_name):
    rng = random.Random(41)
    ctx = RingCtx(("x", "y"), field_from_name(field_name))
    pairs = [(rx, ry) for rx in range(1, 5) for ry in range(1, 5) if rx != ry]
    for rx, ry in pairs:
        x = (_random_square(rng, ctx, rx), _random_square(rng, ctx, rx))
        y = (_random_square(rng, ctx, ry), _random_square(rng, ctx, ry))
        phi, psi, columns = _placed(ctx, x, y, rx, ry)
        ref_phi, ref_psi = _kronecker_tensor(*x, *y, ctx, rx, ry)
        assert (phi, psi) == (ref_phi, ref_psi), (rx, ry)
        # the placed terms are exactly the reference's, one per (row, monomial)
        for cols, ref in zip(columns, (ref_psi, ref_phi)):
            assert [sorted(c) for c in cols] == [sorted(c) for c in ref.columns]


@pytest.mark.parametrize("field_name", ["rational", "prime:7"])
def test_tensor_columns_with_an_empty_side(field_name):
    # the null-homotopy's shape: the second factor has no terms at all
    rng = random.Random(43)
    ctx = RingCtx(("x", "y"), field_from_name(field_name))
    for rx, ry in ((1, 3), (2, 1), (3, 4), (4, 2)):
        x = (_random_square(rng, ctx, rx), _random_square(rng, ctx, rx))
        zero = RMatrix.zero(ctx, ry, ry)
        phi, psi, _ = _placed(ctx, x, (zero, zero), rx, ry)
        assert (phi, psi) == _kronecker_tensor(*x, zero, zero, ctx, rx, ry)


def test_external_tensor_matches_kronecker_products():
    for field in (QQ, field_from_name("prime:7")):
        cx, cy = RingCtx(("x", "y"), field), RingCtx(("z",), field)
        k = stabilize_residue_field(parse_potential_text(cx, "x^2*y + y^3"))
        objects_x = [k, direct_sum(k, trivial_mf(cx, k.potential))]
        objects_y = [stabilize_residue_field(parse_potential_text(cy, "z^3")),
                     trivial_mf(cy, parse_potential_text(cy, "z^4"))]
        for x in objects_x:
            for y in objects_y:
                t = external_tensor(x, y)
                lift_x = lambda s: s.relabel(t.ctx, (0, 1))
                lift_y = lambda s: s.relabel(t.ctx, (2,))
                lifted = [m.map_entries(lift, t.ctx) for m, lift in
                          ((x.phi, lift_x), (x.psi, lift_x), (y.phi, lift_y), (y.psi, lift_y))]
                assert (t.phi, t.psi) == _kronecker_tensor(*lifted, t.ctx, x.rank, y.rank)
                assert t.potential == lift_x(x.potential) + lift_y(y.potential)


# -- the column-term arithmetic against dense Series grids ---------------------


def _dense_product(a, b):
    """Reference for `RMatrix.__mul__`: the dense triple loop over the
    `Series` entries, skipping zero factors."""
    z = Series.zero(a.ctx)
    ea, eb = a.entries, b.entries
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = z
            for k in range(a.cols):
                if not (ea[i][k].is_zero() or eb[k][j].is_zero()):
                    acc = acc + ea[i][k] * eb[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _well_formed(m):
    """Every (row, exp) at most once per column, every coefficient nonzero."""
    field = m.ctx.field
    for col in m.columns:
        assert len({(j, exp) for j, exp, _ in col}) == len(col)
        assert all(0 <= j < m.rows and c != field.zero for j, _, c in col)
    return m


def _grid(rows):
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("field_name", ["rational", "prime:7"])
def test_column_term_arithmetic_matches_dense_grids(field_name):
    rng = random.Random(47)
    ctx = RingCtx(("x", "y"), field_from_name(field_name))
    monos = monomial_basis(ctx, 2)
    for _ in range(40):
        r, k, c = (rng.randint(1, 4) for _ in range(3))
        a, a2 = _random_matrix(rng, ctx, r, k), _random_matrix(rng, ctx, r, k)
        b = _random_matrix(rng, ctx, k, c)
        s = Series(ctx, {m: ctx.field.of(rng.choice([-1, 2])) for m in rng.sample(monos, rng.randint(0, 2))})
        ea, ea2 = a.entries, a2.entries
        assert _well_formed(a + a2).entries == _grid(
            [p + q for p, q in zip(r1, r2)] for r1, r2 in zip(ea, ea2)
        )
        assert _well_formed(a - a2).entries == _grid(
            [p - q for p, q in zip(r1, r2)] for r1, r2 in zip(ea, ea2)
        )
        assert _well_formed(a * b).entries == _dense_product(a, b)
        assert _well_formed(a * s).entries == _grid([e * s for e in row] for row in ea)
        assert _well_formed(-a).entries == _grid([-e for e in row] for row in ea)
        assert _well_formed(a.transpose()).entries == _grid(zip(*ea))
        assert (a + (-a)).is_zero() and (a * RMatrix.zero(ctx, k, c)).is_zero()
        # equality is per column as sets of terms, whatever their order
        shuffled = RMatrix.from_columns(ctx, r, [rng.sample(col, len(col)) for col in a.columns])
        assert shuffled == a and shuffled.entries == ea
        assert (a == a2) == (ea == ea2)
        assert a != RMatrix.zero(ctx, r + 1, k)
        if r != k:
            assert a.transpose() != a


def test_column_term_shape_checks():
    ctx = ring1()
    a, b = RMatrix.zero(ctx, 2, 3), RMatrix.zero(ctx, 2, 2)
    with pytest.raises(PreconditionError):
        a + b
    with pytest.raises(PreconditionError):
        a * b
    with pytest.raises(PreconditionError):
        RMatrix(ctx, [[Series.one(ctx)], []])
    assert RMatrix.zero(ctx, 2, 0) != RMatrix.zero(ctx, 3, 0)


@pytest.mark.parametrize("field_name", ["rational", "prime:7"])
def test_verify_report_names_the_dense_row_major_first(field_name):
    rng = random.Random(53)
    ctx = RingCtx(("x", "y", "z"), field_from_name(field_name))
    k = stabilize_residue_field(parse_potential_text(ctx, "x^3 + y^3 + z^3 + x*y*z"))
    seen = set()
    for _ in range(30):
        phi, psi = k.phi.entries, k.psi.entries
        grids = [list(map(list, phi)), list(map(list, psi))]
        for _ in range(rng.randint(1, 2)):
            grid = rng.choice(grids)
            i, j = rng.randrange(k.rank), rng.randrange(k.rank)
            grid[i][j] = _random_matrix(rng, ctx, 1, 1).entries[0][0]
        mf = MatrixFactorization(ctx, k.potential, *(RMatrix(ctx, g) for g in grids))
        w_id = RMatrix.scalar(ctx, k.rank, k.potential).entries
        expected = (True, None)
        for label, x, y in (("phi*psi", mf.phi, mf.psi), ("psi*phi", mf.psi, mf.phi)):
            prod = _dense_product(x, y)
            wrong = [(i, j) for i in range(k.rank) for j in range(k.rank) if prod[i][j] != w_id[i][j]]
            if wrong:
                expected = (False, (label, *wrong[0]))
                break
        assert verify_mf_report(mf) == expected
        seen.add(expected)
    assert len(seen) > 5, seen
    assert verify_mf_report(k) == (True, None)
    # over w = 0 phi psi can vanish while psi phi does not
    one, z = Series.one(ctx), Series.zero(ctx)
    phi, psi = RMatrix(ctx, [[one, z], [z, z]]), RMatrix(ctx, [[z, z], [one, z]])
    assert verify_mf_report(MatrixFactorization(ctx, z, phi, psi)) == (False, ("psi*phi", 1, 0))

import random
from fractions import Fraction
import pytest

from mfcat.complexes import (
    _certified_top_degree,
    _hom_grading,
    _level_profile,
    _serre_applies,
    _strand_dims,
    _truncated_operator_rows,
    cohomology_mod_k,
    cohomology_over_R,
    detect_grading,
    hom_cohomology,
    hom_complex,
    is_quasi_iso,
    scalar_action_nullhomotopy,
    stabilization_cap,
    _two_cap_cohomology,
    _two_cap_dims,
)
from mfcat.errors import PreconditionError, VerificationError
from mfcat.factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    _columns,
    cone,
    direct_sum,
    shift,
    trivial_mf,
    verify_mf,
)
from mfcat.fields import QQ, field_from_name
from mfcat.hochschild import folded_koszul_complex, hochschild_cohomology
from mfcat.linalg import rank_dense
from mfcat.series import RingCtx, Series, monomial_basis, monomials_of_degree
from mfcat.serialize import parse_potential_text
from mfcat.stabilize import stabilize_residue_field, stabilized_diagonal


def ring1():
    return RingCtx(("x",), QQ)


def cusp_node():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    return MatrixFactorization(ctx, x ** 3, RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** 2]]))


def test_hom_complex_squares_to_zero():
    X = cusp_node()
    H = hom_complex(X, X)
    assert H.rank == 2
    assert verify_mf(H)
    K = stabilize_residue_field(parse_potential_text(RingCtx(("x", "y"), QQ), "x^2 + y^2"))
    assert verify_mf(hom_complex(K, K))


def test_hom_complex_random_pairs():
    rng = random.Random(41)
    ctx = ring1()
    x = Series.variable(ctx, 0)
    for _ in range(10):
        k = rng.randint(1, 4)
        w = x ** (k + 1) * x ** 0
        a = MatrixFactorization(ctx, x ** (k + 1), RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** k]]))
        b = MatrixFactorization(ctx, x ** (k + 1), RMatrix(ctx, [[x ** k]]), RMatrix(ctx, [[x]]))
        assert verify_mf(hom_complex(a, b))
        assert verify_mf(hom_complex(b, a))


def test_cohomology_mod_k_examples():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    assert cohomology_mod_k(trivial_mf(ctx, x ** 3)) == (0, 0)
    K = stabilize_residue_field(x ** 3)
    assert cohomology_mod_k(K) == (1, 1)
    doubled = direct_sum(K, K)
    assert cohomology_mod_k(doubled) == (2, 2)
    assert cohomology_mod_k(hom_complex(trivial_mf(ctx, x ** 3), trivial_mf(ctx, x ** 3))) == (
        0,
        0,
    )


def test_cohomology_mod_k_rejects_a_reduction_that_is_not_a_complex():
    ctx = ring1()
    zero, one, x = Series.zero(ctx), Series.one(ctx), Series.variable(ctx, 0)
    # d^2 = w holds, but w = 1 + x is not in m, so d^2 = 1 mod m
    unit = MatrixFactorization(ctx, one + x, RMatrix(ctx, [[one]]), RMatrix(ctx, [[one + x]]))
    assert verify_mf(unit)
    # not a factorization of x^2 at all: d^2 = 1
    unverified = MatrixFactorization(ctx, x ** 2, RMatrix(ctx, [[one]]), RMatrix(ctx, [[one]]))
    # phi psi = 0 but psi phi != 0, and the other way round: both composites are checked
    nil, idem = RMatrix(ctx, [[zero, one], [zero, zero]]), RMatrix(ctx, [[one, zero], [zero, zero]])
    one_sided = [MatrixFactorization(ctx, zero, a, b) for a, b in ((nil, idem), (idem, nil))]
    assert [m.phi * m.psi == RMatrix.zero(ctx, 2, 2) for m in one_sided] == [True, False]
    for mf in [unit, unverified] + one_sided:
        with pytest.raises(VerificationError, match="reduction is not a complex"):
            cohomology_mod_k(mf)


def test_cohomology_over_R_koszul_of_partial():
    ctx = ring1()
    w = parse_potential_text(ctx, "x^3")
    C = folded_koszul_complex([w.partial_derivative(0)])
    assert cohomology_over_R(C) == (2, 0)


def test_cohomology_over_R_clifford_dims():
    ctx = ring1()
    K = stabilize_residue_field(parse_potential_text(ctx, "x^2"))
    assert cohomology_over_R(hom_complex(K, K)) == (1, 1)


def test_cohomology_over_R_unit_entry_contractible():
    ctx = ring1()
    one = Series.one(ctx)
    C = folded_koszul_complex([one])  # d has a unit entry: contractible
    assert cohomology_over_R(C) == (0, 0)


def test_two_cap_agrees_with_strands():
    # cross-validate the two engines on a gradable input
    ctx = ring1()
    w = parse_potential_text(ctx, "x^4")
    C = folded_koszul_complex([w.partial_derivative(0)])
    assert detect_grading(C) is not None
    assert cohomology_over_R(C) == (3, 0)
    assert _two_cap_cohomology(C.ctx, _columns(C), 64) == (3, 0)


def test_two_cap_non_homogeneous():
    ctx = ring1()
    w = parse_potential_text(ctx, "x^2 + x^3")
    C = folded_koszul_complex([w.partial_derivative(0)])
    assert detect_grading(C) is None
    assert cohomology_over_R(C) == (1, 0)


def test_detect_grading_values():
    # pinned values: equal weights on the quadric's End(K); the shifts of
    # End(Delta) of D4 on the doubled ring; an entry 2x + 3x^2 mixes degrees
    C = _end_k_of("x,y,z", "x^2 + y^2 + z^2")
    assert detect_grading(C) == ([0] * 32, [0] * 32, 2)
    w = parse_potential_text(RingCtx(("x", "y"), QQ), "x^2*y + y^3")
    diag = stabilized_diagonal(w)
    assert detect_grading(hom_complex(diag, diag)) == (
        [0, 2, -2, 0, 0, 0, 0, 0],
        [-1, 1, -1, 1, 1, 1, -1, -1],
        3,
    )
    assert detect_grading(_koszul_of("x", "x^2 + x^3")) is None


def test_detect_grading_is_integral_on_the_corpus():
    # d^2 = w id with w != 0 forces delta = g1 + g2 on every 2-cycle, so the
    # shifts and the step of every corpus factorization and its End are ints
    from mfcat.corpus import build_corpus

    for entry in build_corpus():
        for _, x in entry.test_objects() + [("diagonal", entry.diagonal)]:
            for c in (x, hom_complex(x, x)):
                u_even, u_odd, delta = detect_grading(c)
                assert all(type(v) is int for v in u_even + u_odd + [delta])


def test_detect_grading_keeps_a_fractional_step():
    # a complex of 0 whose 4-cycle e0 -> o0 -> e1 -> o1 -> e0 has entry
    # degrees 1, 1, 1, 2: 4 delta = 2 * 5, so delta = 5/2 (d^2 = 0 is not needed)
    ctx = RingCtx(("x", "y"), QQ)
    x, y, zero = Series.variable(ctx, 0), Series.variable(ctx, 1), Series.zero(ctx)
    c = MatrixFactorization(ctx, zero, RMatrix(ctx, [[zero, x], [y ** 2, zero]]),
                            RMatrix(ctx, [[x, zero], [zero, y]]))
    u_even, u_odd, delta = detect_grading(c)
    assert type(delta) is Fraction and delta == Fraction(5, 2)
    assert (u_even, u_odd) == ([0, -1], [Fraction(1, 2), Fraction(-1, 2)])


def test_cohomology_over_R_rejects_nonzero_potential():
    X = cusp_node()
    assert verify_mf(X)
    with pytest.raises(PreconditionError):
        cohomology_over_R(X)


def test_is_quasi_iso():
    ctx = ring1()
    w = parse_potential_text(ctx, "x^3")
    K = stabilize_residue_field(w)
    assert is_quasi_iso(MFMorphism.identity(K))
    assert not is_quasi_iso(MFMorphism.zero(K, K))
    total = direct_sum(K, trivial_mf(ctx, w))
    assert is_quasi_iso(MFMorphism.inclusion_first(K, total))
    not_closed = MFMorphism(
        K, K, "even", RMatrix(ctx, [[Series.one(ctx)]]), RMatrix(ctx, [[Series.zero(ctx)]])
    )
    with pytest.raises(VerificationError):
        is_quasi_iso(not_closed)
    # D4, where K has rank 2
    ctx2 = RingCtx(("x", "y"), QQ)
    w2 = parse_potential_text(ctx2, "x^2*y + y^3")
    K2 = stabilize_residue_field(w2)
    T2 = trivial_mf(ctx2, w2)
    x = Series.variable(ctx2, 0)
    assert is_quasi_iso(MFMorphism.identity(K2))
    assert is_quasi_iso(MFMorphism.scalar(K2, Series.one(ctx2) + x))  # a unit of R
    assert is_quasi_iso(MFMorphism.inclusion_first(K2, direct_sum(K2, T2)))
    assert not is_quasi_iso(MFMorphism.scalar(K2, x))
    assert not is_quasi_iso(MFMorphism.inclusion_first(T2, direct_sum(T2, K2)))
    zero = RMatrix.zero(ctx2, 2, 2)
    with pytest.raises(PreconditionError):
        is_quasi_iso(MFMorphism(K2, K2, "odd", zero, zero))


def _hom_grid():
    """Objects K, shift K, trivial, K (+) trivial and cone(x id) of x^3 and of
    D4, over QQ and GF(7): one list per ring."""
    for names, text in (("x", "x^3"), ("x,y", "x^2*y + y^3")):
        for field in (QQ, field_from_name("prime:7")):
            ctx = RingCtx(tuple(names.split(",")), field)
            w = parse_potential_text(ctx, text)
            K = stabilize_residue_field(w)
            T = trivial_mf(ctx, w)
            x_id = MFMorphism.scalar(K, Series.variable(ctx, 0))
            yield [K, shift(K), T, direct_sum(K, T), cone(x_id)]


def _hom_reference(x, y):
    """Hom(X, Y) differentials from D(f) = d_Y f - (-1)^|f| f d_X on elementary
    matrices f: (X0 ++ X1) -> (Y0 ++ Y1), with the basis order of `hom_complex`."""
    ctx, rx, ry = x.ctx, x.rank, y.rank
    z = Series.zero(ctx)

    def odd_block(mf, r):
        top = [[z] * r + list(row) for row in mf.phi.entries]
        bottom = [list(row) + [z] * r for row in mf.psi.entries]
        return RMatrix(ctx, top + bottom)

    d_x, d_y = odd_block(x, rx), odd_block(y, ry)
    # (row, column) offsets of the blocks inside a (2 ry) x (2 rx) matrix
    even = [(0, 0), (ry, rx)]  # Hom(X0,Y0), Hom(X1,Y1)
    odd = [(ry, 0), (0, rx)]  # Hom(X0,Y1), Hom(X1,Y0)

    def coords(m, slots):
        return [m.entries[r + p][c + q] for r, c in slots for p in range(ry) for q in range(rx)]

    def differential(src, tgt, degree):
        cols = []
        for r, c in src:
            for p in range(ry):
                for q in range(rx):
                    grid = [[z] * (2 * rx) for _ in range(2 * ry)]
                    grid[r + p][c + q] = Series.one(ctx)
                    f = RMatrix(ctx, grid)
                    fd = f * d_x
                    cols.append(coords(d_y * f - (fd if degree == 0 else -fd), tgt))
        return RMatrix(ctx, [list(row) for row in zip(*cols)])

    return differential(even, odd, 0), differential(odd, even, 1)


def test_hom_complex_matches_sign_convention_reference():
    for objects in _hom_grid():
        for x in objects:
            for y in objects:
                H = hom_complex(x, y)
                d_eo, d_oe = _hom_reference(x, y)
                assert H.psi == d_eo
                assert H.phi == d_oe


def _mod_k_grid():
    """The objects of `_hom_grid`, and over QQ the same kinds of objects with
    residues 1/2 and 1/3: the trivial (1/3, 3w) and the cone of 1/2 id on K."""
    yield from _hom_grid()
    for names, text in (("x", "1/2*x^3"), ("x,y", "1/2*x^2*y + 1/3*y^3")):
        ctx = RingCtx(tuple(names.split(",")), QQ)
        w = parse_potential_text(ctx, text)
        K = stabilize_residue_field(w)
        T = MatrixFactorization(
            ctx, w, RMatrix(ctx, [[Series.constant(ctx, "1/3")]]), RMatrix(ctx, [[w.scale(3)]])
        )
        half_id = MFMorphism.scalar(K, Series.constant(ctx, "1/2"))
        yield [K, shift(K), T, direct_sum(K, T), cone(half_id)]


def _mod_k_reference(mf):
    """(even, odd) k-dims of k (x) X from dense ranks of the residue matrices."""
    field = mf.ctx.field
    r = sum(rank_dense([[e.residue() for e in row] for row in d.entries], field) for d in (mf.psi, mf.phi))
    return (mf.rank - r, mf.rank - r)


def test_cohomology_mod_k_matches_dense_ranks():
    for objects in _mod_k_grid():
        for x in objects:
            assert cohomology_mod_k(x) == _mod_k_reference(x)
            for y in objects:
                H = hom_complex(x, y)
                assert cohomology_mod_k(H) == _mod_k_reference(H)


def test_scalar_action_nullhomotopy():
    ctx = ring1()
    X = cusp_node()
    assert scalar_action_nullhomotopy(X, X, 0)
    ctx2 = RingCtx(("x", "y"), QQ)
    K = stabilize_residue_field(parse_potential_text(ctx2, "x^2*y + y^3"))
    assert scalar_action_nullhomotopy(K, K, 0)
    assert scalar_action_nullhomotopy(K, K, 1)
    for objects in _hom_grid():
        for x in objects:
            for y in objects:
                for k in range(x.ctx.n_vars):
                    assert scalar_action_nullhomotopy(x, y, k)


def test_partial_times_cycles_are_boundaries():
    # strand-level crosscheck of the annihilation statement for w = x^3:
    # multiplication by dw/dx maps every degree stratum's cycles into the
    # boundaries two strata up
    from mfcat.linalg import rank_sparse

    def stratum(parity, s):
        # the basis (i, x^g) of strand s in one variable: u_i + 2g = s, g >= 0
        us = (u_even, u_odd)[parity]
        return [(i, ((s - u) // 2,)) for i, u in enumerate(us) if s >= u and (s - u) % 2 == 0]

    ctx = ring1()
    w = parse_potential_text(ctx, "x^3")
    K = stabilize_residue_field(w)
    C = hom_complex(K, K)
    u_even, u_odd, delta = detect_grading(C)
    dw = w.partial_derivative(0)
    (exp,), coef = next(iter(dw.terms.keys())), next(iter(dw.terms.values()))
    shift_deg = 2 * exp
    field = ctx.field
    for s_num in range(-8, 20):
        s = u_even[0] + s_num
        src = stratum(0, s)
        if not src:
            continue
        tgt = stratum(0, s + shift_deg)
        tgt_index = {bv: i for i, bv in enumerate(tgt)}
        # boundaries in the target stratum
        b_src = stratum(1, s + shift_deg - delta)
        rows_b = []
        mat = C.phi
        for i, mono in b_src:
            vec = {}
            for j in range(mat.rows):
                entry = mat.entries[j][i]
                for e2, c2 in entry.terms.items():
                    col = tgt_index.get((j, tuple(a + b for a, b in zip(mono, e2))))
                    if col is not None:
                        vec[col] = field.add(vec.get(col, field.zero), c2)
            rows_b.append({k: v for k, v in vec.items() if v != field.zero})
        rank_b = rank_sparse(rows_b, field)
        # cycles in the source stratum, multiplied by dw
        eo = C.psi
        img_tgt = stratum(1, s + delta)
        img_index = {bv: i for i, bv in enumerate(img_tgt)}
        rows_z = []
        for i, mono in src:
            vec = {}
            for j in range(eo.rows):
                for e2, c2 in eo.entries[j][i].terms.items():
                    col = img_index.get((j, tuple(a + b for a, b in zip(mono, e2))))
                    if col is not None:
                        vec[col] = field.add(vec.get(col, field.zero), c2)
            rows_z.append((i, mono, {k: v for k, v in vec.items() if v != field.zero}))
        # brute-force the kernel within the stratum
        from mfcat.linalg import nullspace_dense

        dense = [[field.zero] * len(src) for _ in range(len(img_tgt))]
        for cidx, (_, _, vec) in enumerate(rows_z):
            for r, v in vec.items():
                dense[r][cidx] = v
        kernel = nullspace_dense(dense, len(src), field)
        moved = []
        for k_vec in kernel:
            out = {}
            for cidx, v in enumerate(k_vec):
                if v == field.zero:
                    continue
                i, mono = src[cidx]
                key = (i, tuple(a + b for a, b in zip(mono, (exp,))))
                col = tgt_index.get(key)
                assert col is not None
                out[col] = field.add(out.get(col, field.zero), field.mul(v, coef))
            moved.append({k: v for k, v in out.items() if v != field.zero})
        rank_all = rank_sparse(moved + rows_b, field)
        assert rank_all == rank_b  # dw * cycles land inside the boundaries


def test_hom_cohomology_builds_no_hom_sized_matrix(monkeypatch):
    # Hom's column terms are placed from the objects' own; the largest matrix
    # built on the way, through either constructor, is an object's (its
    # dual's transposes)
    sizes = []
    init, from_columns = RMatrix.__init__, RMatrix.from_columns

    def recorded(self, ctx, entries):
        init(self, ctx, entries)
        sizes.append(max(self.rows, self.cols))

    def recorded_from_columns(ctx, rows, columns):
        m = from_columns(ctx, rows, columns)
        sizes.append(max(m.rows, m.cols))
        return m

    monkeypatch.setattr(RMatrix, "__init__", recorded)
    monkeypatch.setattr(RMatrix, "from_columns", staticmethod(recorded_from_columns))
    for names, text, left, right in (
        ("x,y", "x^2*y+y^3", ("K", "K"), "K"),
        ("x,y", "x^2*y+y^3", "Delta", "Delta"),
        ("x,y", "x^2*y+y^4", "K", ("K", "triv")),
        ("x", "x^12+x^13", "K", "K"),
    ):
        x, y = (
            direct_sum(*_pair(names, text, *label)) if isinstance(label, tuple)
            else _pair(names, text, label, label)[0]
            for label in (left, right)
        )
        sizes.clear()
        hom_cohomology(x, y)
        assert sizes and max(sizes) <= max(x.rank, y.rank)


def test_hom_dims_transpose_symmetry():
    ctx = ring1()
    x = Series.variable(ctx, 0)
    w = x ** 4
    a = MatrixFactorization(ctx, w, RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** 3]]))
    b = MatrixFactorization(ctx, w, RMatrix(ctx, [[x ** 2]]), RMatrix(ctx, [[x ** 2]]))
    assert cohomology_over_R(hom_complex(a, b)) == cohomology_over_R(hom_complex(b, a))


def test_engines_agree_on_random_endomorphism_complexes():
    rng = random.Random(83)
    ctx = ring1()
    x = Series.variable(ctx, 0)
    for _ in range(6):
        k = rng.randint(1, 3)
        w = x ** (k + 1)
        X = MatrixFactorization(ctx, w, RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** k]]))
        C = hom_complex(X, X)
        strand = cohomology_over_R(C)
        assert detect_grading(C) is not None
        assert _two_cap_cohomology(C.ctx, _columns(C), 64) == strand


def test_non_isolated_strand_scan_raises(monkeypatch):
    from mfcat.errors import StabilizationError

    monkeypatch.setenv("MFCAT_NMAX", "10")
    ctx = RingCtx(("x", "y"), QQ)
    w = parse_potential_text(ctx, "x^2*y^2")  # singular along both axes
    C = folded_koszul_complex([w.partial_derivative(0), w.partial_derivative(1)])
    with pytest.raises(StabilizationError):
        cohomology_over_R(C)


def test_engines_agree_two_variables():
    ctx = RingCtx(("x", "y"), QQ)
    w = parse_potential_text(ctx, "x^2*y + y^3")
    k = stabilize_residue_field(w)
    C = hom_complex(k, k)
    assert cohomology_over_R(C) == (2, 2)
    assert _two_cap_dims(_level_profile(C.ctx, _columns(C), 6), 3) == (2, 2)
    # D5 has unequal weights, so the two-cap route answers End(K)
    w = parse_potential_text(ctx, "x^2*y + y^4")
    k = stabilize_residue_field(w)
    C = hom_complex(k, k)
    assert detect_grading(C) is None
    assert cohomology_over_R(C) == (2, 2)


def _two_cap_reference(C, n):
    """The kernel-basis formula for the two-cap dims: a `nullspace_dense` basis
    of the level-2n cycles, truncated to level n and ranked against the
    level-n boundaries."""
    from mfcat.complexes import _level_basis
    from mfcat.linalg import nullspace_dense, rank_sparse

    field = C.ctx.field

    def level(cap):
        basis, index = _level_basis(C.ctx, _columns(C), cap)
        return (basis, *(list(_truncated_operator_rows(cols, basis, index)) for cols in _columns(C)))

    basis_hi, eo_hi, oe_hi = level(2 * n)
    basis_lo, eo_lo, oe_lo = level(n)

    def induced(d_hi, tgt_dim, b_lo):
        cols = [[field.zero] * len(basis_hi) for _ in range(tgt_dim)]
        for src, row in enumerate(d_hi):
            for tgt, v in row.items():
                cols[tgt][src] = v
        lo_index = {bv: i for i, bv in enumerate(basis_lo)}
        proj = []
        for z in nullspace_dense(cols, len(basis_hi), field):
            proj.append({lo_index[bv]: v for bv, v in zip(basis_hi, z) if v and bv in lo_index})
        rank_b = rank_sparse(b_lo, field)
        return rank_sparse(proj + b_lo, field) - rank_b

    return (
        induced(eo_hi, len(basis_hi), oe_lo),
        induced(oe_hi, len(basis_hi), eo_lo),
    )


def _koszul_of(names, text, field=QQ):
    w = parse_potential_text(RingCtx(tuple(names.split(",")), field), text)
    return folded_koszul_complex([w.partial_derivative(i) for i in range(w.ctx.n_vars)])


def _end_k_of(names, text, field=QQ):
    ctx = RingCtx(tuple(names.split(",")), field)
    k = stabilize_residue_field(parse_potential_text(ctx, text))
    return hom_complex(k, k)


# The levels include unstable ones, where levels n and n+1 still differ:
# W12 at n=2 gives (9, 8) and x^12+x^13 at n=6 gives (7, 5).
@pytest.mark.parametrize(
    "build, levels",
    [
        (lambda: _koszul_of("x,y", "x^3 + x*y^3"), range(1, 7)),
        (lambda: _koszul_of("x,y", "x^2*y + y^4"), range(1, 7)),
        (lambda: _koszul_of("x,y", "x^4 + y^5 + x^2*y^3"), range(1, 7)),
        (lambda: _koszul_of("x", "x^12 + x^13"), range(1, 7)),
        (lambda: _koszul_of("x,y", "x^3 - y^4"), range(1, 7)),
        (lambda: _koszul_of("x,y", "x^3 + x*y^3", field_from_name("prime:7")), range(1, 7)),
        # the dense reference takes ~20 s more for levels 5 and 6 here
        (lambda: _end_k_of("x,y", "x^2*y + y^3"), range(1, 5)),
        (lambda: _end_k_of("x", "x^12 + x^13"), range(1, 7)),
        (lambda: _end_k_of("x", "x^12 + x^13", field_from_name("prime:7")), range(1, 7)),
    ],
    ids=["koszul-E7", "koszul-D5", "koszul-W12", "koszul-A12", "koszul-E6", "koszul-E7-GF7",
         "endK-D4", "endK-A12", "endK-A12-GF7"],
)
def test_two_cap_dims_match_kernel_basis_formula(build, levels):
    # the n and n+1 dims are read off one shared level-(2n+2) profile, as the
    # two-cap route reads them, and level 2n alone suffices for n
    C = build()
    reference = {n: _two_cap_reference(C, n) for n in levels}
    for n in levels:
        profile = _level_profile(C.ctx, _columns(C), 2 * n + 2)
        assert _two_cap_dims(profile, n) == reference[n], n
        if n + 1 in reference:
            assert _two_cap_dims(profile, n + 1) == reference[n + 1], n + 1
        assert _two_cap_dims(_level_profile(C.ctx, _columns(C), 2 * n), n) == reference[n], n


def _random_rmatrix(rng, ctx, rows, cols):
    field = ctx.field
    monos = monomial_basis(ctx, 3)

    def coeff():
        if field == QQ:
            return field.div(field.of(rng.choice([-3, -1, 1, 2, 5])), field.of(rng.choice([1, 2, 3, 4])))
        return field.of(rng.randint(1, 6))

    return RMatrix(
        ctx,
        [
            [Series(ctx, {m: coeff() for m in rng.sample(monos, rng.randint(0, 4))}) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def _operator_rows_reference(mat, src_basis, tgt_index):
    """The operator rows from `Series` products: monomial times entry, each
    term kept when its (row, monomial) is in the target index."""
    ctx = mat.ctx
    rows = []
    for i, mono in src_basis:
        vec = {}
        for j in range(mat.rows):
            product = Series(ctx, {mono: ctx.field.one}) * mat.entries[j][i]
            for exp, c in product.terms.items():
                col = tgt_index.get((j, exp))
                if col is not None:
                    assert col not in vec
                    vec[col] = c
        rows.append(vec)
    return rows


@pytest.mark.parametrize("field_name", ["rational", "prime:7"])
def test_operator_rows_match_series_products(field_name):
    rng = random.Random(29)
    ctx = RingCtx(("x", "y"), field_from_name(field_name))
    for _ in range(12):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = _random_rmatrix(rng, ctx, rows, cols)
        columns = mat.columns
        # a strand-like pair: source index i in degree g_i, target row j in degree h_j
        src = [(i, m) for i in range(cols) for m in monomials_of_degree(2, rng.randint(0, 3))]
        tgt = [(j, m) for j in range(rows) for m in monomials_of_degree(2, rng.randint(0, 5))]
        strand_index = {bv: k for k, bv in enumerate(tgt)}
        assert list(_truncated_operator_rows(columns, src, strand_index)) == _operator_rows_reference(
            mat, src, strand_index
        )
        # a level truncation, as the two-cap route builds it
        cap = rng.randint(1, 4)
        monos = monomial_basis(ctx, cap)
        src = [(i, m) for i in range(cols) for m in monos]
        level = [(j, m) for j in range(rows) for m in monos]
        level_index = {bv: k for k, bv in enumerate(level)}
        assert list(_truncated_operator_rows(columns, src, level_index)) == _operator_rows_reference(
            mat, src, level_index
        )


# -- the proven end of the strand scan ------------------------------------------


def _pair(names, text, left, right, field=QQ):
    """Hom(left, right) objects over w = text: "K", "K[1]", "triv", "Delta",
    or a rank-one factorization written "a|b" (phi = a, psi = b)."""
    ctx = RingCtx(tuple(names.split(",")), field)
    w = parse_potential_text(ctx, text)

    def build(label):
        if label in ("K", "K[1]"):
            k = stabilize_residue_field(w)
            return shift(k) if label == "K[1]" else k
        if label == "triv":
            return trivial_mf(ctx, w)
        if label == "Delta":
            return stabilized_diagonal(w)
        a, b = (parse_potential_text(ctx, t) for t in label.split("|"))
        return MatrixFactorization(ctx, w, RMatrix(ctx, [[a]]), RMatrix(ctx, [[b]]))

    return build(left), build(right)


def _nonzero_strands(c, graded):
    """Strands of the zero-run scan (the old, assumed end) that carry cohomology."""
    dims = _strand_dims(c.ctx, _columns(c), *graded, stabilization_cap())
    return [s for s, e, o in dims if e or o]


def _proven_stop(ctx, graded):
    """The one proven stop of `_cohomology`, u_max + n(delta - 2)."""
    u_even, u_odd, delta = graded
    return max(u_even + u_odd) + ctx.n_vars * (delta - 2)


def _scan_stops(monkeypatch):
    """The `stop` of each `_strand_dims` call from here on, in call order."""
    import mfcat.complexes as complexes

    stops = []

    def spy(*args):
        stops.append(args[-1])
        return _strand_dims(*args)

    monkeypatch.setattr(complexes, "_strand_dims", spy)
    return stops


# A fast subset of graded Hom pairs; the sharp ones have their top class
# exactly on the stop.
_HOM_PAIRS = [
    ("x", "x^12", "x^6|x^6", "x^6|x^6", QQ, True),
    ("x", "x^40", "x^20|x^20", "x^20|x^20", QQ, True),
    ("x", "x^40", "K", "K", QQ, False),
    ("x", "x^40", "x^7|x^33", "x^20|x^20", QQ, False),
    ("x", "x^5", "K", "x^2|x^3", QQ, False),
    ("x", "x^5", "x^2|x^3", "K[1]", field_from_name("prime:7"), False),
    ("x", "x^3", "Delta", "Delta", QQ, False),
    ("x,y", "x^2*y+y^3", "y|x^2+y^2", "x^2+y^2|y", QQ, False),
    ("x,y", "x^2*y+y^3", "Delta", "Delta", QQ, False),
    ("x,y", "x^3+y^3", "x+y|x^2-x*y+y^2", "K", field_from_name("prime:7"), False),
    ("x,y", "x^3*y+x*y^3", "x*y|x^2+y^2", "x*y|x^2+y^2", QQ, True),
    ("x,y", "x^2+y^2", "K", "K[1]", QQ, True),
    ("x,y,z", "x^2+y^2+z^2", "K", "triv", QQ, False),
]


@pytest.mark.parametrize(
    "names, text, left, right, field, sharp",
    _HOM_PAIRS,
    ids=["x12-node6", "x40-node20", "x40-K", "x40-node7-node20", "x5-K-node2", "x5-node2-K1-GF7",
         "x3-Delta", "D4-E-F", "D4-Delta", "cusp-G-K-GF7", "x3y-node", "quadric2-K-K1",
         "quadric3-K-triv"],
)
def test_serre_stop_bounds_the_strand_scan(monkeypatch, names, text, left, right, field, sharp):
    # the zero-run scan needs a cap of 200 to settle on x^40
    monkeypatch.setenv("MFCAT_NMAX", "200")
    x, y = _pair(names, text, left, right, field)
    C = hom_complex(x, y)
    graded = _hom_grading(x, y)
    assert _serre_applies(x.potential, graded[2])
    stops = _scan_stops(monkeypatch)
    assert hom_cohomology(x, y) == cohomology_over_R(C)
    # End(X) is scanned to its center, every other Hom to the proven stop;
    # the reference scan has no stop
    stop = _proven_stop(x.ctx, graded)
    assert stops == [x.ctx.n_vars * (graded[2] - 2) // 2 if x == y else stop, None]
    strands = _nonzero_strands(C, graded)
    assert all(s <= stop for s in strands)
    assert (bool(strands) and strands[-1] == stop) == sharp


# End pairs of _HOM_PAIRS, direct sums, and fields whose characteristic
# divides the Milnor number (3 | 3 for x^4, 2 | 4 for x^3 + y^3)
_END_OBJECTS = [
    (names, text, left, field) for names, text, left, right, field, _ in _HOM_PAIRS if left == right
] + [
    ("x", "x^5", ("K", "x^2|x^3"), QQ),
    ("x", "x^5", ("K", "K[1]"), QQ),
    ("x,y", "x^2+y^2", ("K", "K[1]"), QQ),
    ("x", "x^4", "K", field_from_name("prime:3")),
    ("x", "x^4", "Delta", field_from_name("prime:3")),
    ("x,y", "x^3+y^3", "K", field_from_name("prime:2")),
    ("x,y", "x^3+y^3", "Delta", field_from_name("prime:2")),
]


@pytest.mark.parametrize(
    "names, text, label, field",
    _END_OBJECTS,
    ids=[f"{names}:{text}:{'+'.join(label) if isinstance(label, tuple) else label}:{field.name}"
         for names, text, label, field in _END_OBJECTS],
)
def test_reflected_end_matches_the_full_scan(names, text, label, field):
    # hom_cohomology scans End(X) only up to its center n(delta - 2)/2 and
    # reflects; the reference scans every strand up to the proven stop
    if isinstance(label, tuple):
        x = direct_sum(*_pair(names, text, *label, field))
    else:
        x, _ = _pair(names, text, label, label, field)
    assert _serre_applies(x.potential, _hom_grading(x, x)[2])
    full = cohomology_over_R(hom_complex(x, x), proven=True)
    assert hom_cohomology(x, x) == full


def test_hom_grading_makes_hom_homogeneous():
    # every term of Hom's differential raises the object-graded strand by delta
    for names, text, left, right, field, _ in _HOM_PAIRS:
        x, y = _pair(names, text, left, right, field)
        u_even, u_odd, delta = _hom_grading(x, y)
        C = hom_complex(x, y)
        for src, dst, mat in ((u_even, u_odd, C.psi), (u_odd, u_even, C.phi)):
            for i, terms in enumerate(mat.columns):
                for j, exp, _ in terms:
                    assert dst[j] == src[i] + delta - 2 * sum(exp)
    # an ungraded object makes Hom ungraded
    x, y = _pair("x", "x^12+x^13", "K", "K")
    assert _hom_grading(x, y) is None and detect_grading(hom_complex(x, y)) is None


def test_end_grades_its_object_once(monkeypatch):
    # End(X) passes one object for both sides, so its grading is found once
    import mfcat.complexes as complexes

    calls = []

    def counted(c):
        calls.append(c)
        return detect_grading(c)

    monkeypatch.setattr(complexes, "detect_grading", counted)
    x, _ = _pair("x,y", "x^3+y^3", "K", "K")
    assert hom_cohomology(x, x) == (2, 2)
    assert len(calls) == 1 and calls[0] is x


@pytest.mark.parametrize(
    "names, text, field",
    [("x", "x^3", QQ), ("x", "x^7", QQ), ("x", "x^32", QQ), ("x,y", "x^2*y+y^3", QQ),
     ("x,y", "x^3+y^4", QQ), ("x,y", "x^3+y^5", QQ), ("x,y", "x^3+y^3", field_from_name("prime:7")),
     ("x,y,z", "x^2+y^2+z^2", QQ)],
    ids=["A2", "A6", "A31", "D4", "E6", "E8", "cusp-GF7", "quadric3"],
)
def test_koszul_stop_bounds_the_strand_scan(monkeypatch, names, text, field):
    monkeypatch.setenv("MFCAT_NMAX", "200")
    w = parse_potential_text(RingCtx(tuple(names.split(",")), field), text)
    partials = [w.partial_derivative(i) for i in range(w.ctx.n_vars)]
    C = folded_koszul_complex(partials)
    graded = detect_grading(C)
    stops = _scan_stops(monkeypatch)
    assert hochschild_cohomology(w) == cohomology_over_R(C)
    # no cycle forces a step, and the proven stop u_max - 2n is u(e_0) plus
    # twice the top degree sum(deg d_i w - 1) of Jac(w)
    stop = _proven_stop(w.ctx, graded)
    assert graded[2] == 0 and stops == [stop, None]
    assert stop == graded[0][0] + 2 * sum(p.total_degree() - 1 for p in partials)
    # Jac(w) is nonzero in its top degree, so this stop is always sharp
    assert _nonzero_strands(C, graded)[-1] == stop


def test_stop_needs_homogeneous_isolated_potential():
    ctx = RingCtx(("x", "y"), QQ)

    def applies(text, delta=4):
        return _serre_applies(parse_potential_text(ctx, text), delta)

    assert applies("x^3*y+x*y^3")
    assert applies("x^3+y^3", 3)
    assert not applies("x^2*y^2")  # homogeneous, not isolated
    assert not applies("x^4+y^5")  # not homogeneous
    assert not applies("x^3+y^3")  # homogeneous of the wrong degree
    assert not applies("x", 1)  # the step must be at least 2
    assert not _serre_applies(Series.zero(ctx), 4)
    partials = [parse_potential_text(ctx, t) for t in ("2*x*y", "x^2+3*y^2")]
    assert _certified_top_degree(partials) == 2
    assert _certified_top_degree([partials[0], Series.zero(ctx)]) is None
    assert _certified_top_degree([partials[0], partials[0]]) is None


def test_stop_past_the_cap_raises(monkeypatch):
    from mfcat.errors import StabilizationError

    # Hom(K, K[1]) of x^40 is scanned in full: K has the shifts (0, -38) and
    # K[1] has (0, 38), so u_max = 76, the stop is 76 + 38 = 114, and the
    # last strand under the cap is 2 * cap + 76
    x, y = _pair("x", "x^40", "K", "K[1]")
    graded = _hom_grading(x, y)
    assert graded == ([0, 76], [38, 38], 40)
    stops = _scan_stops(monkeypatch)
    monkeypatch.setenv("MFCAT_NMAX", "18")
    with pytest.raises(StabilizationError):
        hom_cohomology(x, y)
    monkeypatch.setenv("MFCAT_NMAX", "19")
    assert hom_cohomology(x, y) == (1, 1)
    assert stops == [114, 114]
    # End of the node (x^20, x^20) has shifts 0 and is scanned to its center
    # n(delta - 2)/2 = 19, past the last strand 2 * 9 under a cap of 9
    node, _ = _pair("x", "x^40", "x^20|x^20", "x^20|x^20")
    assert _hom_grading(node, node) == ([0, 0], [0, 0], 40)
    monkeypatch.setenv("MFCAT_NMAX", "9")
    with pytest.raises(StabilizationError):
        hom_cohomology(node, node)
    monkeypatch.setenv("MFCAT_NMAX", "10")
    assert hom_cohomology(node, node) == (20, 20)
    assert stops[2:] == [19, 19]

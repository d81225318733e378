"""2-periodic complexes, morphism complexes, and exact cohomology engines.

Two exact routes compute k-dimensions of cohomology over the local ring:

  * strand route: when the differential is homogeneous for some internal
    grading (detected automatically), the complex splits into finite
    strands and each contributes an exact rank computation;
  * projective-limit route: otherwise the dimensions are recovered as the
    rank of the map induced on cohomology by truncation from a high degree
    cap to a lower one, which kills the spurious classes a single
    truncation would manufacture at its boundary.

Both are wrapped in the doubling stabilization loop with the configurable
cap (env MFCAT_NMAX, default 64).
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import InputParseError, PreconditionError, StabilizationError, VerificationError
from .factorization import MatrixFactorization, MFMorphism, RMatrix
from .fields import accumulate
from .linalg import nullspace_dense, rank_dense, rank_sparse
from .series import Series, monomial_basis, monomials_of_degree

DEFAULT_STABILIZATION_CAP = 64


def stabilization_cap(override=None) -> int:
    if override is not None:
        return override
    env = os.environ.get("MFCAT_NMAX")
    if not env:
        return DEFAULT_STABILIZATION_CAP
    try:
        return int(env)
    except ValueError as exc:
        raise InputParseError(f"MFCAT_NMAX must be an integer, got {env!r}") from exc


class Z2Complex:
    """2-periodic complex of finite free R-modules.

    `d_even_to_odd` and `d_odd_to_even` are matrices over the ring context.
    With twist=None the composites vanish; with twist=w both composites
    equal w * id (the reduction of a factorization lives in this mode).
    """

    __slots__ = ("ctx", "even_rank", "odd_rank", "d_even_to_odd", "d_odd_to_even", "twist")

    def __init__(self, ctx, d_even_to_odd: RMatrix, d_odd_to_even: RMatrix, twist=None):
        self.ctx = ctx
        self.d_even_to_odd = d_even_to_odd
        self.d_odd_to_even = d_odd_to_even
        self.even_rank = d_even_to_odd.cols
        self.odd_rank = d_even_to_odd.rows
        if d_odd_to_even.cols != self.odd_rank or d_odd_to_even.rows != self.even_rank:
            raise PreconditionError("differential shapes are inconsistent")
        self.twist = twist

    def verify(self) -> bool:
        ee = self.d_odd_to_even * self.d_even_to_odd
        oo = self.d_even_to_odd * self.d_odd_to_even
        if self.twist is None:
            return ee.is_zero() and oo.is_zero()
        return ee == RMatrix.scalar(self.ctx, self.even_rank, self.twist) and oo == RMatrix.scalar(
            self.ctx, self.odd_rank, self.twist
        )

    def reduce_mod_k(self) -> "KComplex":
        return KComplex(
            self.ctx.field,
            self.even_rank,
            self.odd_rank,
            self.d_even_to_odd.residue_matrix(),
            self.d_odd_to_even.residue_matrix(),
        )


class KComplex:
    """2-periodic complex of finite-dimensional k-vector spaces."""

    __slots__ = ("field", "even_dim", "odd_dim", "d_even_to_odd", "d_odd_to_even")

    def __init__(self, field, even_dim, odd_dim, d_even_to_odd, d_odd_to_even):
        self.field = field
        self.even_dim = even_dim
        self.odd_dim = odd_dim
        self.d_even_to_odd = d_even_to_odd
        self.d_odd_to_even = d_odd_to_even

    def verify(self) -> bool:
        f = self.field
        for rows, cols, dim_mid in (
            (self.d_odd_to_even, self.d_even_to_odd, self.odd_dim),
            (self.d_even_to_odd, self.d_odd_to_even, self.even_dim),
        ):
            for i in range(len(rows)):
                for j in range(len(cols[0]) if cols else 0):
                    acc = f.zero
                    for k in range(dim_mid):
                        acc = f.add(acc, f.mul(rows[i][k], cols[k][j]))
                    if acc != f.zero:
                        return False
        return True

    def cohomology_dims(self):
        if not self.verify():
            raise VerificationError("reduction is not a complex")
        r_eo = rank_dense(self.d_even_to_odd, self.field) if self.even_dim else 0
        r_oe = rank_dense(self.d_odd_to_even, self.field) if self.odd_dim else 0
        return (self.even_dim - r_eo - r_oe, self.odd_dim - r_oe - r_eo)

    def is_acyclic(self) -> bool:
        return self.cohomology_dims() == (0, 0)


def mf_reduction(mf: MatrixFactorization) -> KComplex:
    """k (x) X: the constant-term complex of a factorization (w is in m)."""
    return KComplex(
        mf.ctx.field, mf.rank, mf.rank, mf.psi.residue_matrix(), mf.phi.residue_matrix()
    )


def cone_k(a: KComplex, b: KComplex, f_even, f_odd, field) -> KComplex:
    """Cone of the chain map (f_even: A0->B0, f_odd: A1->B1) over k."""

    def block(tl, tr, bl, br, rows_t, cols_t, rows_b, cols_b):
        out = []
        for i in range(rows_t):
            out.append(list(tl[i]) + list(tr[i]))
        for i in range(rows_b):
            out.append(list(bl[i]) + list(br[i]))
        return out

    z = field.zero

    def zeros(r, c):
        return [[z] * c for _ in range(r)]

    def neg(m):
        return [[field.neg(v) for v in row] for row in m]

    # cone even = A1 (+) B0, cone odd = A0 (+) B1
    d_oe = block(
        neg(a.d_even_to_odd),
        zeros(a.odd_dim, b.even_dim),
        f_even,
        b.d_odd_to_even,
        a.odd_dim,
        a.even_dim,
        b.even_dim,
        b.odd_dim,
    )
    d_eo = block(
        neg(a.d_odd_to_even),
        zeros(a.even_dim, b.odd_dim),
        f_odd,
        b.d_even_to_odd,
        a.even_dim,
        a.odd_dim,
        b.odd_dim,
        b.even_dim,
    )
    return KComplex(field, a.odd_dim + b.even_dim, a.even_dim + b.odd_dim, d_eo, d_oe)


def cohomology_mod_k(c: Z2Complex):
    """k-dimensions of the cohomology of the constant-term reduction."""
    return c.reduce_mod_k().cohomology_dims()


def is_quasi_iso(f: MFMorphism) -> bool:
    """A closed even morphism is invertible up to homotopy iff its reduction is."""
    if f.parity != "even":
        raise PreconditionError("quasi-isomorphism test needs an even morphism")
    if not f.is_closed():
        raise VerificationError("quasi-isomorphism test needs a closed morphism")
    a = mf_reduction(f.source)
    b = mf_reduction(f.target)
    cone = cone_k(a, b, f.a.residue_matrix(), f.b.residue_matrix(), f.source.ctx.field)
    return cone.is_acyclic()


# -- morphism complexes --------------------------------------------------------


class BlockMapBuilder:
    """Assembles a matrix for a map between direct sums of matrix spaces.

    Each block is a space of shape (rows, cols) matrices, vectorized
    row-major. Contributions are left composition (M . E) or right
    composition (E . N), which have sparse coordinate descriptions.
    """

    def __init__(self, ctx, target_blocks, source_blocks):
        self.ctx = ctx
        self.target_blocks = target_blocks
        self.source_blocks = source_blocks
        self.t_offsets = self._offsets(target_blocks)
        self.s_offsets = self._offsets(source_blocks)
        total_t = self.t_offsets[-1]
        total_s = self.s_offsets[-1]
        z = Series.zero(ctx)
        self.entries = [[z] * total_s for _ in range(total_t)]

    @staticmethod
    def _offsets(blocks):
        offs = [0]
        for rows, cols in blocks:
            offs.append(offs[-1] + rows * cols)
        return offs

    def _tidx(self, tb, p, q):
        return self.t_offsets[tb] + p * self.target_blocks[tb][1] + q

    def _sidx(self, sb, p, q):
        return self.s_offsets[sb] + p * self.source_blocks[sb][1] + q

    def add_left(self, tb, sb, m: RMatrix, sign=1):
        """Contribution E -> sign * (m . E); source block (r, c), m: (r', r)."""
        rows_s, cols_s = self.source_blocks[sb]
        for r in range(m.rows):
            for p in range(rows_s):
                e = m.entries[r][p]
                if e.is_zero():
                    continue
                if sign < 0:
                    e = -e
                for q in range(cols_s):
                    i = self._tidx(tb, r, q)
                    j = self._sidx(sb, p, q)
                    self.entries[i][j] = self.entries[i][j] + e

    def add_right(self, tb, sb, n: RMatrix, sign=1):
        """Contribution E -> sign * (E . n); source block (r, c), n: (c, c')."""
        rows_s, cols_s = self.source_blocks[sb]
        for q in range(cols_s):
            for c in range(n.cols):
                e = n.entries[q][c]
                if e.is_zero():
                    continue
                if sign < 0:
                    e = -e
                for p in range(rows_s):
                    i = self._tidx(tb, p, c)
                    j = self._sidx(sb, p, q)
                    self.entries[i][j] = self.entries[i][j] + e

    def build(self) -> RMatrix:
        return RMatrix(self.ctx, self.entries)


def hom_complex(x: MatrixFactorization, y: MatrixFactorization) -> Z2Complex:
    """Morphism complex Hom(X, Y): D(f) = d_Y f - (-1)^|f| f d_X.

    Even basis blocks: Hom(X0,Y0) ++ Hom(X1,Y1); odd: Hom(X0,Y1) ++ Hom(X1,Y0).
    """
    if x.ctx != y.ctx:
        raise PreconditionError("hom complex needs a shared context")
    if x.potential != y.potential:
        raise PreconditionError("hom complex needs a shared potential")
    ctx = x.ctx
    rx, ry = x.rank, y.rank
    even_blocks = [(ry, rx), (ry, rx)]
    odd_blocks = [(ry, rx), (ry, rx)]

    eo = BlockMapBuilder(ctx, odd_blocks, even_blocks)
    # f even = (f0, f1): component X0->Y1 is psi_Y f0 - f1 psi_X
    eo.add_left(0, 0, y.psi)
    eo.add_right(0, 1, x.psi, sign=-1)
    # component X1->Y0 is phi_Y f1 - f0 phi_X
    eo.add_left(1, 1, y.phi)
    eo.add_right(1, 0, x.phi, sign=-1)

    oe = BlockMapBuilder(ctx, even_blocks, odd_blocks)
    # g odd = (g0: X0->Y1, g1: X1->Y0): component X0->Y0 is phi_Y g0 + g1 psi_X
    oe.add_left(0, 0, y.phi)
    oe.add_right(0, 1, x.psi)
    # component X1->Y1 is psi_Y g1 + g0 phi_X
    oe.add_left(1, 1, y.psi)
    oe.add_right(1, 0, x.phi)

    return Z2Complex(ctx, eo.build(), oe.build())


def scalar_action_nullhomotopy(x: MatrixFactorization, y: MatrixFactorization, k: int) -> bool:
    """Exact check that d/dx_k of the potential acts null-homotopically on Hom(X, Y).

    The homotopy is left composition with the entrywise x_k-derivative of
    d_Y; verifying D h + h D = (dw/dx_k) id symbolically proves the induced
    map on cohomology over R is zero.
    """
    c = hom_complex(x, y)
    ctx = x.ctx
    dphi = y.phi.map_entries(lambda e: e.partial_derivative(k))
    dpsi = y.psi.map_entries(lambda e: e.partial_derivative(k))
    rx, ry = x.rank, y.rank
    blocks = [(ry, rx), (ry, rx)]

    h_eo = BlockMapBuilder(ctx, blocks, blocks)
    # u = d/dx_k(d_Y) is odd: u f for even f has X0->Y1 part dpsi f0, X1->Y0 part dphi f1
    h_eo.add_left(0, 0, dpsi)
    h_eo.add_left(1, 1, dphi)
    h_oe = BlockMapBuilder(ctx, blocks, blocks)
    # u g for odd g has X0->Y0 part dphi g0, X1->Y1 part dpsi g1
    h_oe.add_left(0, 0, dphi)
    h_oe.add_left(1, 1, dpsi)

    heo, hoe = h_eo.build(), h_oe.build()
    dw = x.potential.partial_derivative(k)
    lhs_even = c.d_odd_to_even * heo + hoe * c.d_even_to_odd
    lhs_odd = c.d_even_to_odd * hoe + heo * c.d_odd_to_even
    return lhs_even == RMatrix.scalar(ctx, c.even_rank, dw) and lhs_odd == RMatrix.scalar(
        ctx, c.odd_rank, dw
    )


# -- exact cohomology over the ring --------------------------------------------


def _entry_degree_grid(c: Z2Complex):
    """Per-entry homogeneous degrees, or None if some entry is inhomogeneous."""
    grids = []
    for mat in (c.d_even_to_odd, c.d_odd_to_even):
        grid = []
        for row in mat.entries:
            grow = []
            for e in row:
                if e.is_zero():
                    grow.append(None)
                    continue
                degs = {sum(exp) for exp in e.terms}
                if len(degs) != 1:
                    return None
                grow.append(degs.pop())
            grid.append(grow)
        grids.append(grid)
    return grids


def detect_grading(c: Z2Complex):
    """Internal degrees making d homogeneous, or None.

    Returns (u_even, u_odd, delta): Fractions such that a basis vector i
    carrying a ring monomial of degree g sits in strand 2g + u_i, and the
    differential raises the strand by delta.
    """
    grids = _entry_degree_grid(c)
    if grids is None:
        return None
    eo, oe = grids
    n_e, n_o = c.even_rank, c.odd_rank
    # nodes: 0..n_e-1 even, n_e..n_e+n_o-1 odd; value = a + b*delta
    total = n_e + n_o
    assign: list = [None] * total
    edges = []
    for j in range(n_o):
        for i in range(n_e):
            g = eo[j][i]
            if g is not None:
                edges.append((i, n_e + j, g))  # u_target = u_source + delta - 2g
    for i in range(n_e):
        for j in range(n_o):
            g = oe[i][j]
            if g is not None:
                edges.append((n_e + j, i, g))
    adj: dict = {}
    for src, dst, g in edges:
        adj.setdefault(src, []).append((dst, g, 1))
        adj.setdefault(dst, []).append((src, g, -1))
    delta = None

    def resolve(a1, b1, a2, b2):
        # a1 + b1 d = a2 + b2 d
        nonlocal delta
        if b1 == b2:
            return a1 == a2
        d = Fraction(a2 - a1, b1 - b2)
        if delta is None:
            delta = d
            return True
        return delta == d

    for start in range(total):
        if assign[start] is not None or start not in adj:
            continue
        assign[start] = (Fraction(0), Fraction(0))
        stack = [start]
        while stack:
            node = stack.pop()
            a, b = assign[node]
            for other, g, direction in adj.get(node, ()):
                # direction +1: u_other = u_node + delta - 2g; -1: reverse
                na = a - 2 * g * direction
                nb = b + direction
                if assign[other] is None:
                    assign[other] = (na, nb)
                    stack.append(other)
                elif not resolve(assign[other][0], assign[other][1], na, nb):
                    return None
    if delta is None:
        delta = Fraction(0)
    u = []
    for node in range(total):
        if assign[node] is None:
            u.append(Fraction(0))
        else:
            a, b = assign[node]
            u.append(a + b * delta)
    return u[:n_e], u[n_e:], delta


class _StrandRanks:
    """Ranks of the degree-restricted differentials, cached per strand."""

    def __init__(self, c: Z2Complex, u_even, u_odd, delta):
        self.c = c
        self.u_even = u_even
        self.u_odd = u_odd
        self.delta = delta
        self.n = c.ctx.n_vars
        self.field = c.ctx.field
        self._rank_cache: dict = {}
        self._dim_cache: dict = {}

    def stratum(self, parity, s):
        key = (parity, s)
        if key in self._dim_cache:
            return self._dim_cache[key]
        us = self.u_even if parity == 0 else self.u_odd
        basis = []
        for i, u in enumerate(us):
            g2 = s - u
            if g2 < 0 or g2 % 2 != 0:
                continue
            g = int(g2 / 2)
            for mono in monomials_of_degree(self.n, g):
                basis.append((i, mono))
        self._dim_cache[key] = basis
        return basis

    def rank(self, parity_src, s):
        """Rank of d restricted to the (parity_src, s) stratum."""
        key = (parity_src, s)
        if key in self._rank_cache:
            return self._rank_cache[key]
        src = self.stratum(parity_src, s)
        if not src:
            self._rank_cache[key] = 0
            return 0
        tgt = self.stratum(1 - parity_src, s + self.delta)
        tgt_index = {bv: idx for idx, bv in enumerate(tgt)}
        mat = self.c.d_even_to_odd if parity_src == 0 else self.c.d_odd_to_even
        r = rank_sparse(_truncated_operator_rows(mat, src, tgt_index, self.field), self.field)
        self._rank_cache[key] = r
        return r


def _strand_cohomology(c: Z2Complex, u_even, u_odd, delta, cap, zero_run=None):
    ranks = _StrandRanks(c, u_even, u_odd, delta)
    all_u = list(u_even) + list(u_odd)
    if not all_u:
        return (0, 0)
    if zero_run is None:
        # conservative: cover the differential's step and the spread of the
        # internal degrees before declaring the tail empty
        spread = int(max(all_u) - min(all_u))
        zero_run = max(12, 2 * int(abs(delta)) + 4, spread + 4)
    # candidate strand values: u + 2t and their delta-translates
    starts = sorted(set(all_u) | {u + delta for u in all_u} | {u - delta for u in all_u})
    u_max = max(all_u)
    s_cap = 2 * cap + u_max
    svals = sorted({u + 2 * t for u in starts for t in range(int((s_cap - u) / 2) + 1)})
    total_e = total_o = 0
    run = 0
    for s in svals:
        he = len(ranks.stratum(0, s)) - ranks.rank(0, s) - ranks.rank(1, s - delta)
        ho = len(ranks.stratum(1, s)) - ranks.rank(1, s) - ranks.rank(0, s - delta)
        total_e += he
        total_o += ho
        if he == 0 and ho == 0:
            if s > u_max:
                run += 1
                if run >= zero_run:
                    return (total_e, total_o)
        else:
            run = 0
    raise StabilizationError(
        "strand scan hit the degree cap without settling (non-isolated input or cap too low)"
    )


def _truncated_operator_rows(mat: RMatrix, src_basis, tgt_index, field):
    """Rows (one per source basis vector) of the multiplication operator.

    Basis vectors are (matrix index, monomial) pairs. Products that land
    outside `tgt_index` (above a degree truncation, or off a strand) are
    dropped, so the target basis alone sets the truncation.
    """
    rows = []
    for i, mono in src_basis:
        vec: dict = {}
        for j in range(mat.rows):
            entry = mat.entries[j][i]
            if entry.is_zero():
                continue
            for exp, coeff in entry.terms.items():
                col = tgt_index.get((j, tuple(a + b for a, b in zip(mono, exp))))
                if col is not None:
                    accumulate(vec, col, coeff, field)
        rows.append(vec)
    return rows


def _level_data(c: Z2Complex, cap):
    """Bases and truncated differentials of C tensor R/m^(cap+1)."""
    n = c.ctx.n_vars
    monos = monomial_basis(n, cap)
    basis_e = [(i, m) for i in range(c.even_rank) for m in monos]
    basis_o = [(j, m) for j in range(c.odd_rank) for m in monos]
    idx_e = {bv: i for i, bv in enumerate(basis_e)}
    idx_o = {bv: i for i, bv in enumerate(basis_o)}
    field = c.ctx.field
    rows_eo = _truncated_operator_rows(c.d_even_to_odd, basis_e, idx_o, field)
    rows_oe = _truncated_operator_rows(c.d_odd_to_even, basis_o, idx_e, field)
    return basis_e, basis_o, rows_eo, rows_oe


def _induced_rank(z_rows_hi, hi_basis, lo_index, b_rows_lo, field):
    """Rank of (projected cycles + boundaries) / boundaries."""
    proj = []
    for row in z_rows_hi:
        vec = {}
        for hi_col, v in row.items():
            lo_col = lo_index.get(hi_basis[hi_col])
            if lo_col is not None:
                vec[lo_col] = v
        proj.append(vec)
    rank_b = rank_sparse([dict(r) for r in b_rows_lo], field)
    rank_all = rank_sparse(proj + [dict(r) for r in b_rows_lo], field)
    return rank_all - rank_b


def _two_cap_dims(c: Z2Complex, n_lo):
    field = c.ctx.field
    n_hi = 2 * n_lo
    be_hi, bo_hi, eo_hi, oe_hi = _level_data(c, n_hi)
    be_lo, bo_lo, eo_lo, oe_lo = _level_data(c, n_lo)
    idx_e_lo = {bv: i for i, bv in enumerate(be_lo)}
    idx_o_lo = {bv: i for i, bv in enumerate(bo_lo)}

    # cycles at the high level: kernel of the operator (rows are images, so
    # transpose into column form for the nullspace computation)
    def cycles(rows_hi, src_dim, tgt_dim):
        dense_cols = [[field.zero] * src_dim for _ in range(tgt_dim)]
        for src, r in enumerate(rows_hi):
            for tgt, v in r.items():
                dense_cols[tgt][src] = v
        return nullspace_dense(dense_cols, src_dim, field)

    z_even = cycles(eo_hi, len(be_hi), len(bo_hi))
    z_odd = cycles(oe_hi, len(bo_hi), len(be_hi))

    def as_sparse(vecs):
        return [{i: v for i, v in enumerate(vec) if v != field.zero} for vec in vecs]

    h_even = _induced_rank(as_sparse(z_even), be_hi, idx_e_lo, oe_lo, field)
    h_odd = _induced_rank(as_sparse(z_odd), bo_hi, idx_o_lo, eo_lo, field)
    return (h_even, h_odd)


def _two_cap_cohomology(c: Z2Complex, cap):
    max_deg = 0
    for mat in (c.d_even_to_odd, c.d_odd_to_even):
        for row in mat.entries:
            for e in row:
                max_deg = max(max_deg, e.total_degree())
    n = max(2, 2 * (max_deg + 1))
    while n <= cap:
        d1 = _two_cap_dims(c, n)
        d2 = _two_cap_dims(c, n + 1)
        if d1 == d2:
            return d1
        n *= 2
    raise StabilizationError(
        "no stabilization before the cap (non-isolated input or cap too low)"
    )


def cohomology_over_R(c: Z2Complex, n_max=None):
    """k-dimensions of (even, odd) cohomology of an untwisted 2-periodic complex.

    Requires finite-dimensional cohomology, which holds for morphism
    complexes of factorizations of an isolated singularity. Entries are
    read as polynomial representatives: the computation happens over the
    full local ring even when the context carries a truncation.
    """
    if c.twist is not None:
        raise PreconditionError("cohomology over R requires an untwisted complex")
    cap = stabilization_cap(n_max)
    graded = detect_grading(c)
    if graded is not None:
        u_even, u_odd, delta = graded
        return _strand_cohomology(c, u_even, u_odd, delta, cap)
    return _two_cap_cohomology(c, cap)

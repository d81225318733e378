"""Morphism complexes and exact cohomology engines.

A 2-periodic complex is a factorization of 0: `psi` is d even->odd, `phi`
is d odd->even, and `rank` is the rank of either parity. Morphism
complexes, folded Koszul complexes and kernel-action complexes are all
`MatrixFactorization`s over the zero potential, so one d^2 = w check
(`verify_mf`) serves factorizations and complexes alike.

Two exact routes compute k-dimensions of cohomology over the local ring:

  * strand route: when the differential is homogeneous for some internal
    grading (detected automatically), the complex splits into finite
    strands and each contributes an exact rank computation;
  * projective-limit route: otherwise the dimensions are recovered as the
    dimension of the image of H(C/m^(2n+1)) in H(C/m^(n+1)), which kills
    the spurious classes a single truncation would manufacture at its
    boundary; per parity and level it is three sparse ranks of the level
    differentials (`_two_cap_dims`).

Both stop below the configurable cap (env MFCAT_NMAX, default 64), by a rule
that is assumed, not proven: a long run of empty strands, or two-cap levels
n and n+1 that agree.
"""

from __future__ import annotations

import os
from fractions import Fraction
from operator import add

from .errors import InputParseError, PreconditionError, StabilizationError, VerificationError
from .factorization import MatrixFactorization, MFMorphism, RMatrix, _tensor_blocks, cone, dual
from .linalg import rank_dense, rank_sparse
from .series import Series, monomial_basis, monomials_of_degree

DEFAULT_STABILIZATION_CAP = 64


def stabilization_cap() -> int:
    env = os.environ.get("MFCAT_NMAX")
    if not env:
        return DEFAULT_STABILIZATION_CAP
    try:
        cap = int(env)
    except ValueError as exc:
        raise InputParseError(f"MFCAT_NMAX must be an integer, got {env!r}") from exc
    if cap <= 0:
        raise InputParseError(f"MFCAT_NMAX must be a positive integer, got {env!r}")
    return cap


def cohomology_mod_k(mf: MatrixFactorization):
    """k-dimensions of the (even, odd) cohomology of k (x) X, the
    constant-term reduction, which is a complex iff w lies in m."""
    field = mf.ctx.field
    d_eo, d_oe = mf.psi.residue_matrix(), mf.phi.residue_matrix()
    for left, right in ((d_oe, d_eo), (d_eo, d_oe)):
        for row in left:
            for j in range(mf.rank):
                acc = field.zero
                for k, a in enumerate(row):
                    acc = field.add(acc, field.mul(a, right[k][j]))
                if acc != field.zero:
                    raise VerificationError("reduction is not a complex")
    r = rank_dense(d_eo, field) + rank_dense(d_oe, field)
    return (mf.rank - r, mf.rank - r)


def is_quasi_iso(f: MFMorphism) -> bool:
    """A closed even morphism is invertible up to homotopy iff its cone is
    contractible, i.e. iff the reduction of the cone is acyclic."""
    return cohomology_mod_k(cone(f)) == (0, 0)


# -- morphism complexes --------------------------------------------------------


def hom_complex(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Morphism complex Hom(X, Y) = Y (x) dual(X), a factorization of w - w = 0,
    with D(f) = d_Y f - (-1)^|f| f d_X.

    Even basis blocks: Hom(X0,Y0) ++ Hom(X1,Y1); odd: Hom(X0,Y1) ++ Hom(X1,Y0),
    each block row-major, which is the tensor basis order with Y first.
    """
    if x.ctx != y.ctx:
        raise PreconditionError("hom complex needs a shared context")
    if x.potential != y.potential:
        raise PreconditionError("hom complex needs a shared potential")
    xd = dual(x)
    phi, psi = _tensor_blocks(y.phi, y.psi, xd.phi, xd.psi, x.ctx, y.rank, x.rank)
    return MatrixFactorization(x.ctx, Series.zero(x.ctx), phi, psi)


def scalar_action_nullhomotopy(x: MatrixFactorization, y: MatrixFactorization, k: int) -> bool:
    """Exact check that d/dx_k of the potential acts null-homotopically on Hom(X, Y).

    The homotopy is left composition with the entrywise x_k-derivative of
    d_Y, i.e. (d/dx_k d_Y) (x) id on Y (x) dual(X); verifying
    D h + h D = (dw/dx_k) id symbolically proves the induced map on
    cohomology over R is zero.
    """
    c = hom_complex(x, y)
    ctx = x.ctx
    dphi = y.phi.map_entries(lambda e: e.partial_derivative(k))
    dpsi = y.psi.map_entries(lambda e: e.partial_derivative(k))
    zero = RMatrix.zero(ctx, x.rank, x.rank)
    hoe, heo = _tensor_blocks(dphi, dpsi, zero, zero, ctx, y.rank, x.rank)
    dw = x.potential.partial_derivative(k)
    dw_id = RMatrix.scalar(ctx, c.rank, dw)
    return c.phi * heo + hoe * c.psi == dw_id and c.psi * hoe + heo * c.phi == dw_id


# -- exact cohomology over the ring --------------------------------------------


def detect_grading(c: MatrixFactorization):
    """Internal degrees making d homogeneous, or None.

    Returns (u_even, u_odd, delta): Fractions such that a basis vector i
    carrying a ring monomial of degree g sits in strand 2g + u_i, and the
    differential raises the strand by delta. Entry degrees are read from the
    `_column_terms` of d; None as soon as an entry mixes two degrees.
    """
    n_e = c.rank
    # nodes: 0..n_e-1 even, n_e..2n_e-1 odd; value = a + b*delta
    total = 2 * n_e
    assign: list = [None] * total
    adj: dict = {}
    for src_off, dst_off, mat in ((0, n_e, c.psi), (n_e, 0, c.phi)):
        degrees: dict = {}
        for i, terms in enumerate(_column_terms(mat)):
            for j, exp, _ in terms:
                g = sum(exp)
                if degrees.setdefault((i, j), g) != g:
                    return None
        for (i, j), g in degrees.items():
            # u_target = u_source + delta - 2g
            adj.setdefault(src_off + i, []).append((dst_off + j, g, 1))
            adj.setdefault(dst_off + j, []).append((src_off + i, g, -1))
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
    u = [Fraction(0) if ab is None else ab[0] + ab[1] * delta for ab in assign]
    return u[:n_e], u[n_e:], delta


class _StrandRanks:
    """Ranks of the degree-restricted differentials, cached per strand."""

    def __init__(self, c: MatrixFactorization, u_even, u_odd, delta):
        self.u_even = u_even
        self.u_odd = u_odd
        self.delta = delta
        self.n = c.ctx.n_vars
        self.field = c.ctx.field
        self._columns = (_column_terms(c.psi), _column_terms(c.phi))
        self._monomials: dict = {}
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
            monos = self._monomials.get(g)
            if monos is None:
                monos = self._monomials[g] = monomials_of_degree(self.n, g)
            for mono in monos:
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
        columns = self._columns[parity_src]
        r = rank_sparse(_truncated_operator_rows(columns, src, tgt_index), self.field)
        self._rank_cache[key] = r
        return r


def _strand_cohomology(c: MatrixFactorization, u_even, u_odd, delta, cap):
    ranks = _StrandRanks(c, u_even, u_odd, delta)
    all_u = list(u_even) + list(u_odd)
    if not all_u:
        return (0, 0)
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


def _column_terms(mat: RMatrix):
    """Per column i of `mat`, the list of nonzero terms (j, exp, coeff): one
    for each monomial x^exp with coefficient coeff in the entry mat[j][i]."""
    columns = [[] for _ in range(mat.cols)]
    for j, row in enumerate(mat.entries):
        for i, entry in enumerate(row):
            for exp, coeff in entry.terms.items():
                columns[i].append((j, exp, coeff))
    return columns


def _truncated_operator_rows(columns, src_basis, tgt_index):
    """Rows of the multiplication operator of a matrix over R, one
    {target column: coefficient} dict per source basis vector.

    Basis vectors are (matrix index, monomial) pairs, and `columns` is the
    matrix as `_column_terms` gives it. The source vector (i, mono) goes to
    coeff at (j, mono + exp) for each term (j, exp, coeff) of column i.
    These targets are pairwise distinct, since (j, exp) is distinct over the
    terms and mono is fixed, so each is set once and nothing is summed.
    Targets outside `tgt_index` (above a degree truncation, or off a strand)
    are dropped, so the target basis alone sets the truncation.
    """
    rows = []
    for i, mono in src_basis:
        vec: dict = {}
        for j, exp, coeff in columns[i]:
            col = tgt_index.get((j, tuple(map(add, mono, exp))))
            if col is not None:
                vec[col] = coeff
        rows.append(vec)
    return rows


def _level_data(c: MatrixFactorization, cap):
    """Basis (shared by both parities) and truncated differentials of
    C tensor R/m^(cap+1)."""
    monos = monomial_basis(c.ctx.n_vars, cap)
    basis = [(i, m) for i in range(c.rank) for m in monos]
    index = {bv: i for i, bv in enumerate(basis)}
    rows_eo = _truncated_operator_rows(_column_terms(c.psi), basis, index)
    rows_oe = _truncated_operator_rows(_column_terms(c.phi), basis, index)
    return basis, rows_eo, rows_oe


def _two_cap_dims(c: MatrixFactorization, n_lo):
    """(even, odd) dims of the image of H(C/m^(2n+1)) in H(C/m^(n+1)), n = n_lo.

    Per parity, let D_hi be the differential out of level 2n, pi the
    truncation to level n ((i, m) -> (i, m) if deg m <= n, else 0), D_high
    the rows of D_hi on the basis vectors of degree > n (those vectors span
    ker pi), B_lo the image of the incoming differential at level n, and
    N_lo the size of the level-n basis. The image is (pi(ker D_hi) + B_lo)/B_lo,
    and
        dim (pi(ker D_hi) + B_lo)/B_lo = N_lo - rank D_hi + rank D_high - rank B_lo.
    Proof: ker D_hi & ker pi = ker D_high, so dim pi(ker D_hi) =
    (N_hi - rank D_hi) - (N_high - rank D_high), and N_hi - N_high = N_lo.
    B_lo lies in pi(ker D_hi): for a level-n chain b, let v be d b truncated
    at level 2n. Since d never lowers degree and d^2 = 0, D_hi v is d^2 b
    truncated at level 2n, which is 0, and pi v is b's image in B_lo.
    """
    field = c.ctx.field
    basis_hi, eo_hi, oe_hi = _level_data(c, 2 * n_lo)
    basis_lo, eo_lo, oe_lo = _level_data(c, n_lo)

    def image_dim(d_hi, b_lo):
        # rank_sparse consumes its rows, so D_high gets copies
        high = [dict(r) for (_, mono), r in zip(basis_hi, d_hi) if sum(mono) > n_lo]
        return (
            len(basis_lo)
            - rank_sparse(d_hi, field)
            + rank_sparse(high, field)
            - rank_sparse(b_lo, field)
        )

    return (image_dim(eo_hi, oe_lo), image_dim(oe_hi, eo_lo))


def _two_cap_cohomology(c: MatrixFactorization, cap):
    max_deg = 0
    for mat in (c.psi, c.phi):
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


def cohomology_over_R(c: MatrixFactorization):
    """k-dimensions of (even, odd) cohomology of a 2-periodic complex, i.e. of
    a factorization of 0.

    Requires finite-dimensional cohomology, which holds for morphism
    complexes of factorizations of an isolated singularity, and assumes
    d^2 = 0 without checking it: the strand count dim - rank - rank and the
    two-cap rank formula both rely on it. Entries are polynomials; the strand
    and level truncations below reach the local ring.
    """
    if not c.potential.is_zero():
        raise PreconditionError("cohomology over R requires a factorization of 0")
    cap = stabilization_cap()
    graded = detect_grading(c)
    if graded is not None:
        u_even, u_odd, delta = graded
        return _strand_cohomology(c, u_even, u_odd, delta, cap)
    return _two_cap_cohomology(c, cap)

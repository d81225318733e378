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

Both stay below the configurable cap (env MFCAT_NMAX, default 64). The strand
scan of a morphism complex Hom(X, Y) (`hom_cohomology`) has a proven end when
the potential w is homogeneous of the grading's step delta and certified
isolated by (R/(dw))_{n(delta-2)+1} = 0: graded Serre duality puts every class
at or below the strand u_max + n(delta - 2) (`_serre_stop`). The folded Koszul
complex of the partials has a proven end too (`hochschild._koszul_stop`).
Every other stop is assumed, not proven: the strand scan of any other graded
complex, such as the kernel-action complex of `transform`, or of a Hom whose
potential fails the preconditions, ends after a long run of empty strands;
and the two-cap route ends when levels n and n+1 agree.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from operator import add

from .errors import InputParseError, PreconditionError, StabilizationError, VerificationError
from .factorization import MatrixFactorization, MFMorphism, RMatrix, _tensor_blocks, cone, dual
from .linalg import rank_sparse
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
    r = sum(
        rank_sparse([{j: a for j, a in enumerate(row) if a != field.zero} for row in d], field)
        for d in (d_eo, d_oe)
    )
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


_UNSETTLED = "strand scan hit the degree cap without settling (non-isolated input or cap too low)"


def _strand_dims(c: MatrixFactorization, u_even, u_odd, delta, cap, stop=None):
    """(s, even, odd): the cohomology dimensions of each strand s, in increasing s.

    With `stop`, exactly the strands s <= stop are visited; a stop past the
    cap's last strand 2*cap + u_max is a StabilizationError. Without one, the
    scan ends after a long run of empty strands past the largest shift, a rule
    that is assumed, not proven.
    """
    all_u = list(u_even) + list(u_odd)
    if not all_u:
        return
    ranks = _StrandRanks(c, u_even, u_odd, delta)
    # conservative: cover the differential's step and the spread of the
    # internal degrees before declaring the tail empty
    spread = int(max(all_u) - min(all_u))
    zero_run = max(12, 2 * int(abs(delta)) + 4, spread + 4)
    # candidate strand values: u + 2t and their delta-translates
    starts = sorted(set(all_u) | {u + delta for u in all_u} | {u - delta for u in all_u})
    u_max = max(all_u)
    s_cap = 2 * cap + u_max
    if stop is not None and stop > s_cap:
        raise StabilizationError(_UNSETTLED)
    svals = sorted({u + 2 * t for u in starts for t in range(int((s_cap - u) / 2) + 1)})
    run = 0
    for s in svals:
        if stop is not None and s > stop:
            return
        he = len(ranks.stratum(0, s)) - ranks.rank(0, s) - ranks.rank(1, s - delta)
        ho = len(ranks.stratum(1, s)) - ranks.rank(1, s) - ranks.rank(0, s - delta)
        yield s, he, ho
        if he or ho:
            run = 0
        elif s > u_max:
            run += 1
            if stop is None and run >= zero_run:
                return
    if stop is None:
        raise StabilizationError(_UNSETTLED)


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


def cohomology_over_R(c: MatrixFactorization, strand_stop=None):
    """k-dimensions of (even, odd) cohomology of a 2-periodic complex, i.e. of
    a factorization of 0.

    Requires finite-dimensional cohomology, which holds for morphism
    complexes of factorizations of an isolated singularity, and assumes
    d^2 = 0 without checking it: the strand count dim - rank - rank and the
    two-cap rank formula both rely on it. Entries are polynomials; the strand
    and level truncations below reach the local ring.

    `strand_stop(u_even, u_odd, delta)`, when given, returns the last strand
    that can carry cohomology under the grading found, or None; a strand scan
    with a stop visits exactly the strands up to it (see `hom_cohomology`).
    """
    if not c.potential.is_zero():
        raise PreconditionError("cohomology over R requires a factorization of 0")
    cap = stabilization_cap()
    graded = detect_grading(c)
    if graded is not None:
        stop = None if strand_stop is None else strand_stop(*graded)
        strands = list(_strand_dims(c, *graded, cap, stop))
        return (sum(s[1] for s in strands), sum(s[2] for s in strands))
    return _two_cap_cohomology(c, cap)


def hom_cohomology(x: MatrixFactorization, y: MatrixFactorization):
    """k-dimensions of (even, odd) H(Hom(X, Y)) over R: `cohomology_over_R`
    of `hom_complex(x, y)`, with the strand scan ended by graded Serre
    duality where it applies (`_serre_stop`)."""
    return cohomology_over_R(hom_complex(x, y), partial(_serre_stop, x.potential))


def _serre_stop(w: Series, u_even, u_odd, delta):
    """Last strand of Hom(X, Y) that can carry cohomology, u_max + n(delta - 2),
    or None when the proof below does not apply.

    It applies when w is homogeneous of degree delta >= 2 (the step of the
    grading found) and (R/(dw))_{n(delta-2)+1} = 0, which certifies that w
    has an isolated singularity (`_certified_top_degree`); n is the number of
    variables and u_max the largest shift of the grading.

    Proof. A strand-s element m e_ij of Hom(X, Y), with monomial m of degree
    g, is a map of degree s = u_ij + 2g between graded X and Y. First let X
    and Y be graded (basis degrees a_j and b_i, d of degree delta, variables
    of degree 2, w of degree 2 delta) and u_ij = b_i - a_j. Graded Serre
    duality for the isolated hypersurface singularity (Auslander-Reiten
    duality; Murfet, arXiv:0912.1629) gives
        H(Hom(X, Y))_t = H(Hom(Y, X))^dual_{n(delta-2)-t},
    with the parity shifted by n: the Kapustin-Li pairing
    Res[str(d_1 d_X ... d_n d_X f g) dx / d_1 w ... d_n w] is nondegenerate,
    each d_i d_X has degree delta - 2, and the residue is nonzero only in the
    Hessian degree 2n(delta - 2). Hom(Y, X) has its chains in strands
    2g - u_ij >= -u_max, so H(Hom(X, Y))_t = 0 for t > u_max + n(delta - 2).
    In general `detect_grading` normalizes each component of the basis graph
    of Hom(X, Y) on its own. X is the direct sum of the factorizations X_a
    spanned by the components of its own basis graph (d_X has no entry
    between two of them), likewise Y = sum Y_b, and every component of
    Hom's graph is Hom(X_a, Y_b). Every entry of d_X and d_Y is an entry of
    Hom's differential, so each is homogeneous (or no grading is found), and
    the grading found, read along the X- and the Y-edges, grades X_a by some
    a and Y_b by some b. On Hom(X_a, Y_b) it then differs from b_i - a_j by a
    constant c, so it is the grading of Hom(X_a, Y_b + c) and the argument
    applies to each component, whose largest shift is at most u_max. The bound
    is sharp: End of the node (x^20, x^20) of x^40 has a class in strand
    38 = u_max + n(delta - 2).
    """
    if w.is_zero() or delta < 2 or any(sum(exp) != delta for exp in w.terms):
        return None
    top = _certified_top_degree([w.partial_derivative(i) for i in range(w.ctx.n_vars)])
    return None if top is None else max(list(u_even) + list(u_odd)) + top


def _certified_top_degree(gens):
    """sum(deg g - 1) over n nonzero homogeneous gens in n variables when
    R/(gens) is certified finite-dimensional, else None.

    The certificate is (R/(gens))_{top+1} = 0, one sparse rank. It makes
    R/(gens) finite: the ideal is homogeneous, so every degree above top+1 is
    a multiple of degree top+1. Then the gens generate an m-primary ideal, so
    they form a regular sequence, R/(gens) has Hilbert series
    prod (1 - t^deg g) / (1 - t)^n, and top is its top degree. For the
    partials of a homogeneous w of degree D, top = n(D - 2).
    """
    ctx = gens[0].ctx
    degrees = []
    for g in gens:
        degs = {sum(exp) for exp in g.terms}
        if len(degs) != 1:
            return None
        degrees.append(degs.pop())
    if len(gens) != ctx.n_vars or min(degrees) < 1:
        return None
    top = sum(e - 1 for e in degrees)
    src = [(i, m) for i, e in enumerate(degrees) for m in monomials_of_degree(ctx.n_vars, top + 1 - e)]
    return top if _quotient_dim(gens, src, monomials_of_degree(ctx.n_vars, top + 1)) == 0 else None


def _quotient_dim(gens, src, target):
    """dim of R/(gens) on the monomial window `target`: len(target) minus the
    rank of the products m * gens[i], (i, m) in src, with the terms outside
    the window dropped."""
    ctx = gens[0].ctx
    index = {(0, m): i for i, m in enumerate(target)}
    rows = _truncated_operator_rows(_column_terms(RMatrix(ctx, [list(gens)])), src, index)
    return len(target) - rank_sparse(rows, ctx.field)

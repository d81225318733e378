"""Morphism complexes and exact cohomology engines.

A 2-periodic complex is a factorization of 0: `psi` is d even->odd, `phi`
is d odd->even, and `rank` is the rank of either parity. Morphism
complexes (an integral transform's too, see `transform`) and folded Koszul
complexes are `MatrixFactorization`s over the zero potential, so one d^2 = w
check (`verify_mf`) serves factorizations and complexes alike.

Two exact routes compute k-dimensions of cohomology over the local ring:

  * strand route: when the differential is homogeneous for some internal
    grading (`detect_grading`), the complex splits into finite strands and
    each contributes an exact rank computation. Shifts, step and strands are
    `int`s, which they always are for factorizations of w != 0;
  * projective-limit route: otherwise the dimensions are recovered as the
    dimension of the image of H(C/m^(2n+1)) in H(C/m^(n+1)), which kills
    the spurious classes a single truncation would manufacture at its
    boundary (`_two_cap_dims`). Its ranks for n and n + 1 are all blocks of
    the level-(2n+2) differential, and one `echelon` per parity per doubling
    step gives them all (`_level_profile`).

Both stay below the configurable cap (env MFCAT_NMAX, default 64), and
`_cohomology` is the one place where the route and the stop are chosen.
The engines read a complex as the column terms its matrices hold, paired
by source parity (`factorization._columns`). Levels are read one way: as
prefix blocks of one `echelon`. The reduction k (x) C of `cohomology_mod_k`
is level 0 of `_level_profile`, and the quotients R/(J + m^(L+1)) and
R/(J + (w) + m^(L+1)), J the Jacobian ideal, every L <= top at once, are
the prefixes of one echelon of the level-top products, row prefixes
included (`_quotient_levels`). A morphism complex
Hom(X, Y) (`hom_cohomology`) has its column terms placed from those of Y and
dual(X) (`_hom_columns`), so no Hom-sized matrix is built, and it is graded
from gradings of X and Y, u_ij = b_i - a_j (`_hom_grading`), not by grading
its own basis. Its strand scan has a proven
end when the potential w is homogeneous of the grading's step delta and
certified isolated by (R/(dw))_{n(delta-2)+1} = 0: graded Serre duality puts
every class at or below the strand u_max + n(delta - 2) (`_serre_stop`).
Under the same conditions End(X) is scanned only up to its center
n(delta - 2)/2, and each strand below the center is counted again for its
mirror (proof in `hom_cohomology`); Hom(X, Y) with X != Y is scanned in full.
The folded Koszul complex of the partials has a proven end too
(`hochschild._koszul_stop`). Every other stop is assumed, not proven: the
strand scan of any other graded complex, such as a Hom whose potential fails
the preconditions, ends after a long run of empty strands; and the two-cap
route ends when levels n and n+1 agree.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from heapq import merge
from itertools import count
from math import comb
from operator import add

from .errors import InputParseError, PreconditionError, StabilizationError, VerificationError
from .factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    _columns,
    _tensor_columns,
    cone,
    dual,
)
from .linalg import echelon, rank_sparse
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
    constant-term reduction, which is a complex iff w lies in m, that is iff
    the residue parts of psi and phi compose to 0 both ways. It is level 0
    of `_level_profile`, and its rank is that profile's pivot count: the
    clearing there needs C/m to be a complex, which the check above proves.
    """
    ctx = mf.ctx
    const = (0,) * ctx.n_vars
    psi0, phi0 = (
        RMatrix.from_columns(ctx, mf.rank, [[t for t in col if t[1] == const] for col in m.columns])
        for m in (mf.psi, mf.phi)
    )
    if not ((phi0 * psi0).is_zero() and (psi0 * phi0).is_zero()):
        raise VerificationError("reduction is not a complex")
    r = sum(map(len, _level_profile(ctx, _columns(mf), 0)[1]))
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
    psi, phi = (RMatrix.from_columns(x.ctx, len(cols), cols) for cols in _hom_columns(x, y))
    return MatrixFactorization(x.ctx, Series.zero(x.ctx), phi, psi)


def _hom_columns(x: MatrixFactorization, y: MatrixFactorization):
    """The column terms of `hom_complex(x, y)`, placed from those of Y and
    dual(X) without building Hom's matrices."""
    if x.ctx != y.ctx:
        raise PreconditionError("hom complex needs a shared context")
    if x.potential != y.potential:
        raise PreconditionError("hom complex needs a shared potential")
    return _tensor_columns(_columns(y), _columns(dual(x)), y.rank, x.rank, x.ctx.field)


def scalar_action_nullhomotopy(x: MatrixFactorization, y: MatrixFactorization, k: int) -> bool:
    """Exact check that d/dx_k of the potential acts null-homotopically on Hom(X, Y).

    The homotopy is left composition with the entrywise x_k-derivative of
    d_Y, i.e. (d/dx_k d_Y) (x) id on Y (x) dual(X); verifying
    D h + h D = (dw/dx_k) id symbolically proves the induced map on
    cohomology over R is zero.
    """
    c = hom_complex(x, y)
    ctx = x.ctx
    derivative = lambda e: e.partial_derivative(k)
    dy = tuple(m.map_entries(derivative).columns for m in (y.psi, y.phi))
    no_x = [[]] * x.rank
    h = _tensor_columns(dy, (no_x, no_x), y.rank, x.rank, ctx.field)
    heo, hoe = (RMatrix.from_columns(ctx, len(cols), cols) for cols in h)
    dw = x.potential.partial_derivative(k)
    dw_id = RMatrix.scalar(ctx, c.rank, dw)
    return c.phi * heo + hoe * c.psi == dw_id and c.psi * hoe + heo * c.phi == dw_id


# -- exact cohomology over the ring --------------------------------------------


def detect_grading(c: MatrixFactorization):
    """Internal degrees making d homogeneous, or None.

    Returns (u_even, u_odd, delta) such that a basis vector i carrying a ring
    monomial of degree g sits in strand 2g + u_i, and the differential raises
    the strand by delta. Entry degrees are read from the column terms of d;
    None as soon as an entry mixes two degrees. `c` may be any factorization,
    not only a complex.

    The shifts and the step are `int`s whenever the step is. That always holds
    for a factorization of w != 0: d^2 = w id puts every basis vector on a
    2-cycle i -> j -> i of entry degrees g1 and g2, which forces
    delta = g1 + g2. A `Fraction` step is left only where a cycle forces a
    non-integral one, which can happen only in a complex of 0. Each component
    of the basis graph has its first node at 0, and a step that no cycle
    forces is 0.
    """
    n_e = c.rank
    # nodes: 0..n_e-1 even, n_e..2n_e-1 odd; value = a + b*delta with int a, b
    total = 2 * n_e
    assign: list = [None] * total
    adj: dict = {}
    for src_off, dst_off, mat in ((0, n_e, c.psi), (n_e, 0, c.phi)):
        degrees: dict = {}
        for i, terms in enumerate(mat.columns):
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
        if d.denominator == 1:
            d = d.numerator
        if delta is None:
            delta = d
            return True
        return delta == d

    for start in range(total):
        if assign[start] is not None or start not in adj:
            continue
        assign[start] = (0, 0)
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
        delta = 0
    u = [0 if ab is None else ab[0] + ab[1] * delta for ab in assign]
    return u[:n_e], u[n_e:], delta


def _hom_grading(x: MatrixFactorization, y: MatrixFactorization):
    """Grading of `hom_complex(x, y)` from gradings of the objects, or None.

    With X graded by shifts a and Y by shifts b, both with step delta, the
    basis vector e_i (x) e_j^* of Hom(X, Y) gets the shift u_ij = b_i - a_j,
    and D(f) = d_Y f -+ f d_X raises it by delta. The blocks follow
    `hom_complex`'s basis order. If X or Y is ungraded, or their steps
    differ, Hom is ungraded: every entry of d_X and of d_Y is an entry of
    Hom's differential. End(X), with `y is x`, grades X once.
    """
    gx = detect_grading(x)
    gy = gx if y is x else detect_grading(y)
    if gx is None or gy is None or gx[2] != gy[2]:
        return None
    (a0, a1, delta), (b0, b1, _) = gx, gy

    def block(b, a):
        return [bi - aj for bi in b for aj in a]

    return block(b0, a0) + block(b1, a1), block(b1, a0) + block(b0, a1), delta


_UNSETTLED = "strand scan hit the degree cap without settling (non-isolated input or cap too low)"


def _strand_dims(ctx, columns, u_even, u_odd, delta, cap, stop=None):
    """(s, even, odd): the cohomology dimensions of each strand s, in increasing s.

    With `stop`, exactly the strands s <= stop are visited; a stop past the
    cap's last strand 2*cap + u_max is a StabilizationError. Without one, the
    scan ends after a long run of empty strands past the largest shift, a rule
    that is assumed, not proven. The strands are u + 2t, t >= 0, for u a shift
    or a shift -+ delta (the strands a differential reaches), produced lazily
    in increasing order up to the last one visited. `columns` is the complex
    over `ctx` as `_columns` gives it.
    """
    all_u = list(u_even) + list(u_odd)
    if not all_u:
        return
    field, shifts = ctx.field, (u_even, u_odd)
    monomials = cache(partial(monomials_of_degree, ctx.n_vars))

    @cache
    def stratum(parity, s):
        """The basis (i, mono) of strand s of the parity: u_i + 2 deg mono = s."""
        return [
            (i, m) for i, u in enumerate(shifts[parity]) if s >= u and (s - u) % 2 == 0
            for m in monomials((s - u) // 2)
        ]

    @cache
    def rank(parity, s):
        """Rank of d restricted to the (parity, s) stratum."""
        src = stratum(parity, s)
        if not src:
            return 0
        tgt_index = {bv: idx for idx, bv in enumerate(stratum(1 - parity, s + delta))}
        return rank_sparse(list(_truncated_operator_rows(columns[parity], src, tgt_index)), field)

    # conservative: cover the differential's step and the spread of the
    # internal degrees before declaring the tail empty
    spread = int(max(all_u) - min(all_u))
    zero_run = max(12, 2 * int(abs(delta)) + 4, spread + 4)
    u_max = max(all_u)
    s_cap = 2 * cap + u_max
    if stop is not None and stop > s_cap:
        raise StabilizationError(_UNSETTLED)
    # the lowest candidate of each class mod 2 starts that class's strands
    first: dict = {}
    for u in all_u:
        for v in (u - delta, u, u + delta):
            if first.get(v % 2, v) >= v:
                first[v % 2] = v
    run = 0
    for s in merge(*(count(v, 2) for v in first.values())):
        if s > s_cap or (stop is not None and s > stop):
            break
        he = len(stratum(0, s)) - rank(0, s) - rank(1, s - delta)
        ho = len(stratum(1, s)) - rank(1, s) - rank(0, s - delta)
        yield s, he, ho
        if he or ho:
            run = 0
        elif s > u_max:
            run += 1
            if stop is None and run >= zero_run:
                return
    if stop is None:
        raise StabilizationError(_UNSETTLED)


def _truncated_operator_rows(columns, src_basis, tgt_index):
    """Rows of the multiplication operator of a matrix over R, one
    {target column: coefficient} dict per source basis vector, yielded one
    at a time so that `echelon` can drop each as soon as it is reduced.

    Basis vectors are (matrix index, monomial) pairs, and `columns` is the
    matrix's `RMatrix.columns`. The source vector (i, mono) goes to
    coeff at (j, mono + exp) for each term (j, exp, coeff) of column i.
    These targets are pairwise distinct, since (j, exp) is distinct over the
    terms and mono is fixed, so each is set once and nothing is summed.
    Targets outside `tgt_index` (above a degree truncation, or off a strand)
    are dropped, so the target basis alone sets the truncation.
    """
    for i, mono in src_basis:
        vec: dict = {}
        for j, exp, coeff in columns[i]:
            col = tgt_index.get((j, tuple(map(add, mono, exp))))
            if col is not None:
                vec[col] = coeff
        yield vec


def _level_basis(ctx, columns, cap):
    """The basis (i, m), deg m <= cap, of C tensor R/m^(cap+1), shared by both
    parities, and its index. It is degree-major: the vectors with deg m <= L
    are its first rank * C(n + L, n), for every L <= cap."""
    basis = [(i, m) for m in monomial_basis(ctx.n_vars, cap) for i in range(len(columns[0]))]
    return basis, {bv: k for k, bv in enumerate(basis)}


def _level_profile(ctx, columns, top):
    """What `_two_cap_dims` reads at every n with 2n <= top (and, at top 0,
    `cohomology_mod_k` reads as its rank): the sizes N_L of
    the levels L <= top (the vectors of degree <= L) and, per parity, the
    `echelon` pivots (row, column) of the level-`top` differential D_top,
    with its rows taken from the highest degree down and named by their
    index in `_level_basis`.

    The odd rows at the even pivot columns are left out (the clearing of
    Chen-Kerber, "Persistent homology computation with a twist", 2011):
    they would reduce to 0. Proof: the reduced even row with pivot i is D(s)
    for some even chain s, so D(s) = a e_i + (vectors of index > i) with
    a != 0. Since D D(s) = 0 (C/m^(top+1) is a complex: for a factorization
    of 0 always, and at top 0 when w lies in m), the odd row of e_i
    is a combination of the odd rows of index > i, which come before it.
    """
    basis, index = _level_basis(ctx, columns, top)
    pivots, cleared = [], set()
    for cols in columns:
        ids = [k for k in range(len(basis) - 1, -1, -1) if k not in cleared]
        rows = _truncated_operator_rows(cols, [basis[k] for k in ids], index)
        pivots.append([(ids[r], col) for r, col in echelon(rows, ctx.field)])
        cleared = {col for _, col in pivots[-1]}
    n = ctx.n_vars
    return [len(columns[0]) * comb(n + level, n) for level in range(top + 1)], pivots


def _two_cap_dims(profile, n_lo):
    """(even, odd) dims of the image of H(C/m^(2n+1)) in H(C/m^(n+1)), n = n_lo,
    read off `profile`, the `_level_profile` of a level T >= 2n.

    Per parity, let D_hi be the differential out of level 2n, pi the
    truncation to level n ((i, m) -> (i, m) if deg m <= n, else 0), D_high
    the rows of D_hi on the basis vectors of degree > n (those vectors span
    ker pi), B_lo the image of the incoming differential at level n, and
    N_L the number of basis vectors of degree <= L. The image is
    (pi(ker D_hi) + B_lo)/B_lo, and
        dim (pi(ker D_hi) + B_lo)/B_lo = N_n - rank D_hi + rank D_high - rank B_lo.
    Proof: ker D_hi & ker pi = ker D_high, so dim pi(ker D_hi) =
    (N_2n - rank D_hi) - (N_2n - N_n - rank D_high). B_lo lies in
    pi(ker D_hi): for a level-n chain b, let v be d b truncated at level 2n.
    Since d never lowers degree and d^2 = 0, D_hi v is d^2 b truncated at
    level 2n, which is 0, and pi v is b's image in B_lo.

    Each rank is a block of D_T, the differential at level T. The basis is
    degree-major, so as rows and as columns the vectors of degree <= L are
    the first N_L. Multiplication never lowers degree, so a row of degree
    > L is 0 on the first N_L columns. Hence D at level L is D_T on its
    first N_L columns (the rows of degree > L add nothing there): D_hi is
    D_T on the first N_2n columns, D_high is D_T on its rows of degree > n
    and the first N_2n columns, and B_lo is the other parity's D_T on the
    first N_n columns. `echelon` took the rows of D_T from the highest
    degree down, so the rows of degree > n came first, and the rank of each
    block is the number of pivots in it (a cleared row has none). So
    rank D_hi - rank D_high is the number of pivots in rows of degree <= n
    and columns of degree <= 2n.
    """
    sizes, pivots = profile
    n_lo_size, n_hi_size = sizes[n_lo], sizes[2 * n_lo]

    def image_dim(own, other):
        return (
            n_lo_size
            - sum(1 for r, col in own if r < n_lo_size and col < n_hi_size)
            - sum(1 for _, col in other if col < n_lo_size)
        )

    return image_dim(pivots[0], pivots[1]), image_dim(pivots[1], pivots[0])


def _two_cap_cohomology(ctx, columns, cap):
    """The two-cap route: `_two_cap_dims` at n and n + 1, both read off one
    level-(2n+2) profile, from n = max(2, 2(maxdeg + 1)) doubling until they
    agree."""
    max_deg = max((sum(exp) for cols in columns for col in cols for _, exp, _ in col), default=0)
    n = max(2, 2 * (max_deg + 1))
    while n <= cap:
        profile = _level_profile(ctx, columns, 2 * n + 2)
        dims = _two_cap_dims(profile, n)
        if dims == _two_cap_dims(profile, n + 1):
            return dims
        n *= 2
    raise StabilizationError(
        "no stabilization before the cap (non-isolated input or cap too low)"
    )


def _cohomology(ctx, columns, graded, stop=None, mirror=False):
    """(even, odd) k-dims of H(C) over R, C a factorization of 0 over `ctx`
    given by its `_columns` and graded by `graded` (u_even, u_odd, delta) or
    None: the one place where the route and the stop are chosen.

    Ungraded, the two-cap route. Graded, the strands of `_strand_dims` up to
    `stop`; with `mirror` (End(X) under `_serre_stop`, proof in
    `hom_cohomology`), up to the center n(delta - 2)/2, each strand below it
    counted again for its mirror.
    """
    cap = stabilization_cap()
    if graded is None:
        return _two_cap_cohomology(ctx, columns, cap)
    n = ctx.n_vars
    top = n * (graded[2] - 2)
    if mirror:
        stop = top // 2
    even = odd = 0
    for s, he, ho in _strand_dims(ctx, columns, *graded, cap, stop):
        if mirror and 2 * s < top:
            # counted again at its mirror top - s, with parity shifted by n
            he, ho = (he + ho, ho + he) if n % 2 else (2 * he, 2 * ho)
        even += he
        odd += ho
    return even, odd


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
    graded = detect_grading(c)
    stop = None if graded is None or strand_stop is None else strand_stop(*graded)
    return _cohomology(c.ctx, _columns(c), graded, stop)


def hom_cohomology(x: MatrixFactorization, y: MatrixFactorization):
    """k-dimensions of (even, odd) H(Hom(X, Y)) over R, the cohomology of
    `hom_complex(x, y)`.

    Hom is graded from X and Y (`_hom_grading`), and takes the two-cap route
    when they are not graded alike. Graded, its strand scan ends at the Serre
    stop where that applies (`_serre_stop`), and then End(X) is read off its
    strands s <= n(delta - 2)/2 alone, each one below the center counted
    again for its mirror. Every other graded Hom is scanned until the run of
    empty strands of `cohomology_over_R`.

    Proof. Write N = n(delta - 2) and h^p_t for the dimension of the parity-p
    cohomology in strand t. The duality of `_serre_stop` with Y = X reads
    H(End(X))_t = H(End(X))^dual_{N-t}, parity shifted by n: the grading of
    Hom(Y, X) it uses is that of End(X) again, since both are a_i - a_j. So
    h^p_t = h^(p+n)_(N-t), and t -> N - t maps the strands above N/2 onto
    those below, whence
        sum_t h^p_t = sum_(t<N/2) (h^p_t + h^(p+n)_t) + h^p_(N/2),
    the last term only when N is even. Every strand that can carry a class
    is some a_i - a_j + 2g, so the scan up to N/2 meets all the t <= N/2.
    """
    columns = _hom_columns(x, y)
    graded = _hom_grading(x, y)
    stop = None if graded is None else _serre_stop(x.potential, *graded)
    return _cohomology(x.ctx, columns, graded, stop, mirror=stop is not None and x == y)


def _serre_stop(w: Series, u_even, u_odd, delta):
    """Last strand of Hom(X, Y) that can carry cohomology, u_max + n(delta - 2),
    or None when the proof below does not apply.

    It applies when w is homogeneous of degree delta >= 2 (the step of the
    grading) and (R/(dw))_{n(delta-2)+1} = 0, which certifies that w has an
    isolated singularity (`_certified_top_degree`); n is the number of
    variables and u_max the largest shift of the grading.

    Proof. X and Y are graded (basis degrees a_j and b_i, d of degree delta,
    variables of degree 2, w of degree 2 delta), and Hom(X, Y) has the shifts
    u_ij = b_i - a_j (`_hom_grading`). A strand-s element m e_ij of Hom(X, Y),
    with monomial m of degree g, is a map of degree s = u_ij + 2g. Graded
    Serre duality for the isolated hypersurface singularity (Auslander-Reiten
    duality; Murfet, arXiv:0912.1629) gives
        H(Hom(X, Y))_t = H(Hom(Y, X))^dual_{n(delta-2)-t},
    with the parity shifted by n: the Kapustin-Li pairing
    Res[str(d_1 d_X ... d_n d_X f g) dx / d_1 w ... d_n w] is nondegenerate,
    each d_i d_X has degree delta - 2, and the residue is nonzero only in the
    Hessian degree 2n(delta - 2). Hom(Y, X) has its chains in strands
    2g - u_ij >= -u_max, so H(Hom(X, Y))_t = 0 for t > u_max + n(delta - 2).
    The bound is sharp: End of the node (x^20, x^20) of x^40 has a class in
    strand 38 = u_max + n(delta - 2).
    """
    if w.is_zero() or delta < 2 or any(sum(exp) != delta for exp in w.terms):
        return None
    top = _certified_top_degree([w.partial_derivative(i) for i in range(w.ctx.n_vars)])
    return None if top is None else max(list(u_even) + list(u_odd)) + top


def _certified_top_degree(gens):
    """sum(deg g - 1) over n nonzero homogeneous gens in n variables when
    R/(gens) is certified finite-dimensional, else None.

    The certificate is (R/(gens))_{top+1} = 0, one `rank_sparse` of the
    products on that one graded window (reading it as a level of
    `_quotient_levels` would rank every degree up to top + 1). It makes
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
    target = monomials_of_degree(ctx.n_vars, top + 1)
    return top if rank_sparse(list(_product_rows(gens, src, target)), ctx.field) == len(target) else None


def _quotient_levels(partials, w, top):
    """[dim R/(J + m^(L+1)) for L = 0, ..., top] and the same list for
    J + (w), J the ideal of the `partials`, from one `echelon` of the
    products m * g truncated at degree `top`.

    The columns are the monomials of degree <= top, degree-major, so those of
    degree <= L are the first C(n + L, n). Every g lies in m, so a product of
    degree > L is 0 on these columns, and on them the products are exactly
    those of level L truncated at degree L. So the rank at level L is the
    rank of the first C(n + L, n) columns, the number of pivots in them
    (`echelon`), and dim_L is C(n + L, n) minus it. The rows m * g with
    deg m < top (those with deg m = top would vanish) come from the highest
    degree down, as `_level_profile` takes its rows: first those of every
    partial, then those of w. `echelon` takes the rows in order, so the
    pivots in the partials' rows are those of an echelon of theirs alone and
    give the dims of J, and all the pivots give those of J + (w).
    """
    n, field, k = w.ctx.n_vars, w.ctx.field, len(partials)
    monos = monomial_basis(n, top)
    below = monos[: comb(n + top - 1, n)][::-1]
    src = ((i, m) for group in (range(k - 1, -1, -1), (k,)) for m in below for i in group)
    profile = echelon(_product_rows(partials + [w], src, monos), field)
    pivots = sorted(c for r, c in profile if r < k * len(below)), sorted(c for _, c in profile)
    return [[comb(n + L, n) - bisect_left(p, comb(n + L, n)) for L in range(top + 1)] for p in pivots]


def _product_rows(gens, src, target):
    """The rows of the products m * gens[i], (i, m) in `src`, on the monomial
    window `target`, yielded one at a time; terms outside it are dropped."""
    index = {(0, m): k for k, m in enumerate(target)}
    columns = [[(0, exp, c) for exp, c in g.terms.items()] for g in gens]
    return _truncated_operator_rows(columns, src, index)

"""Exact linear algebra over an exact field.

One sparse elimination kernel serves production code: `echelon`, the row
rank profile of a matrix given as rows of {column: coefficient} dicts. It
turns each row into an integer row and eliminates exactly, with no Fraction
per entry. Over QQ a row whose entries are all ints is taken as it is, up
to its content; only rows holding a Fraction have their denominators
cleared. Over GF(p) the residues are the integers.

  * `echelon` gives the ranks of every row-prefix x column-prefix block at
    once. Every truncation level is read that way: the two-cap levels, the
    levels of the Jacobian quotient and the reduction mod k (level 0) are
    all such blocks of one matrix. The Milnor and Tyurina levels share one
    matrix, the rows of the partials' products a prefix of those with w's.
  * `rank_sparse` gives one rank (the strands, and the one graded window of
    `complexes._certified_top_degree`): the number of `echelon` pivots of
    the rows taken last-first, the order in which most of the callers' rows
    pivot at once (the reason and its measurement are in its docstring).

The dense Gauss-Jordan `rref_dense`, with `rank_dense` and
`nullspace_dense` on top of it, is kept as a reference only: the corpus
oracle (`corpus._bruteforce_quotient_dim`) uses it so that it shares no
elimination with the engines it checks, the tests compare against it, and
the benchmark's tracer binds all four names.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm


def rref_dense(rows, field):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(r) for r in rows]
    pivots = []
    if not m:
        return m, pivots
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != field.zero:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, v) for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != field.zero:
                factor = m[r][col]
                m[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank_dense(rows, field) -> int:
    return len(rref_dense(rows, field)[1])


def nullspace_dense(rows, ncols, field):
    """Basis of the right kernel of the matrix, as coordinate lists."""
    m, pivots = rref_dense(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(m[r][fc])
        basis.append(vec)
    return basis


def rank_sparse(rows, field) -> int:
    """Rank of a sparse matrix given as a list of {col: nonzero coeff} dicts:
    the number of `echelon` pivots of its rows taken last-first. The rows
    are left as they are.

    The order is a rule, not a choice left to the caller. Both callers
    (the strands, and the certified top degree of a Jacobian ring) build
    their rows in increasing (basis index, monomial) order, so the last rows
    have the highest lowest columns and most of them pivot at once (mod k
    and the quotient levels are `echelon` prefixes, not ranks of their
    own). Their pivot rows stay as sparse
    as they were built, and the rows that do need reducing are reduced by
    short rows. On End of the diagonal of x^3+y^3+z^3+w^3, 96% of the pivot
    rows needed no reduction last-first (65% in the given order, 55% sorted
    by ascending lowest column), the reductions touched 0.78 million
    entries (3.0 and 4.4 million), and the ranks took 0.49 s in process
    (0.88 and 1.25 s; Python 3.11 on 2 vCPUs).
    """
    return len(echelon(rows[::-1], field))


def echelon(rows, field):
    """Row rank profile of a sparse matrix: the (row index, pivot column)
    pairs of an echelon form built in the given row order.

    Each row, in turn, is reduced by the earlier pivot rows until its lowest
    column is not yet a pivot; that column becomes its pivot, and a row that
    reduces to 0 gets none. After r rows the reduced rows span the same
    space as the first r rows, and their lowest columns are distinct. On the
    first k columns those with a pivot c < k stay independent and the others
    vanish, so the rank of the submatrix of the first r rows and first k
    columns is the number of pairs (i, c) with i < r and c < k (the rank
    profile of Dumas-Pernet-Sultan, "Computing the rank profile matrix",
    ISSAC 2015). The rows are left as they are. Over QQ a step by a +-1
    pivot is exact in integers; any other pivot first scales the row by a
    nonzero integer (Bareiss's fraction-free step) and divides out its
    content afterwards. Over GF(p) each pivot row is scaled to a leading 1.
    Neither changes the span, so every rank is exact.
    """
    p = field.characteristic
    reduced: dict = {}  # pivot column -> (pivot entry, the rest of its row)
    profile = []
    for rid, r in enumerate(rows):
        if not r:
            continue
        r = _integer_row(dict(r), p)
        get = r.get
        # the columns of r, lowest first; one dropped from r is skipped when popped
        heap = list(r)
        heapify(heap)
        while r:
            col = heappop(heap)
            if col not in r:
                continue
            pivot = reduced.get(col)
            if pivot is None:
                break
            pv, tail = pivot
            coef = r.pop(col)
            if p:
                for c, v in tail.items():
                    old = get(c)
                    if old is None:
                        r[c] = -coef * v % p
                        heappush(heap, c)
                    else:
                        new = (old - coef * v) % p
                        if new:
                            r[c] = new
                        else:
                            del r[c]
                continue
            if pv in (1, -1):
                scale, f = 1, coef * pv
            else:
                # r = (pv/g)*r - (coef/g)*prow
                g = gcd(pv, coef)
                scale, f = pv // g, coef // g
                for c in r:
                    r[c] *= scale
            for c, v in tail.items():
                old = get(c)
                if old is None:
                    r[c] = -f * v
                    heappush(heap, c)
                else:
                    new = old - f * v
                    if new:
                        r[c] = new
                    else:
                        del r[c]
            if scale != 1 and r:
                g = gcd(*r.values())
                if g != 1:
                    for c in r:
                        r[c] //= g
        if r:
            pv = r.pop(col)
            if p and pv != 1:
                inv = pow(pv, -1, p)
                r = {c: v * inv % p for c, v in r.items()}
                pv = 1
            reduced[col] = (pv, r)
            profile.append((rid, col))
    return profile


def _integer_row(r, p):
    """The nonzero row `r` as an integer row of the same span: over GF(p) its
    residues as they are, over QQ scaled by the lcm of its denominators (a row
    of ints is not) and divided by its content. May return `r` itself."""
    if p:
        return r
    if set(map(type, r.values())) != {int}:
        dens = [v.denominator for v in r.values()]
        den = lcm(*dens)
        r = {c: v.numerator * (den // d) for (c, v), d in zip(r.items(), dens)}
    g = gcd(*r.values())
    if g != 1:
        r = {c: v // g for c, v in r.items()}
    return r

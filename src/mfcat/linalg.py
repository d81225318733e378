"""Exact linear algebra over an exact field.

Two elimination cores. The dense one, `rref_dense`, takes lists of row lists
and runs Gauss-Jordan; it serves the Jacobian quotient and the ranks of
k-reductions (`rank_dense`). `nullspace_dense` reads its result too; no
cohomology route calls it, and it is kept as the tests' reference kernel.
The sparse one, `rank_sparse`, takes rows as {column: coefficient} dicts,
turns them into integer rows and eliminates exactly, with no Fraction per
entry. Over QQ a row whose entries are all ints is taken as it is, up to
its content; only rows holding a Fraction have their denominators cleared.
Over GF(p) the residues are the integers. A column index lets each pivot
touch only the rows holding its column, and the pivots are picked to limit
fill-in, which is what makes the strand-wise cohomology ranks cheap. It
consumes its input list and may mutate the dicts in it.
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
    """Rank of a sparse matrix given as a list of {col: nonzero coeff} dicts.

    Consumes its input: each slot of `rows` is set to None once the row is
    read, and the dicts themselves may be mutated, so a caller that needs
    its rows afterwards passes copies. Rows become integer rows: over QQ a
    row of ints (the common case, as `RationalField` keeps integral values
    as ints) is only divided by its content, and any other row is first
    scaled by the lcm of its denominators; over GF(p) the entries in [0, p)
    are used as they are.

    Pivot choice: the sparsest live row (a heap of (length, row id) with
    lazy invalidation); in it, a column holding a +-1 entry first, then the
    column held by the fewest live rows, then the lowest column. A column
    index maps each column to the ids of the rows that may hold it (stale
    ids are skipped), so a pivot touches only the rows holding its column.
    Each step adds a multiple of the pivot row to a row; for a non-unit
    pivot over QQ the row is first scaled by a nonzero integer (Bareiss's
    fraction-free step) and its content divided out afterwards. Neither
    changes the rank, so the result is exact.
    """
    p = field.characteristic
    units = (1, p - 1) if p else (1, -1)
    work = {}
    for rid, r in enumerate(rows):
        rows[rid] = None
        if not r:
            continue
        if not p:
            if set(map(type, r.values())) != {int}:
                dens = [v.denominator for v in r.values()]
                den = lcm(*dens)
                r = {c: v.numerator * (den // d) for (c, v), d in zip(r.items(), dens)}
            g = gcd(*r.values())
            if g != 1:
                r = {c: v // g for c, v in r.items()}
        work[rid] = r
    index: dict = {}
    for rid, r in work.items():
        for c in r:
            index.setdefault(c, []).append(rid)
    count = {c: len(ids) for c, ids in index.items()}
    heap = [(len(r), rid) for rid, r in work.items()]
    heapify(heap)
    rank = 0
    while heap:
        n, rid = heappop(heap)
        prow = work.get(rid)
        if prow is None or len(prow) != n:
            continue
        del work[rid]
        rank += 1
        pcol = min(prow, key=lambda c: (prow[c] not in units, count[c], c))
        pv = prow.pop(pcol)
        for c in prow:
            count[c] -= 1
        if p:
            pinv = pow(pv, -1, p)
        fraction_free = not p and pv not in units
        for oid in index.pop(pcol):
            other = work.get(oid)
            if other is None or pcol not in other:
                continue
            coef = other.pop(pcol)
            if p:
                f = coef * pinv % p
            elif fraction_free:
                # other = (pv/g)*other - (coef/g)*prow
                g = gcd(pv, coef)
                scale, f = pv // g, coef // g
                if scale != 1:
                    for c in other:
                        other[c] *= scale
            else:
                f = coef * pv
            for c, v in prow.items():
                old = other.get(c)
                if old is None:
                    other[c] = -f * v % p if p else -f * v
                    count[c] += 1
                    index[c].append(oid)
                    continue
                new = (old - f * v) % p if p else old - f * v
                if new:
                    other[c] = new
                else:
                    del other[c]
                    count[c] -= 1
            if not other:
                del work[oid]
                continue
            if fraction_free:
                g = gcd(*other.values())
                if g != 1:
                    for c in other:
                        other[c] //= g
            heappush(heap, (len(other), oid))
        del count[pcol]
    return rank

"""Exact linear algebra over an exact field.

Two elimination cores. The dense one, `rref_dense`, takes lists of row lists
and runs Gauss-Jordan; `rank_dense` and `nullspace_dense` read its result.
The sparse one, `rank_sparse`, takes rows as {column: coefficient} dicts and
picks pivots to limit fill-in, which is what makes the strand-wise
cohomology ranks cheap.
"""

from __future__ import annotations


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
    """Rank of a sparse matrix given as a list of {col: coeff} dicts.

    Destroys its input. Pivot choice: sparsest available row, then the column
    in it whose global occupancy is smallest, preferring unit entries.
    """
    work = [dict(r) for r in rows if r]
    col_count: dict = {}
    for r in work:
        for c in r:
            col_count[c] = col_count.get(c, 0) + 1
    rank = 0
    live = set(range(len(work)))
    while live:
        best = min(live, key=lambda i: len(work[i]))
        row = work[best]
        live.discard(best)
        if not row:
            continue
        one = field.one
        neg_one = field.neg(one)
        pcol = min(
            row,
            key=lambda c: (0 if row[c] in (one, neg_one) else 1, col_count.get(c, 0), c),
        )
        pval = row[pcol]
        rank += 1
        inv = field.inv(pval)
        for i in list(live):
            other = work[i]
            coef = other.get(pcol)
            if coef is None:
                continue
            factor = field.mul(coef, inv)
            for c, v in row.items():
                newv = field.sub(other.get(c, field.zero), field.mul(factor, v))
                if newv == field.zero:
                    if c in other:
                        del other[c]
                        col_count[c] -= 1
                else:
                    if c not in other:
                        col_count[c] = col_count.get(c, 0) + 1
                    other[c] = newv
            if not other:
                live.discard(i)
        for c in row:
            col_count[c] -= 1
    return rank

"""Exact linear algebra over an exact field.

Two sparse elimination kernels serve production code, one per contract.
Both take rows as {column: coefficient} dicts, turn them into integer rows
and eliminate exactly, with no Fraction per entry. Over QQ a row whose
entries are all ints is taken as it is, up to its content; only rows holding
a Fraction have their denominators cleared. Over GF(p) the residues are the
integers.

  * `rank_sparse` gives one rank: strands, quotient dimensions and
    k-reductions. A column index lets each pivot touch only the rows holding
    its column, and the pivots are picked to limit fill-in. It consumes its
    input list and may mutate the dicts in it.
  * `echelon` gives the ranks of every row-prefix x column-prefix block at
    once, as a rank profile: the two-cap levels, whose ranks are all such
    blocks of one matrix. It takes the rows in their given order and each
    pivot at its row's lowest column, which gives up the fill-in choice.
    Put on the strand ranks, that order was slower and heavier than
    `rank_sparse`: End of the diagonal of x^3+y^3+z^3+w^3 took 1.14-1.20 s
    against 0.86-0.92 s and peaked at 66 MiB against 41 MiB (whole CLI
    runs, 2-vCPU KVM guest). So a single rank stays with `rank_sparse`.

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
    column with the shortest index list, then the lowest column. The column
    index maps each column to the ids of the rows that may hold it: every
    row that gained the column was appended, and none is removed until the
    column is a pivot, so the length of its list bounds the live rows that
    hold it from above. A pivot touches only the rows on its column's list
    (stale ids are skipped). The choice only steers the fill-in.
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
        if r:
            work[rid] = _integer_row(r, p)
    index: dict = {}
    for rid, r in work.items():
        for c in r:
            index.setdefault(c, []).append(rid)
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
        pcol = min(prow, key=lambda c: (prow[c] not in units, len(index[c]), c))
        pv = prow.pop(pcol)
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
                    index[c].append(oid)
                    continue
                new = (old - f * v) % p if p else old - f * v
                if new:
                    other[c] = new
                else:
                    del other[c]
            if not other:
                del work[oid]
                continue
            if fraction_free:
                g = gcd(*other.values())
                if g != 1:
                    for c in other:
                        other[c] //= g
            heappush(heap, (len(other), oid))
    return rank


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
    ISSAC 2015). The rows are left as they are. The arithmetic is
    `rank_sparse`'s: integer rows with fraction-free steps and content
    division over QQ, and residues over GF(p), where each pivot row is
    scaled to a leading 1.
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

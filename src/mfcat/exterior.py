"""Exterior-algebra bookkeeping shared by the Koszul-type constructions.

Basis order is frozen: subsets of {0..m-1} sorted by (cardinality, lex),
split into even/odd by cardinality mod 2. All signs come from the sorted
wedge-word convention.
"""

from __future__ import annotations

from itertools import combinations


def subsets_ordered(m: int):
    out = []
    for k in range(m + 1):
        out.extend(tuple(c) for c in combinations(range(m), k))
    return out


def parity_split(m: int):
    """(even subsets, odd subsets), each in the frozen order."""
    subs = subsets_ordered(m)
    return [s for s in subs if len(s) % 2 == 0], [s for s in subs if len(s) % 2 == 1]


def contraction_terms(subset):
    """Contraction against generator i removes i with sign (-1)^position."""
    out = []
    for pos, i in enumerate(subset):
        rest = subset[:pos] + subset[pos + 1 :]
        out.append((i, rest, -1 if pos % 2 else 1))
    return out


def wedge_terms(subset, m: int):
    """Left wedge by generator i inserts i with sign (-1)^#{j in subset: j < i}."""
    out = []
    for i in range(m):
        merged = merge_sorted((i,), subset)
        if merged is not None:
            sign, word = merged
            out.append((i, word, sign))
    return out


def merge_sorted(left: tuple, right: tuple):
    """(sign, merged word) for concatenating sorted odd words, or None on overlap.

    The sign is (-1)^inversions where inversions counts pairs i in left,
    j in right with i > j, i.e. the transpositions needed to re-sort.
    """
    if not left:
        return 1, right
    if not right:
        return 1, left
    if set(left) & set(right):
        return None
    inversions = sum(1 for i in left for j in right if i > j)
    return (-1 if inversions % 2 else 1), tuple(sorted(left + right))

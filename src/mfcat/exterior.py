"""The exterior-algebra word format shared by the Koszul builder and the
operator algebra.

A word is a product of distinct odd generators in ascending order, held as a
bit mask: generator i is bit i. The basis order is frozen: the words on m
letters sorted by (cardinality, lex), `subsets_ordered`, split into even and
odd by cardinality mod 2. Re-sorting a concatenation of two words costs the
sign (-1)^inversions (`inversions`), from which the Koszul builder and the
operator product build their signs.
"""

from __future__ import annotations

from itertools import combinations


def subsets_ordered(m: int) -> list:
    return [c for k in range(m + 1) for c in combinations(range(m), k)]


def mask_of(word, shift: int = 0) -> int:
    """The mask of the letters of `word`, each moved up by `shift` bits."""
    return sum(1 << shift + i for i in word)


def inversions(x: int, y: int) -> int:
    """The pairs i in mask x, j in mask y with i > j: the transpositions
    that re-sort the word x followed by the word y."""
    return sum((y & (1 << i) - 1).bit_count() for i in range(x.bit_length()) if x >> i & 1)

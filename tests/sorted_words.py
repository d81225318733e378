"""Reference sign rule on exterior words written as sorted tuples.

The library holds words as bit masks (`mfcat.exterior`); the tests check it
against this independent tuple form, and convert between the two
(`tuple_terms`, `as_superop`) only to compare.
"""

from mfcat.superops import SuperOp


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


def word_mask(thetas: tuple, dels: tuple, n: int) -> int:
    """The library's word of theta_thetas del_dels on n letters: theta i is
    bit i, del i is bit n + i."""
    return sum(1 << i for i in thetas) + sum(1 << n + i for i in dels)


def tuple_terms(a) -> dict:
    """The terms of a `SuperOp`, keyed (exponent, theta tuple, del tuple)."""
    n = a.ctx.n_vars
    out = {}
    for (exp, word), c in a.terms.items():
        thetas = tuple(i for i in range(n) if word >> i & 1)
        out[(exp, thetas, tuple(i for i in range(n) if word >> n + i & 1))] = c
    return out


def as_superop(ctx, terms: dict):
    """The `SuperOp` of a dict keyed (exponent, theta tuple, del tuple)."""
    n = ctx.n_vars
    return SuperOp(ctx, {(exp, word_mask(th, dl, n)): c for (exp, th, dl), c in terms.items()})

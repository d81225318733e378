"""Reference sign rule on exterior words written as sorted tuples.

The library holds words as bit masks (`mfcat.exterior`); the tests check it
against this independent tuple form.
"""


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

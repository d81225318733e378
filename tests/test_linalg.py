import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfcat
from mfcat.fields import QQ, PrimeField
from mfcat.linalg import nullspace_dense, rank_dense, rank_sparse, rref_dense


def rand_matrix(rng, rows, cols, density=0.6):
    return [
        [Fraction(rng.randint(-3, 3)) if rng.random() < density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rank_known():
    m = [[QQ.of(1), QQ.of(2)], [QQ.of(2), QQ.of(4)]]
    assert rank_dense(m, QQ) == 1
    assert rank_dense([[QQ.zero, QQ.zero]], QQ) == 0
    assert rank_dense([], QQ) == 0


def test_sparse_matches_dense():
    rng = random.Random(17)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, rows, cols)
        sparse = [{j: v for j, v in enumerate(row) if v != 0} for row in m]
        assert rank_sparse(sparse, QQ) == rank_dense(m, QQ)


def test_sparse_prime_field():
    F = PrimeField(101)
    rng = random.Random(29)
    for _ in range(20):
        m = [[F.of(rng.randint(0, 100)) for _ in range(5)] for _ in range(4)]
        sparse = [{j: v for j, v in enumerate(row) if v != 0} for row in m]
        assert rank_sparse(sparse, F) == rank_dense(m, F)


def test_sparse_non_unit_pivots():
    # no row holds a +-1 entry and no pivot divides the entries below it, so
    # the pivots take the fraction-free step and the content removal; the last
    # three rows are 3*r0 + 2*r1, 3*r1 + 2*r2 and 2*r0 + 3*r2, so a wrong step
    # leaves a nonzero row behind
    m = [
        [3, 3, 2, 0],
        [3, 3, 2, 3],
        [2, 2, 3, 0],
        [15, 15, 10, 6],
        [13, 13, 12, 9],
        [12, 12, 13, 0],
    ]
    assert rank_sparse([{j: Fraction(v) for j, v in enumerate(row) if v} for row in m], QQ) == 3
    for field in (PrimeField(2), PrimeField(3), PrimeField(7)):
        dense = [[field.of(v) for v in row] for row in m]
        sparse = [{j: v for j, v in enumerate(row) if v != field.zero} for row in dense]
        assert rank_sparse(sparse, field) == rank_dense(dense, field)
    assert rank_sparse([], QQ) == 0


@st.composite
def sparse_matrix(draw, field):
    """(dense rows, sparse rows) of a random matrix of at most 15 x 15.

    Some rows are combinations of two others, so the rank is usually below
    both sizes and an inexact elimination step shows up as a rank change.
    """
    ncols = draw(st.integers(1, 15))
    if field is QQ:
        values = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    else:
        values = st.integers(1, field.characteristic - 1)
    row = st.dictionaries(st.integers(0, ncols - 1), values, min_size=1, max_size=4)
    base = []
    for cells in draw(st.lists(row, min_size=1, max_size=10)):
        dense_row = [field.zero] * ncols
        for j, v in cells.items():
            dense_row[j] = field.of(v)
        base.append(dense_row)
    index = st.integers(0, len(base) - 1)
    for i, j, a, b in draw(st.lists(st.tuples(index, index, values, values), max_size=15 - len(base))):
        a, b = field.of(a), field.of(b)
        base.append([field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(base[i], base[j])])
    dense = draw(st.permutations(base))
    sparse = [{j: v for j, v in enumerate(r) if v != field.zero} for r in dense]
    return dense, sparse


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(101)], ids=repr)
@settings(deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_rank_property(field, data):
    dense, sparse = data.draw(sparse_matrix(field))
    assert rank_sparse(sparse, field) == rank_dense(dense, field)


def test_nullspace_is_kernel():
    rng = random.Random(31)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        basis = nullspace_dense(m, cols, QQ)
        assert len(basis) == cols - rank_dense(m, QQ)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in m)


def test_rref_pivots():
    m = [[QQ.of(0), QQ.of(1)], [QQ.of(1), QQ.of(0)]]
    reduced, pivots = rref_dense(m, QQ)
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1


def test_dense_elimination_is_only_a_reference():
    """Production code eliminates with `rank_sparse` alone: the dense trio is
    named only where it is defined and in the corpus oracle."""
    dense = {"rref_dense", "rank_dense", "nullspace_dense"}
    users = set()
    for path in Path(mfcat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in dense:
                users.add(path.name)
    assert users <= {"linalg.py", "corpus.py"}
    assert "linalg.py" in users

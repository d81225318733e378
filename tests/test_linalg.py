import random
from fractions import Fraction

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

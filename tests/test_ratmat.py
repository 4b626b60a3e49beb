import random
from fractions import Fraction

import pytest

from lieorbits.errors import SingularMatrix
from lieorbits.ratmat import RatMatrix, as_vector, matrix_rank, rat_solve


def F(a, b=1):
    return Fraction(a, b)


def test_solve_identity():
    a = RatMatrix.identity(3)
    assert rat_solve(a, as_vector([1, 2, 3])) == (F(1), F(2), F(3))


def test_solve_diagonal():
    a = RatMatrix.from_rows([[2, 0], [0, 4]])
    assert rat_solve(a, as_vector([1, 1])) == (F(1, 2), F(1, 4))


def test_solve_hand_elimination():
    # 2x - y = 1, -x + 2y = 0  =>  x = 2/3, y = 1/3
    a = RatMatrix.from_rows([[2, -1], [-1, 2]])
    assert rat_solve(a, as_vector([1, 0])) == (F(2, 3), F(1, 3))


def test_solve_singular_raises():
    a = RatMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        rat_solve(a, as_vector([1, 1]))


def test_solve_needs_square():
    a = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        rat_solve(a, as_vector([1, 1]))


def _random_matrix(rng, n, lo=-6, hi=6):
    return RatMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _random_invertible(rng, n):
    while True:
        m = _random_matrix(rng, n)
        try:
            rat_solve(m, as_vector([1] * n))
        except SingularMatrix:
            continue
        return m


def test_solve_random_roundtrip():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = _random_invertible(rng, n)
        b = as_vector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
        x = rat_solve(a, b)
        assert a.mat_vec(x) == b


def _reference_rank(rows):
    # Gaussian elimination over Fractions, as a reference for matrix_rank
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_matrix_rank_hand_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[2, 4], [3, 6]]) == 1
    assert matrix_rank([[0, 1, 2], [3, 0, 1], [3, 1, 3]]) == 2
    assert matrix_rank([[4, 6], [6, 9], [2, 5]]) == 2


def test_matrix_rank_random_low_rank():
    rng = random.Random(733)
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        m = rng.randint(1, 6)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        product = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        rank = matrix_rank(product)
        assert rank == _reference_rank(product)
        assert rank <= min(n, k, m)

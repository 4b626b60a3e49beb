import random
from fractions import Fraction

import pytest

from lieorbits.errors import SingularMatrix
from lieorbits.ratmat import int_solve, matrix_rank


def F(a, b=1):
    return Fraction(a, b)


def solve(rows, rhs):
    # the integer solve read back as Fractions
    nums, det = int_solve(rows, rhs)
    assert det > 0
    return tuple(F(x, det) for x in nums)


def _reference_solve(rows, rhs):
    # Gaussian elimination over Fractions, as a reference for int_solve
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _determinant(rows):
    # Leibniz expansion along the first row, for small matrices
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def test_solve_identity():
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve(a, [1, 2, 3]) == (F(1), F(2), F(3))
    assert int_solve(a, [1, 2, 3]) == ((1, 2, 3), 1)


def test_solve_diagonal():
    a = [[2, 0], [0, 4]]
    assert solve(a, [1, 1]) == (F(1, 2), F(1, 4))
    assert int_solve(a, [1, 1]) == ((4, 2), 8)


def test_solve_hand_elimination():
    # 2x - y = 1, -x + 2y = 0  =>  x = 2/3, y = 1/3
    a = [[2, -1], [-1, 2]]
    assert solve(a, [1, 0]) == (F(2, 3), F(1, 3))
    assert int_solve(a, [1, 0]) == ((2, 1), 3)


def test_solve_row_swap():
    # the first pivot is zero, so rows 0 and 1 swap: y = 3, x + 2y = 4
    a = [[0, 1], [1, 2]]
    assert _determinant(a) == -1
    assert int_solve(a, [3, 4]) == ((-2, 3), 1)
    # a zero second pivot after one elimination step forces a later swap
    b = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert solve(b, [2, 3, 2]) == _reference_solve(b, [2, 3, 2]) == (F(1), F(1), F(1))


def test_solve_negative_determinant():
    # det [[1, 2], [3, 4]] = -2: the numerators flip sign with it
    a = [[1, 2], [3, 4]]
    assert _determinant(a) == -2
    assert int_solve(a, [5, 6]) == ((-8, 9), 2)
    assert solve(a, [5, 6]) == (F(-4), F(9, 2)) == _reference_solve(a, [5, 6])
    # a swap of two rows negates the determinant of a positive one
    assert int_solve([[0, 3], [2, 0]], [6, 4]) == ((12, 12), 6)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        int_solve([[1, 2], [2, 4]], [1, 1])
    # random matrices with one row a multiple of another, swaps included
    rng = random.Random(4051)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = _random_matrix(rng, n, -2, 2)
        i, j = rng.sample(range(n), 2)
        a[i] = [2 * x for x in a[j]]
        with pytest.raises(SingularMatrix):
            int_solve(a, [1] * n)


def test_solve_needs_square():
    with pytest.raises(ValueError):
        int_solve([[1, 2, 3], [4, 5, 6]], [1, 1])
    with pytest.raises(ValueError):
        int_solve([[1, 2], [3, 4]], [1, 1, 1])


def _random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _random_invertible(rng, n):
    while True:
        m = _random_matrix(rng, n)
        if _determinant(m):
            return m


def test_solve_random_roundtrip():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = _random_invertible(rng, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        nums, det = int_solve(a, b)
        assert det == abs(_determinant(a))
        x = solve(a, b)
        assert x == _reference_solve(a, b)
        assert tuple(sum(c * xi for c, xi in zip(row, x)) for row in a) == tuple(b)


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

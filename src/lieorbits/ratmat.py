"""Exact rational vectors and matrices.

The rational operations here are exact linear solves and matrix views.
Scalars are fractions.Fraction (`Rat`), which already guarantees lowest
terms and a positive denominator, so no rounding can ever occur.  Ranks are
taken on integer vectors by fraction-free elimination.

Integral data stays in plain ints: `RootSystem.cartan` is integer rows, and
`RootSystem.scaled_inner` is the Gram form, on an integer multiple of
itself.  A `RatMatrix` holds only genuinely rational data: the views of
theta* and tau*, and the matrices of the two rational solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import SingularMatrix

Rat = Fraction
Vector = tuple[Fraction, ...]


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(x) for x in values)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return RatMatrix(r, c, tuple(Fraction(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.build(n, n, lambda i, j: Fraction(int(i == j)))

    @staticmethod
    def build(rows: int, cols: int, fn: Callable[[int, int], Fraction]) -> "RatMatrix":
        return RatMatrix(rows, cols, tuple(Fraction(fn(i, j)) for i in range(rows) for j in range(cols)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(self[i, j] * v[j] for j in range(self.cols)) for i in range(self.rows))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return RatMatrix.build(
            self.rows,
            other.cols,
            lambda i, j: sum(self[i, k] * other[k, j] for k in range(self.cols)),
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

def rat_solve(a: RatMatrix, b: Sequence[Fraction]) -> Vector:
    """Solve a*x = b exactly for square a.

    Gaussian elimination with the first nonzero pivot; exact arithmetic has
    no stability concerns.  Raises SingularMatrix when a is not invertible.
    """
    if a.rows != a.cols:
        raise ValueError("rat_solve needs a square matrix")
    n = a.rows
    if len(b) != n:
        raise ValueError("right-hand side length mismatch")
    m = a.row_list()
    rhs = [Fraction(x) for x in b]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        piv = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / piv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
            rhs[r] -= factor * rhs[col]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i] - sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / m[i][i]
    return tuple(x)


def matrix_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the row span of integer vectors, by fraction-free elimination:
    each row below the pivot becomes piv * row - row[col] * pivot row, then
    is divided by the gcd of its entries, so no entry ever leaves the ints."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        piv = pivot[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                row = [piv * a - factor * b for a, b in zip(rows[r], pivot)]
                g = gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank

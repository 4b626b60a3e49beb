"""Exact linear algebra on integer data.

Integral data stays in plain ints: `RootSystem.cartan` is integer rows, and
`RootSystem.simple_pairings` evaluates the Gram form, on an integer multiple
of itself, for `scaled_inner` and every pairing row.  The coroot system
behind the weighted diagram is solved here (`int_solve`), on integer rows,
as integer numerators over one determinant: only its black and arrow
block, the rows that hold no class unknown, whose determinant is the whole
system's up to sign (`FormAnalysis.coroot_solution`).
Ranks are taken on integer vectors; both eliminate fraction-free, so no
entry ever leaves the ints.  theta* takes no solve: `satake` reads it off
the root closure.
Nothing here builds a `fractions.Fraction`: a caller that needs a rational
keeps it as integer numerators over one denominator.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .errors import SingularMatrix


def int_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Solve rows * x = rhs for a square integer matrix, as (numerators, det):
    x = numerators / det, where det > 0 is the absolute value of the
    determinant.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968): each row
    below the pivot becomes (piv * row - row[k] * pivot row) / previous
    pivot, and that division is exact, so the last pivot is the determinant
    of the row-swapped matrix.  Back substitution on det * x is exact too,
    since det * x is integral by Cramer's rule.  Raises SingularMatrix when
    the matrix is not invertible.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("int_solve needs a square matrix")
    if len(rhs) != n:
        raise ValueError("right-hand side length mismatch")
    m = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {k}")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k]
        piv = pivot[k]
        for r in range(k + 1, n):
            factor = m[r][k]
            m[r] = [(piv * a - factor * b) // prev for a, b in zip(m[r], pivot)]
        prev = piv
    det = prev
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        nums[i] = (det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))) // row[i]
    if det < 0:
        return tuple(-x for x in nums), -det
    return tuple(nums), det


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

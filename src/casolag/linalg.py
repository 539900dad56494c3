"""Exact linear algebra: one fraction-free elimination behind every solve,
nullspace, determinant and set of maximal minors.

Rows are scaled to integers by the lcm of their denominators and run through
Bareiss's forward pass: after k pivots every entry below the pivot rows is a
minor of the input, so each division by the previous pivot is exact.
Pivoting takes the first row with a nonzero entry in the column and skips a
column with none, so the reduced row echelon form, and with it every
particular solution and nullspace basis, is a canonical function of the
input; the probing code upstream relies on that to compare bases across
runs.  A solve back-substitutes over the pivot rows only, in integers scaled
by the last pivot (each such entry is a minor too, by Cramer's rule), and
builds Fractions only for the values it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .poly import clear_denominators, record


class InconsistentSystem(Exception):
    """Raised when A*x = b has no solution; carries the offending row."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"inconsistent system: contradiction in reduced row {row}")


@record
class LinearSolution:
    """Solution set of a linear system in RREF-canonical coordinates.

    particular is None for homogeneous solves requested without a right-hand
    side.  nullspace holds one basis vector per free column: entry 1 in the
    free column, the negated reduced-column entries in the pivot positions.
    """

    particular: list[Fraction] | None
    nullspace: list[list[Fraction]]
    pivot_columns: list[int]


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Bareiss forward pass over integer rows, in place, pivoting in columns
    0..ncols-1: returns (pivot columns, sign of the row swaps, last pivot).
    Rows from len(pivots) on end zero in those columns."""
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top, piv = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            row, f = rows[i], rows[i][c]
            rows[i] = [0] * (c + 1) + [(piv * row[j] - f * top[j]) // prev
                                       for j in range(c + 1, len(row))]
        prev = piv
        pivots.append(c)
    return pivots, sign, prev


def solve_linear(A: Sequence[Sequence], b: Sequence | None = None) -> LinearSolution:
    """Solve A*x = b exactly (b=None solves the homogeneous system).

    Raises InconsistentSystem when no solution exists, naming the first
    reduced row that reads 0 = nonzero.  The nullspace basis is the
    canonical RREF basis, one vector per free column in column order.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    if b is not None and len(b) != m:
        raise ValueError(f"right-hand side has {len(b)} entries for {m} rows")
    rows = [clear_denominators([*A[i], 0 if b is None else b[i]])[1] for i in range(m)]
    pivots, _, d = _eliminate(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n]:
            raise InconsistentSystem(i)

    free = [c for c in range(n) if c not in pivots]
    # reduced[r][k]: d times pivot row r's reduced entry in column (free + [n])[k]
    reduced: list[list[int]] = []
    for r in reversed(range(len(pivots))):
        row = rows[r]
        below = list(zip(pivots[r + 1:], reduced))
        reduced.insert(0, [(d * row[j] - sum(row[c] * y[k] for c, y in below)) // row[pivots[r]]
                           for k, j in enumerate(free + [n])])
    particular = None if b is None else [Fraction(0)] * n
    nullspace = []
    for k, c in enumerate(free):
        nullspace.append([Fraction(0)] * n)
        nullspace[k][c] = Fraction(1)
    for c, y in zip(pivots, reduced):
        for vec, v in zip(nullspace, y):
            vec[c] = Fraction(-v, d)
        if particular is not None:
            particular[c] = Fraction(y[-1], d)
    return LinearSolution(particular=particular, nullspace=nullspace,
                          pivot_columns=pivots)


def det_int(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the sign and last pivot of
    the fraction-free forward pass, or 0 when a column has no pivot."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant needs a square matrix")
    pivots, sign, last = _eliminate([list(row) for row in M], n)
    return sign * last if len(pivots) == n else 0


def maximal_minors(M: Sequence[Sequence[int]]) -> list[int]:
    """(-1)^j det(M without column j), j = 0..m, of an integer m x (m+1)
    matrix M, from one fraction-free pass.  They form a kernel vector of M
    whose entry at the free column f is (-1)^f sign last, so the others
    follow by exact back-substitution over the pivot rows; all are 0 when a
    row has no pivot."""
    m = len(M)
    rows = [list(row) for row in M]
    pivots, sign, last = _eliminate(rows, m + 1)
    if len(pivots) < m:
        return [0] * (m + 1)
    f = next(c for c in range(m + 1) if c not in pivots)
    x = {f: (-1) ** f * sign * last}
    for r in reversed(range(m)):
        p, row = pivots[r], rows[r]
        x[p] = -sum(row[c] * v for c, v in x.items()) // row[p]
    return [x[c] for c in range(m + 1)]

"""Exact linear algebra over Fraction: Gauss-Jordan, nullspaces, determinants
(fraction-free, on integers).

Everything here is deterministic.  Pivoting always takes the first row with a
nonzero entry in the current column (no magnitude heuristics: over Fraction
any nonzero pivot is exact), so reduced row echelon form, and with it every
particular solution and nullspace basis, is a canonical function of the
input.  The probing code upstream relies on that canonicity to compare bases
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from .poly import as_rat, clear_denominators


class InconsistentSystem(Exception):
    """Raised when A*x = b has no solution; carries the offending row."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"inconsistent system: contradiction in reduced row {row}")


@dataclass
class LinearSolution:
    """Solution set of a linear system in RREF-canonical coordinates.

    particular is None for homogeneous solves requested without a right-hand
    side.  nullspace holds one basis vector per free column: entry 1 in the
    free column, the negated reduced-column entries in the pivot positions.
    """

    particular: Optional[List[Fraction]]
    nullspace: List[List[Fraction]]
    pivot_columns: List[int] = field(default_factory=list)

    @property
    def unique(self) -> bool:
        return self.particular is not None and not self.nullspace


def _rref(rows: List[List[Fraction]], ncols: int):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_linear(A: Sequence[Sequence], b: Optional[Sequence] = None) -> LinearSolution:
    """Solve A*x = b exactly (b=None solves the homogeneous system).

    Raises InconsistentSystem when no solution exists.  The nullspace basis
    is the canonical RREF basis, one vector per free column in column order.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    homogeneous = b is None
    rows = []
    for i in range(m):
        row = [as_rat(v) for v in A[i]]
        if len(row) != n:
            raise ValueError("ragged matrix")
        row.append(Fraction(0) if homogeneous else as_rat(b[i]))
        rows.append(row)

    pivots = _rref(rows, n)

    for i in range(len(rows)):
        if all(v == 0 for v in rows[i][:n]) and rows[i][n] != 0:
            raise InconsistentSystem(i)

    particular = None
    if not homogeneous:
        particular = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            particular[c] = rows[r][n]

    pivot_set = set(pivots)
    nullspace = []
    for c in range(n):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][c]
        nullspace.append(vec)

    return LinearSolution(particular=particular, nullspace=nullspace,
                          pivot_columns=list(pivots))


def det_int(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate entry is a minor of M, so each division
    by the previous pivot is exact and the numbers never outgrow the
    minors."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant needs a square matrix")
    rows = [list(row) for row in M]
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        top, piv = rows[c], rows[c][c]
        for i in range(c + 1, n):
            row, f = rows[i], rows[i][c]
            rows[i] = [0] * (c + 1) + [(piv * row[j] - f * top[j]) // prev
                                       for j in range(c + 1, n)]
        prev = piv
    return sign * rows[-1][-1] if n else 1


def det_rat(M: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix: each row is scaled to
    integers by the lcm of its denominators, det_int eliminates, and the
    product of those lcms divides once at the end."""
    ints, scale = [], 1
    for row in M:
        lcm, row = clear_denominators(row)
        ints.append(row)
        scale *= lcm
    return Fraction(det_int(ints), scale)

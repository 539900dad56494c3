"""solve_linear and det_int, and solve_linear against the Gauss-Jordan
elimination over Fraction that it replaced.

`reference_solve` is the old solve_linear: reduced row echelon form over
Fraction, dividing each pivot row by its pivot and clearing its column above
and below.  solve_linear instead eliminates fraction-free on integer rows
(Bareiss) and back-substitutes over the pivot rows, so the two share no
elimination code; both must return the same canonical solution set and name
the same inconsistent row.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from casolag import InconsistentSystem, LinearSolution, solve_linear
from casolag.linalg import det_int
from casolag.poly import as_rat


def reference_rref(rows, ncols):
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


def reference_solve(A, b=None):
    m = len(A)
    n = len(A[0]) if m else 0
    homogeneous = b is None
    rows = []
    for i in range(m):
        row = [as_rat(v) for v in A[i]]
        if len(row) != n:
            raise ValueError("ragged matrix")
        row.append(F(0) if homogeneous else as_rat(b[i]))
        rows.append(row)

    pivots = reference_rref(rows, n)

    for i in range(len(rows)):
        if all(v == 0 for v in rows[i][:n]) and rows[i][n] != 0:
            raise InconsistentSystem(i)

    particular = None
    if not homogeneous:
        particular = [F(0)] * n
        for r, c in enumerate(pivots):
            particular[c] = rows[r][n]

    pivot_set = set(pivots)
    nullspace = []
    for c in range(n):
        if c in pivot_set:
            continue
        vec = [F(0)] * n
        vec[c] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][c]
        nullspace.append(vec)

    return LinearSolution(particular=particular, nullspace=nullspace,
                          pivot_columns=list(pivots))


def test_unique_solution():
    sol = solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert sol.particular is not None and not sol.nullspace
    assert sol.particular == [F(1), F(3)]
    assert sol.nullspace == []


def test_underdetermined_nullspace_canonical():
    # x + y + z = 1, one pivot, two free columns
    sol = solve_linear([[F(1), F(1), F(1)]], [F(1)])
    assert sol.particular == [F(1), F(0), F(0)]
    assert sol.nullspace == [[F(-1), F(1), F(0)], [F(-1), F(0), F(1)]]
    assert sol.pivot_columns == [0]


def test_inconsistent_raises():
    with pytest.raises(InconsistentSystem):
        solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])


def test_homogeneous_mode():
    sol = solve_linear([[F(1), F(-1)]])
    assert sol.particular is None
    assert sol.nullspace == [[F(1), F(1)]]


def test_zero_rows_ignored():
    sol = solve_linear([[F(0), F(0)], [F(1), F(0)]], [F(0), F(4)])
    assert sol.particular == [F(4), F(0)]


@pytest.mark.parametrize("A,b,sizes", [
    ([[1, 2], [3, 4]], [1], "1 entries for 2 rows"),
    ([[1, 2]], [1, 2, 3], "3 entries for 1 rows"),
])
def test_right_hand_side_length_must_match(A, b, sizes):
    with pytest.raises(ValueError, match=sizes):
        solve_linear(A, b)


def test_det_int():
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2]]) == 2
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_int_permutation_sign():
    m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert det_int(m) == -1


rat3 = st.fractions(min_value=-50, max_value=50, max_denominator=10)


@given(st.lists(st.lists(rat3, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(rat3, min_size=3, max_size=3))
def test_solution_satisfies_system(a, b):
    try:
        sol = solve_linear(a, b)
    except InconsistentSystem:
        return
    xs = sol.particular
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, xs)) == rhs
    for vec in sol.nullspace:
        for row in a:
            assert sum(c * v for c, v in zip(row, vec)) == 0


ENTRIES = {
    "rational": st.fractions(min_value=-20, max_value=20, max_denominator=12),
    "integer": st.integers(-30, 30),
    "mixed": st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    "zero": st.just(0),
}


@st.composite
def systems(draw):
    """(A, b): up to 7 rows of up to 6 columns; b is None (homogeneous) or a
    vector.  Entries are rationals, integers, a mix of both, or all zero,
    and a sparse draw makes about a third of them zero.  A deficient draw
    replaces the rows past the first k by integer combinations of those, so
    the rank falls below the shape and b decides whether the system is
    consistent."""
    m = draw(st.integers(0, 7), label="m")
    n = draw(st.integers(0, 6), label="n") if m else 0
    kind = draw(st.sampled_from(sorted(ENTRIES)), label="kind")
    entry = ENTRIES[kind]
    if draw(st.booleans(), label="sparse"):
        entry = st.one_of(st.just(0), entry, entry)
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans(), label="deficient"):
        k = draw(st.integers(1, m - 1), label="independent rows")
        for i in range(k, m):
            coef = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            A[i] = [sum(c * A[l][j] for l, c in enumerate(coef)) for j in range(n)]
    b = draw(st.one_of(st.none(), st.lists(entry, min_size=m, max_size=m)), label="b")
    return A, b


def outcome(solve, A, b):
    try:
        return solve(A, b)
    except InconsistentSystem as e:
        return ("inconsistent", e.row)


@settings(max_examples=200, deadline=None)
@given(systems())
@example(([], None))
@example(([], []))
@example(([[]], [1]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[0, 0], [0, 0]], [0, 1]))
@example(([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 2, 0]))
@example(([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 3, 0]))
@example(([[0, 1, 2, 0], [0, 2, 4, 1], [0, 0, 0, 3], [0, 1, 1, 1]], None))
def test_solve_matches_reference(system):
    A, b = system
    got, want = outcome(solve_linear, A, b), outcome(reference_solve, A, b)
    assert got == want
    if isinstance(got, LinearSolution):
        assert all(type(v) is F for v in (got.particular or []))
        assert all(type(v) is F for vec in got.nullspace for v in vec)

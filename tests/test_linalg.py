from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from casolag import InconsistentSystem, solve_linear
from casolag.linalg import det_rat


def test_unique_solution():
    sol = solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert sol.unique
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


def test_det_rat():
    assert det_rat([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_rat([[F(2)]]) == 2
    assert det_rat([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_rat_permutation_sign():
    m = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    assert det_rat(m) == -1


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

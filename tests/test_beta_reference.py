"""β rows and det_int against the Fraction elimination they replaced.

`reference_det` is Gaussian elimination over Fraction, dividing by each
pivot.  `reference_beta` is the old family.beta: every
signed maximal minor of the Fraction value matrix (R_g(n-i)) taken by
reference_det.  The fast paths clear denominators and eliminate
fraction-free on integers (linalg.det_int), so they share no arithmetic
with these references.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from casolag import FamilySpec, Poly, beta
from casolag.linalg import det_int
from casolag.poly import clear_denominators

from test_expansion_reference import FAMILIES


def reference_det(M):
    n = len(M)
    rows = [[F(v) for v in row] for row in M]
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def reference_beta(spec, n):
    m = spec.m
    cols = [[spec.R[g](n - i) for g in spec.G] for i in range(m + 1)]
    return tuple((-1) ** j * reference_det(
        [[cols[i][l] for i in range(m + 1) if i != j] for l in range(m)])
        for j in range(m + 1))


def test_beta_matches_reference_on_golden_families():
    for spec in FAMILIES.values():
        for n in range(40):
            assert beta(spec, n).values == reference_beta(spec, n)


coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def families(draw):
    G = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=4)))
    R = {}
    for g in G:
        lead = draw(coeff.filter(lambda c: c != 0))
        R[g] = Poly(draw(st.lists(coeff, min_size=g, max_size=g)) + [lead])
    return FamilySpec(draw(coeff), tuple(G), R)


@settings(max_examples=60, deadline=None)
@given(families(), st.integers(0, 30))
def test_beta_matches_reference(spec, n):
    assert beta(spec, n).values == reference_beta(spec, n)


small = st.one_of(st.just(F(0)), coeff)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_int_of_cleared_rows_matches_reference(M):
    # a rational determinant as the β rows and the Casoratian take it: each
    # row scaled to integers by the lcm of its denominators, one division
    ints, scale = [], 1
    for row in M:
        lcm, row = clear_denominators(row)
        ints.append(row)
        scale *= lcm
    assert F(det_int(ints), scale) == reference_det(M)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_int_matches_reference(M):
    d = det_int(M)
    assert type(d) is int and d == reference_det(M)

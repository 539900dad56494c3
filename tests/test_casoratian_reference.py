"""Differential test of special.casoratian (determinant values at D + 1
integers, Newton interpolation) against the cofactor expansion of the Poly
matrix (p_i(x - j)), which costs factorial time in the number of seeds."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from casolag import Poly, casoratian


def reference_det(M):
    """Determinant of a square Poly matrix, expanded along the first row."""
    if len(M) == 1:
        return M[0][0]
    acc = Poly.zero()
    for c, entry in enumerate(M[0]):
        if not entry.is_zero():
            term = entry * reference_det([row[:c] + row[c + 1:] for row in M[1:]])
            acc = acc + term if c % 2 == 0 else acc - term
    return acc


def reference_casoratian(polys):
    s = len(polys)
    return reference_det([[p.translate(-j) for j in range(s)] for p in polys])


def test_reference_det_matches_scalar_eval():
    x = Poly.x()
    m = [[x, x + 1], [x - 1, x * x]]
    d = reference_det(m)
    for v in (F(0), F(1), F(5), F(-3)):
        assert d(v) == m[0][0](v) * m[1][1](v) - m[0][1](v) * m[1][0](v)


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# zero seeds, constants and repeated degrees included
seed = st.lists(coeff, min_size=0, max_size=5).map(Poly)


@settings(max_examples=300, deadline=None)
@given(st.lists(seed, min_size=1, max_size=4))
def test_casoratian_matches_cofactor_reference(polys):
    assert casoratian(polys) == reference_casoratian(polys)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_casoratian_on_omega_family(m):
    # the benchmark's admissibility family: x^g for g < m, then x^m + 1
    seeds = [Poly.monomial(g) for g in range(1, m)] + [Poly.monomial(m) + 1]
    d = casoratian(seeds)
    assert d == reference_casoratian(seeds)
    assert d.degree == m

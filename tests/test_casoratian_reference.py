"""Differential test of special.casoratian (determinant values at D + 1
integers, Newton interpolation) against the cofactor expansion of the Poly
matrix (p_i(x - j)), which costs factorial time in the number of seeds, and
of casoratian(polys, shift) and family.omega against the Casoratian with x
replaced by x - shift in Poly arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from casolag import FamilySpec, Poly, casoratian, omega


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


def shifted(p, s):
    """p(x - s), by Horner over Poly arithmetic."""
    out = Poly.zero()
    for c in reversed(p.coeffs):
        out = out * Poly((-s, 1)) + c
    return out


def reference_casoratian(polys):
    s = len(polys)
    return reference_det([[shifted(p, j) for j in range(s)] for p in polys])


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


@settings(max_examples=100, deadline=None)
@given(st.lists(seed, min_size=1, max_size=4), st.integers(0, 3))
def test_shifted_casoratian_is_the_casoratian_shifted(polys, s):
    assert casoratian(polys, s) == shifted(casoratian(polys), s)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(coeff, min_size=1, max_size=3), min_size=1, max_size=3))
def test_omega_is_the_casoratian_shifted_once(tails):
    # seeds of degrees 1, 2, ..., m with rational coefficients and lead 1
    seeds = [Poly(tail[:g] + [F(0)] * (g - len(tail)) + [F(1)])
             for g, tail in enumerate(tails, start=1)]
    spec = FamilySpec(F(7, 2), tuple(range(1, len(seeds) + 1)),
                      dict(enumerate(seeds, start=1)))
    assert omega(spec) == shifted(casoratian(seeds), 1)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_casoratian_on_omega_family(m):
    # the benchmark's admissibility family: x^g for g < m, then x^m + 1
    seeds = [Poly.monomial(g) for g in range(1, m)] + [Poly.monomial(m) + 1]
    d = casoratian(seeds)
    assert d == reference_casoratian(seeds)
    assert d.degree == m

"""Differential tests of poly.integer_roots (Sturm chain of the square-free
part, bisection over integer intervals) and of family.certify_admissible,
which is built on it.

The reference is the certificate's former algorithm: evaluate Omega at every
integer up to the ceiling of its Cauchy root bound.  That is complete but
costs time exponential in Omega's bit size, so it is only drawn on
polynomials with small bounds; sympy's real root isolation is the oracle on
larger ones."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import casolag.family
from casolag import FamilySpec, Poly, certify_admissible, integer_roots

X = Poly.x()


def cauchy_ceiling(p: Poly) -> int:
    lead = abs(p.lead)
    return math.ceil(1 + max((abs(c) / lead for c in p.coeffs[:-1]), default=F(0)))


def reference_roots(p: Poly, lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if p(n) == 0]


def reference_certificate(om: Poly):
    """(verdict, scan bound, fail_n) by the linear scan."""
    scan = cauchy_ceiling(om)
    for n in range(scan + 1):
        if om(n) == 0:
            return "fail", scan, n
    return "pass", scan, None


def product(lead, factors) -> Poly:
    p = Poly.const(lead)
    for f in factors:
        p = p * f
    return p


def certificate_of(om: Poly):
    """certify_admissible with Omega replaced by om (the spec is ignored)."""
    spec = FamilySpec(F(7), (1,), {1: X})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(casolag.family, "omega", lambda _spec: om)
        cert = certify_admissible(spec)
    return cert.verdict, cert.integer_scan_bound, cert.fail_n


lead = st.builds(F, st.integers(1, 5).flatmap(lambda n: st.sampled_from((n, -n))),
                 st.integers(1, 4))
# integer roots, half-integer rational roots, no real root; repeated by powers
small_factor = st.one_of(st.integers(-9, 9).map(lambda r: X - r),
                         st.integers(-19, 19).map(lambda k: 2 * X - k),
                         st.integers(1, 5).map(lambda c: X * X + c))
small_power = st.builds(lambda f, e: f ** e, small_factor, st.integers(1, 3))
# an empty factor list gives a constant Omega
small_poly = st.builds(product, lead, st.lists(small_power, max_size=3))


@settings(max_examples=300, deadline=None)
@given(small_poly)
def test_integer_roots_match_scan(p):
    b = cauchy_ceiling(p)
    assume(p.degree <= 8 and b <= 500)
    roots = reference_roots(p, -b - 1, b + 1)
    assert integer_roots(p, -b - 1, b + 1) == roots
    assert integer_roots(p, 0, b) == [r for r in roots if r >= 0]
    # every root as either end of the window
    for r in roots:
        assert integer_roots(p, r, b + 1) == [s for s in roots if s >= r]
        assert integer_roots(p, -b - 1, r) == [s for s in roots if s <= r]
        assert integer_roots(p, r, r) == [r]


@settings(max_examples=200, deadline=None)
@given(small_poly)
def test_certificate_matches_scan(om):
    assume(om.degree <= 8 and cauchy_ceiling(om) <= 500)
    assert certificate_of(om) == reference_certificate(om)


@pytest.mark.parametrize("p,lo,hi,roots", [
    (X ** 2 * (X - 9), 0, 20, [0, 9]),       # multiple root at the left end
    (X ** 2 * (X - 9), -5, 0, [0]),          # ... and at the right end
    (X ** 3 * (X + 2) ** 2, -2, 0, [-2, 0]),
    ((X - 4) ** 2 * (2 * X - 7), 4, 4, [4]),
    ((2 * X - 7) * (2 * X - 9), -10, 10, []),
    (F(3, 2) * (X * X + 1) * (X - 1), 0, 3, [1]),
    (Poly.const(5), -3, 3, []),
    (X - 3, 5, 2, []),                       # empty window
])
def test_integer_roots_cases(p, lo, hi, roots):
    assert integer_roots(p, lo, hi) == roots == reference_roots(p, lo, hi)


def test_certificate_of_multiple_root_at_zero():
    assert certificate_of(X ** 2 * (X - 9)) == ("fail", 10, 0)
    assert certificate_of(Poly.const(F(-2, 3))) == ("pass", 1, None)


def test_zero_polynomial_is_refused():
    with pytest.raises(ValueError):
        integer_roots(Poly.zero(), 0, 1)


# -- sympy oracle on inputs far too large to scan ------------------------

BIG = 10 ** 9
big_factor = st.one_of(
    st.integers(-BIG, BIG).map(lambda r: X - r),
    st.builds(lambda q, r: q * X - r, st.integers(2, 1000), st.integers(-BIG, BIG)),
    st.integers(1, BIG).map(lambda c: X * X + c))
big_product = st.builds(product, lead, st.lists(big_factor, min_size=1, max_size=4))
dense = st.lists(st.integers(-BIG, BIG), min_size=2, max_size=9).map(Poly)


def sympy_integer_roots(p: Poly, lo: int, hi: int) -> list:
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    roots = sympy.Poly(coeffs, sympy.Symbol("x")).real_roots()
    return sorted({int(r) for r in roots if r.is_Integer and lo <= r <= hi})


@settings(max_examples=60, deadline=None)
@given(st.one_of(big_product, dense))
def test_integer_roots_match_sympy(p):
    assume(1 <= p.degree <= 8)
    b = cauchy_ceiling(p)
    assert integer_roots(p, -b, b) == sympy_integer_roots(p, -b, b)
    assert integer_roots(p, 0, b) == sympy_integer_roots(p, 0, b)


def test_far_roots_match_sympy():
    p = (X - 3) * (X - 1000001) * (X + 5)
    b = cauchy_ceiling(p)
    assert integer_roots(p, 0, b) == sympy_integer_roots(p, 0, b) == [3, 1000001]
    # 3x + 10^9 has no integer root
    q = (X - BIG) ** 2 * (3 * X + BIG) * (X * X + 2) * (X + 777)
    b = cauchy_ceiling(q)
    assert integer_roots(q, -b, b) == sympy_integer_roots(q, -b, b) == [-777, BIG]

"""Differential tests of poly.integer_roots (integer isolation along the
derivative sequence) and of family.certify_admissible, which is built on it.

Three references.  The linear scan is the certificate's first algorithm:
evaluate Omega at every integer up to the ceiling of its Cauchy root bound.
It is complete but costs time exponential in Omega's bit size, so it only
runs on small windows.  The Sturm chain is the second: one remainder
sequence over Fraction, divided by gcd(f, f') into the chain of the
square-free part, bisected over integer intervals.  sympy's real root
isolation is the oracle on inputs too large to scan."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import casolag.family
from casolag import FamilySpec, Poly, certify_admissible, integer_roots, laguerre
from casolag.poly import _primitive

X = Poly.x()


def cauchy_ceiling(p: Poly) -> int:
    lead = abs(p.lead)
    return math.ceil(1 + max((abs(c) / lead for c in p.coeffs[:-1]), default=F(0)))


def reference_roots(p: Poly, lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if p(n) == 0]


def sturm_integer_roots(p: Poly, lo: int, hi: int) -> list:
    """integer_roots by a Sturm chain, as the package computed it before.

    Sturm's theorem: along the chain s, s', ..., s_{k+1} = -(s_{k-1} mod
    s_k) of a square-free s, the sign changes (zeros skipped) at a minus
    those at b count the distinct real roots of s in (a, b].  One remainder
    sequence of the primitive integer f = c*p ends in gcd(f, f'); divided by
    that, it is the chain of s = f / gcd(f, f'), which has p's roots, each
    simple.  Bisection keeps only the integer intervals (a, b] that hold a
    root, down to width 1, where f is evaluated exactly at b: O(deg p *
    log2(hi - lo + 2)) chain evaluations, polynomial in the bit size of p.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes at every integer")
    if hi < lo:
        return []
    f = _primitive(p.coeffs)
    chain = [f, _primitive([k * c for k, c in enumerate(f)][1:])]
    while chain[-1]:
        chain.append([-c for c in _primitive(_divmod(chain[-2], chain[-1])[1])])
    chain.pop()  # the zero remainder; chain[-1] is now gcd(f, f')
    chain = [_primitive(_divmod(s, chain[-1])[0]) for s in chain]
    roots = []
    todo = [(lo - 1, _sign_changes(chain, lo - 1), hi, _sign_changes(chain, hi))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if b - a == 1:
            if not sum(c * b ** k for k, c in enumerate(f)):
                roots.append(b)
            continue
        c = (a + b) // 2
        vc = _sign_changes(chain, c)
        todo += [(c, vc, b, vb), (a, va, c, vc)]
    return roots


def _sign_changes(chain, x: int) -> int:
    signs = []
    for cs in chain:
        v = 0
        for c in reversed(cs):
            v = v * x + c
        if v:
            signs.append(v > 0)
    return sum(u != w for u, w in zip(signs, signs[1:]))


def _divmod(a, b):
    """Quotient and remainder of ascending coefficient lists, b[-1] != 0."""
    r = [F(c) for c in a]
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            r[k + i] -= q[k] * bi
    r = r[:len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return q, r


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


# -- integer_roots against all three references ---------------------------

# x^v, runs of adjacent integer roots (f' vanishes between them), roots at
# and next to +-2^k (the root bound inside integer_roots is a power of
# two) and rational roots; squared and cubed by powers
wide_factor = st.one_of(
    small_factor,
    st.integers(1, 4).map(lambda v: X ** v),
    st.builds(lambda r, n: product(1, [X - r - i for i in range(n)]),
              st.integers(-12, 12), st.integers(2, 4)),
    st.builds(lambda k, s, o: X - s * (2 ** k + o), st.integers(0, 11),
              st.sampled_from((1, -1)), st.integers(-1, 1)),
    st.builds(lambda q, r: q * X - r, st.integers(2, 7), st.integers(-40, 40)))
# an empty factor list gives a constant
wide_poly = st.builds(product, lead, st.lists(
    st.builds(lambda f, e: f ** e, wide_factor, st.integers(1, 3)), max_size=3))


@settings(max_examples=150, deadline=None)
@given(wide_poly, st.data())
def test_integer_roots_match_all_references(p, data):
    assume(p.degree <= 12)
    c = cauchy_ceiling(p)
    everywhere = sympy_integer_roots(p, -c, c)
    assert integer_roots(p, -c, c) == everywhere == sturm_integer_roots(p, -c, c)
    # windows ending at the roots, next to them, at 0, past the bound or
    # anywhere: empty (lo > hi), single points, negative or straddling 0
    ends = sorted({0, -c - 1, c + 1, *(r + i for r in everywhere for i in (-1, 0, 1))})
    end = st.one_of(st.sampled_from(ends), st.integers(-c - 2, c + 2))
    for lo, hi in [(r, r) for r in ends] + [(data.draw(end), data.draw(end)) for _ in range(4)]:
        roots = [r for r in everywhere if lo <= r <= hi]
        assert integer_roots(p, lo, hi) == roots == sturm_integer_roots(p, lo, hi)
        if hi - lo <= 300:
            assert roots == reference_roots(p, lo, hi)


@pytest.mark.parametrize("scale", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40])
def test_real_rooted_match_sympy(n, scale):
    """L_n^(7)(x/scale) has n simple positive roots, so every derivative is
    real-rooted and the kept intervals grow at every level; times
    (x-5)(x-6), it has two integer roots as well."""
    p = Poly(c / scale ** k for k, c in enumerate(laguerre(n, F(7)).coeffs))
    q = p * (X - 5) * (X - 6)
    for f in (p, q):
        c = cauchy_ceiling(f)
        assert integer_roots(f, -c, c) == sympy_integer_roots(f, -c, c) \
            == sturm_integer_roots(f, -c, c)
    assert {5, 6} <= set(integer_roots(q, 0, 10))

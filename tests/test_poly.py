from fractions import Fraction as F

import math

import pytest
from hypothesis import given, strategies as st

import casolag.poly
from casolag import (LaurentPoly, Poly, as_rat, integer_roots, krall_preset, rat_str,
                     render)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)


def of_poly(p: Poly) -> LaurentPoly:
    """p as a LaurentPoly with no negative powers."""
    return LaurentPoly(0, p.coeffs)


def deriv(p: Poly, k: int = 1) -> Poly:
    """The k-th derivative of p (the package needs none)."""
    cs = p.coeffs
    for _ in range(k):
        cs = [i * c for i, c in enumerate(cs)][1:]
    return Poly(cs)


def test_constructors():
    assert Poly.zero().is_zero()
    assert Poly.one().degree == 0
    assert Poly.x()(F(5)) == 5
    assert Poly.monomial(3).degree == 3
    assert Poly.const(F(2, 3)).coeff(0) == F(2, 3)


def test_trailing_zeros_stripped():
    p = Poly((1, 2, 0, 0))
    assert p.degree == 1
    assert p == Poly((1, 2))
    assert hash(p) == hash(Poly((1, 2)))


def test_as_rat_refuses_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)
    assert as_rat("2/3") == F(2, 3)
    assert as_rat("-12") == F(-12)
    assert as_rat(7) == F(7)
    for text in ("1.5", "1e3", " 2 ", "+2", "2/-3", "", "1/0"):
        with pytest.raises(ValueError):
            as_rat(text)
    with pytest.raises(ValueError):
        krall_preset(2, 2, ["0.5", 1])
    assert krall_preset(2, 2, ["1/2", 1]) == krall_preset(2, 2, [F(1, 2), 1])


def test_rat_str():
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-1, 2)) == "-1/2"


def test_render_canonical():
    p = Poly((476, -1280, 1296, -628, 144, -12))
    assert render(p) == "-12*x^5+144*x^4-628*x^3+1296*x^2-1280*x+476"
    assert render(Poly.zero()) == "0"
    assert render(Poly.x()) == "x"
    assert render(-Poly.x()) == "-x"
    assert render(Poly((0, F(1, 2)))) == "1/2*x"
    assert render(Poly((-3,))) == "-3"


def test_arithmetic():
    p = Poly((1, 1))  # x + 1
    assert p * p == Poly((1, 2, 1))
    assert p**3 == Poly((1, 3, 3, 1))
    assert p - p == Poly.zero()
    assert (p + 2).coeff(0) == 3
    assert (F(1, 2) * p).lead == F(1, 2)


def test_call_horner_and_compose():
    p = Poly((1, 0, 1))  # x^2 + 1
    assert p(F(3)) == 10
    # a Poly evaluates only at a rational; composition is not supported
    with pytest.raises(TypeError):
        p(Poly((1, 1)))




def test_valuation_and_shift_down():
    p = Poly((0, 0, 3, 1))
    assert p.valuation() == 2
    assert p.shift_down(2) == Poly((3, 1))
    with pytest.raises(ValueError):
        p.shift_down(3)
    assert Poly.zero().valuation() is None


@given(small_polys, small_polys)
def test_mul_degree_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@given(small_polys, small_polys, rationals)
def test_mul_distributes_pointwise(p, q, x):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def reference_mul(p, q):
    """The term-by-term Fraction product Poly.__mul__ used to take."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return Poly()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return Poly(out)


# zero and constant operands included
operands = st.one_of(small_polys, st.lists(rationals, max_size=1).map(Poly),
                     st.lists(st.integers(-10**30, 10**30), max_size=7).map(Poly))


@given(operands, operands)
def test_mul_matches_term_by_term_reference(p, q):
    product = p * q
    assert product == reference_mul(p, q) == q * p
    assert all(type(c) is F for c in product.coeffs)


def test_laurent_basic():
    u = LaurentPoly.from_terms([(-3, F(2)), (1, F(1))])
    assert u.coeff(-3) == 2
    assert u.coeff(0) == 0
    assert (u.low, u.coeffs) == (-3, (2, 0, 0, 0, 1))
    assert str(u) == "x+2*x^-3"
    assert str(LaurentPoly(-2, (F(-1), 0, F(3, 2), 1))) == "x+3/2-x^-2"
    assert str(LaurentPoly(-1, (F(-7, 3),))) == "-7/3*x^-1"
    assert str(LaurentPoly()) == "0"


def test_laurent_mul_matches_poly():
    p = Poly((1, 2, 1))
    u = of_poly(p)
    assert u * u == of_poly(p * p)
    shifted = u * LaurentPoly(-1, (1,))
    assert shifted.low == -1
    assert shifted.coeff(1) == 1


laurents = st.builds(LaurentPoly, st.integers(-6, 6),
                     st.lists(st.one_of(st.just(F(0)), rationals), max_size=5))


@given(laurents, laurents)
def test_laurent_mul_is_termwise_convolution(u, v):
    termwise = LaurentPoly.from_terms((i + j, a * b) for i, a in u.terms()
                                      for j, b in v.terms())
    assert u * v == termwise == v * u


@given(small_polys)
def test_laurent_str_matches_render(p):
    assert str(of_poly(p)) == render(p)


def test_laurent_cancellation_normalizes():
    assert LaurentPoly.from_terms([(-1, F(1)), (-1, F(-1))]) == LaurentPoly()
    v = LaurentPoly.from_terms([(-1, F(1)), (-1, F(-1)), (0, F(4))])
    assert (v.low, v.coeffs) == (0, (4,))
    assert LaurentPoly(-4, (0, 0, F(5), 0)) == LaurentPoly(-2, (F(5),))
    assert LaurentPoly(3, (0, 0)) == LaurentPoly() and LaurentPoly().low == 0


@pytest.mark.parametrize("n", [100, 200])
def test_integer_roots_evaluates_ends_of_wide_gaps_only(n, monkeypatch):
    """prod_{k<n} (2x - 2k - 1) has n real roots, none an integer, and its
    derivatives' roots interlace, so most gaps between ends are unit gaps,
    where no evaluation can find a root.  Evaluating only the ends of wider
    gaps stays within 2 * deg * log2(hi - lo + 2) evaluations; evaluating
    every end at every level took 7,889 and 30,051."""
    p = Poly.one()
    for k in range(n):
        p = p * Poly((-2 * k - 1, 2))
    calls = 0
    horner = casolag.poly._horner

    def counted(cs, x):
        nonlocal calls
        calls += 1
        return horner(cs, x)

    monkeypatch.setattr(casolag.poly, "_horner", counted)
    assert integer_roots(p, 0, 10 ** 9) == []
    assert 0 < calls <= 2 * n * math.ceil(math.log2(10 ** 9 + 2))

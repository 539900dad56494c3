import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from casolag import (Poly, binom_rat, casoratian, parse_poly, poch,
                     to_binomial_basis)
from casolag.special import binom_poly


def combinatorial_identity_check(alpha: int, k: int, l: int, u_max: int) -> bool:
    """Exact check of the alternating binomial convolution

        sum_{j=0}^{l-alpha-k} (-1)^j binom(alpha+j+k-l-1, j) binom(alpha+u, alpha+j)
            = binom(u+l-k, l-k)

    for all integers u = 0..u_max.  Requires l >= alpha + k >= 0.
    """
    if alpha < 0 or k < 0 or l < alpha + k:
        raise ValueError("needs alpha, k >= 0 and l >= alpha + k")
    for u in range(u_max + 1):
        lhs = F(0)
        for j in range(l - alpha - k + 1):
            lhs += (-1) ** j * binom_rat(alpha + j + k - l - 1, j) * binom_rat(alpha + u, alpha + j)
        if lhs != binom_rat(u + l - k, l - k):
            return False
    return True


def test_poch_values():
    assert poch(F(3), 0) == 1
    assert poch(F(3), 4) == 3 * 4 * 5 * 6
    assert poch(F(1, 2), 2) == F(3, 4)
    assert poch(F(-2), 3) == 0  # crosses zero


def test_poch_negative_n_rejected():
    with pytest.raises(ValueError):
        poch(F(1), -1)


def test_binom_rat():
    assert binom_rat(F(5), 2) == 10
    assert binom_rat(F(5), 0) == 1
    assert binom_rat(F(5), -1) == 0
    assert binom_rat(F(7, 2), 2) == F(35, 8)
    # upper index smaller than k is fine (falling factorial hits zero)
    assert binom_rat(F(2), 3) == 0


def test_binom_poly():
    assert binom_poly(0) == Poly.one()
    assert binom_poly(2) == parse_poly("1/2*x^2+3/2*x+1")
    assert binom_poly(3).lead == F(1, 6)


@pytest.mark.parametrize("l", [0, 1, 2, 7, 30])
def test_binom_poly_is_the_product_of_its_factors(l):
    p = Poly.one()
    for k in range(1, l + 1):
        p = p * Poly((k, 1))
    assert binom_poly(l) == p * F(1, math.factorial(l))


def test_binomial_basis_example():
    # x + 2 = 1*binom(x,0) + ... no: binom(x+1,1) = x+1, so x+2 = (x+1) + 1
    assert to_binomial_basis(parse_poly("x+2")) == [F(1), F(1)]
    assert to_binomial_basis(parse_poly("x^2")) == [F(1), F(-3), F(2)]


def reference_to_binomial_basis(p):
    """The change of basis by peeling: binom_poly(l) has degree l and
    leading coefficient 1/l!, so subtract from the top degree downward."""
    if p.is_zero():
        return [F(0)]
    w = [F(0)] * (p.degree + 1)
    rest = p
    for l in range(p.degree, -1, -1):
        w[l] = rest.coeff(l) * math.factorial(l)
        if w[l] != 0:
            rest = rest - w[l] * binom_poly(l)
    assert rest.is_zero()
    return w


rats = st.fractions(min_value=-100, max_value=100, max_denominator=20)


@settings(max_examples=200)
@given(st.lists(rats, min_size=0, max_size=9))
@example([])  # zero
@example([F(-7, 3)])  # constant
@example([F(0), F(0), F(1, 6)])
def test_binomial_basis_matches_peeling_reference(coeffs):
    p = Poly(coeffs)
    assert to_binomial_basis(p) == reference_to_binomial_basis(p)


@given(st.lists(rats, min_size=1, max_size=6))
def test_binomial_roundtrip(coeffs):
    p = Poly(coeffs)
    w = to_binomial_basis(p)
    assert sum((c * binom_poly(l) for l, c in enumerate(w)), Poly.zero()) == p
    assert len(w) == (0 if p.is_zero() else p.degree) + 1


def test_casoratian_single():
    p = parse_poly("x^2+1")
    assert casoratian([p]) == p


def test_casoratian_known_value():
    # det [[p(x), p(x-1)], [q(x), q(x-1)]] for p = x, q = x^2
    d = casoratian([parse_poly("x"), parse_poly("x^2")])
    assert d == parse_poly("-x^2+x")  # x(x-1)^2 - (x-1)x^2


@settings(max_examples=25)
@given(st.lists(rats, min_size=1, max_size=3),
       st.lists(rats, min_size=1, max_size=4))
def test_casoratian_degree_rule_2x2(c1, c2):
    # degree of the determinant is deg p1 + deg p2 - 1 when degrees differ
    p1, p2 = Poly(c1 + [F(1)]), Poly(c2 + [F(1)])
    if p1.degree == p2.degree:
        return
    d = casoratian([p1, p2])
    assert d.degree == p1.degree + p2.degree - 1


def test_casoratian_repeated_rows_vanish():
    p = parse_poly("x^3+x")
    assert casoratian([p, p]).is_zero()


def test_combinatorial_identity_small_grid():
    # sum_j (-1)^j binom(a+j+k-l-1, j) binom(a+u, a+j) = binom(u+l-k, l-k)
    for alpha in (1, 2, 3):
        for k in (0, 1, 2):
            for l in range(alpha + k, alpha + k + 3):
                assert combinatorial_identity_check(alpha, k, l, u_max=12)

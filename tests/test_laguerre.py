import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from casolag import (DegenerateFamily, FamilySpec, Poly, binom_rat, laguerre, parse_poly,
                     poch, q_poly)
from casolag.laguerre import laguerre_ints

from test_expansion_reference import fraction_rung
from test_poly import deriv

ALPHAS = (F(7), F(3, 2), F(22, 7), F(1), F(0), F(-1, 3))


def test_laguerre_small_integer_alpha():
    # classical alpha = 0 table
    assert laguerre(0, F(0)) == Poly.one()
    assert laguerre(1, F(0)) == parse_poly("-x+1")
    assert laguerre(2, F(0)) == parse_poly("1/2*x^2-2*x+1")
    assert laguerre(3, F(0)) == parse_poly("-1/6*x^3+3/2*x^2-3*x+1")


def test_laguerre_alpha_dependence():
    assert laguerre(1, F(7)) == parse_poly("-x+8")
    assert laguerre(2, F(1, 2)) == parse_poly("1/2*x^2-5/2*x+15/8")


def test_laguerre_lead_and_degree():
    for alpha in ALPHAS:
        for n in range(6):
            p = laguerre(n, alpha)
            assert p.degree == n
            assert p.lead == F((-1) ** n, math.factorial(n))


def test_laguerre_matches_closed_form():
    # sum_j (-x)^j/j! binom(n+alpha, n-j), with the binomial as a
    # Pochhammer quotient: it vanishes, without a division, where the
    # term-ratio build would see alpha+j+1 = 0 at negative integer alpha
    for alpha in (F(7), F(22, 7), F(-3, 2), F(-3), F(-1), F(0), F(1), F(-10)):
        for n in range(41):
            closed = Poly([(-1) ** j * poch(alpha + j + 1, n - j)
                           / (math.factorial(n - j) * math.factorial(j))
                           for j in range(n + 1)])
            assert laguerre(n, alpha) == closed


def ratio_laguerre(n, alpha):
    """L_n^alpha in Fractions, top down from c_n = (-1)^n/n! by the ratio of
    consecutive terms, c_j = -c_(j+1) (j+1)(alpha+j+1)/(n-j), which never
    divides by alpha+j+1: the reference for the integer numerators."""
    coeffs = [F((-1) ** n, math.factorial(n))]
    for j in range(n - 1, -1, -1):
        coeffs.append(-coeffs[-1] * (j + 1) * (alpha + j + 1) / (n - j))
    return Poly(coeffs[::-1])


# integer, negative integer (where L_n loses its low terms) and rational alpha
alphas = st.one_of(st.integers(0, 12).map(F), st.integers(-12, -1).map(F),
                   st.builds(F, st.integers(-40, 40), st.integers(2, 9)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), alphas)
def test_laguerre_ints_match_ratio_recurrence(n, alpha):
    ints = laguerre_ints(n, alpha.numerator, alpha.denominator)
    assert len(ints) == n + 1 and all(type(c) is int for c in ints)
    ref = ratio_laguerre(n, alpha)
    assert Poly(ints) == math.factorial(n) * alpha.denominator ** n * ref
    assert laguerre(n, alpha) == ref


SEEDS = [{1: "x-1", 2: "x^2+1", 5: "x^5+x^4+x^3+1"}, {2: "x^2+1", 3: "x^3+x"},
         {1: "x+2", 2: "x^2", 4: "x^4+1"}, {1: "1/2*x-2/3", 3: "3*x^3-1/5*x"},
         {2: "x^2", 3: "x^3"}]  # the last has Omega(1) = 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 16), alphas, st.sampled_from(SEEDS))
def test_q_poly_matches_reference_laguerre_sum(n, alpha, seeds):
    # q_n, summed in integers, against sum_j beta_(n,j) L_(n-j) in Fractions
    spec = FamilySpec(alpha, tuple(seeds), {g: parse_poly(r) for g, r in seeds.items()})
    try:
        betas = fraction_rung(spec, n)
    except DegenerateFamily:
        with pytest.raises(DegenerateFamily):
            q_poly(spec, n)
        return
    expected = Poly.zero()
    for j, b in enumerate(betas):
        expected = expected + b * ratio_laguerre(n - j, alpha)
    assert q_poly(spec, n) == expected


def test_laguerre_ode():
    # x y'' + (alpha + 1 - x) y' + n y = 0
    for alpha in (F(7), F(22, 7)):
        for n in range(5):
            y = laguerre(n, alpha)
            lhs = (Poly.x() * deriv(y, 2)
                   + (Poly.const(alpha + 1) - Poly.x()) * deriv(y)
                   + n * y)
            assert lhs.is_zero()


def test_deriv_at_zero_closed_form():
    for alpha in ALPHAS:
        for n in range(7):
            p = laguerre(n, alpha)
            for j in range(n + 1):
                # closed form (-1)^j binom(n+alpha, alpha+j), written with
                # the complementary integer index n-j
                direct = deriv(p, j)(F(0))
                assert direct == (-1) ** j * binom_rat(n + alpha, n - j)


@settings(max_examples=30)
@given(st.integers(0, 8),
       st.sampled_from([F(7), F(3, 2), F(22, 7)]),
       st.sampled_from([F(1), F(5, 2), F(3)]))
def test_connection_formula(n, alpha, beta):
    # L_n^alpha = sum_j (alpha-beta)_j/j! L_{n-j}^beta
    combo = Poly.zero()
    for j in range(n + 1):
        c = poch(alpha - beta, j) / math.factorial(j)
        combo = combo + c * laguerre(n - j, beta)
    assert combo == laguerre(n, alpha)


def gamma_ratio(alpha, s):
    # Gamma(alpha+s)/Gamma(alpha) for integer s, away from Gamma poles
    return poch(alpha, s) if s >= 0 else 1 / poch(alpha + s, -s)


def monomial_moment(j, alpha, shift):
    # integral of x^j against mu_{alpha+shift}, normalized by Gamma(alpha)
    return gamma_ratio(alpha, shift + j + 1)


def weight_moment(n, alpha, l):
    # integral of L_n^alpha against mu_{alpha-l}, termwise
    p = laguerre(n, alpha)
    return sum((p.coeff(t) * monomial_moment(t, alpha, -l)
                for t in range(n + 1)), F(0))


def test_monomial_moment():
    assert monomial_moment(0, F(7), 0) == 7
    assert monomial_moment(1, F(7), 0) == 7 * 8
    assert monomial_moment(0, F(7), -3) == F(1, 5 * 6)


def test_weight_moment_against_termwise():
    # closed form gamma_ratio(alpha, 1-l) (l)_n / n!; the Pochhammer factor
    # also covers l <= 0, where the value vanishes exactly for n > -l
    for alpha in (F(7), F(22, 7)):
        for l in range(0, 4):
            for n in range(6):
                closed = gamma_ratio(alpha, 1 - l) * poch(F(l), n) / math.factorial(n)
                assert weight_moment(n, alpha, l) == closed


def test_weight_moment_binomial_form():
    # for l >= 1 the normalized value is binom(n+l-1, l-1)/poch(alpha+1-l, l-1)
    alpha = F(7)
    for l in range(1, 4):
        for n in range(6):
            expected = binom_rat(F(n + l - 1), l - 1) / poch_like(alpha, l)
            assert weight_moment(n, alpha, l) == expected


def poch_like(alpha, l):
    out = F(1)
    for k in range(l - 1):
        out *= alpha + 1 - l + k
    return out


def test_weight_moment_corners():
    # n = 0: plain normalized weight mass Gamma(alpha-l+1)/Gamma(alpha)
    assert weight_moment(0, F(7), 0) == 7
    assert weight_moment(0, F(7), 2) == F(1, 6)
    # l = 0 and n >= 1: weight is mu_alpha itself, orthogonal to L_n
    assert weight_moment(3, F(7), 0) == 0

"""Pochhammer symbols, generalized binomials, the binomial basis
binom(x+l, l), and Casoratian determinants.

Gamma functions never appear alone in this package: the moments of the
Laguerre weight, normalized by Gamma(alpha), are the Pochhammer symbols
(alpha)_s = Gamma(alpha+s)/Gamma(alpha), which keeps the entire computation
inside the rationals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .linalg import det_rat
from .poly import Poly, as_rat


def poch(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("poch needs n >= 0")
    a = as_rat(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def binom_rat(top, k: int) -> Fraction:
    """Generalized binomial binom(top, k) for integer k; 0 when k < 0."""
    if k < 0:
        return Fraction(0)
    top = as_rat(top)
    return poch(top - k + 1, k) / math.factorial(k)


def binom_poly(l: int) -> Poly:
    """binom(x+l, l) = (x+1)(x+2)...(x+l)/l! as a Poly of degree l."""
    if l < 0:
        raise ValueError("binom_poly needs l >= 0")
    p = Poly.one()
    for k in range(1, l + 1):
        p = p * Poly((k, 1))
    return p * Fraction(1, math.factorial(l))


def to_binomial_basis(p: Poly) -> list[Fraction]:
    """Coefficients w with p = sum_l w[l]*binom_poly(l).

    The change of basis is triangular: binom_poly(l) has degree l and
    leading coefficient 1/l!, so peel from the top degree downward.
    """
    if p.is_zero():
        return [Fraction(0)]
    d = p.degree
    w = [Fraction(0)] * (d + 1)
    rest = p
    for l in range(d, -1, -1):
        w[l] = rest.coeff(l) * math.factorial(l)
        if w[l] != 0:
            rest = rest - w[l] * binom_poly(l)
    assert rest.is_zero()
    return w


def from_binomial_basis(w: Sequence) -> Poly:
    """Inverse of to_binomial_basis."""
    out = Poly.zero()
    for l, c in enumerate(w):
        c = as_rat(c)
        if c != 0:
            out = out + c * binom_poly(l)
    return out


def casoratian(polys: Sequence[Poly]) -> Poly:
    """Shifted-argument determinant det(p_i(x-j)), i = 1..s, j = 0..s-1.

    The discrete analogue of the Wronskian.  Taking backward differences of
    the columns shows deg <= D = sum(deg p_i) - s(s-1)/2, with equality for
    pairwise distinct degrees; a repeated degree forces a strictly smaller
    one.  The determinant is therefore interpolated exactly, in Newton form,
    from its values at x = 0..D.
    """
    s = len(polys)
    if s < 1:
        raise ValueError("casoratian needs at least one polynomial")
    if any(p.is_zero() for p in polys):
        return Poly.zero()
    D = sum(p.degree for p in polys) - s * (s - 1) // 2
    c = [det_rat([[p(x - j) for j in range(s)] for p in polys]) for x in range(D + 1)]
    # divided differences on the nodes 0..D, in place: c[k] = f[0, ..., k]
    for k in range(1, D + 1):
        for i in range(D, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / k
    out = Poly.zero()
    for k in range(D, -1, -1):
        out = out * Poly((-k, 1)) + c[k]
    return out


def combinatorial_identity_check(alpha: int, k: int, l: int, u_max: int) -> bool:
    """Exact check of the alternating binomial convolution

        sum_{j=0}^{l-alpha-k} (-1)^j binom(alpha+j+k-l-1, j) binom(alpha+u, alpha+j)
            = binom(u+l-k, l-k)

    for all integers u = 0..u_max.  Requires l >= alpha + k >= 0.
    """
    if alpha < 0 or k < 0 or l < alpha + k:
        raise ValueError("needs alpha, k >= 0 and l >= alpha + k")
    for u in range(u_max + 1):
        lhs = Fraction(0)
        for j in range(l - alpha - k + 1):
            lhs += (-1) ** j * binom_rat(alpha + j + k - l - 1, j) * binom_rat(alpha + u, alpha + j)
        if lhs != binom_rat(u + l - k, l - k):
            return False
    return True

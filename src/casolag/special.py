"""Pochhammer symbols, generalized binomials, the binomial basis
binom(x+l, l), and Casoratian determinants.

Seeds are evaluated at integers in one place, _shifted_values: each is
scaled to integer coefficients, so the Casoratian's value matrices (Omega's
too), the beta rows' minors (family.beta), the kappa systems
(forms.kappa_solve) and the binomial-basis weights all start from integer
values and build Fractions only for what they return.

Gamma functions never appear alone in this package: the moments of the
Laguerre weight, normalized by Gamma(alpha), are the Pochhammer symbols
(alpha)_s = Gamma(alpha+s)/Gamma(alpha), which keeps the entire computation
inside the rationals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .linalg import det_int
from .poly import Poly, as_rat, clear_denominators


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
    """binom(x+l, l) = (x+1)(x+2)...(x+l)/l! as a Poly of degree l, with
    the product's coefficients built in integers."""
    if l < 0:
        raise ValueError("binom_poly needs l >= 0")
    c = [1]
    for k in range(1, l + 1):  # c times (x + k)
        c = [a * k + b for a, b in zip(c + [0], [0] + c)]
    f = math.factorial(l)
    return Poly(Fraction(v, f) for v in c)


def to_binomial_basis(p: Poly) -> list[Fraction]:
    """Coefficients w with p = sum_l w[l]*binom_poly(l).

    binom(x+l, l) vanishes at x = -1..-l and is (-1)^l binom(k, l) at
    x = -1-k, so the weights are the inverse binomial transform of the
    values p(-1-k), k = 0..deg p: w_l = sum_{k<=l} (-1)^k binom(l, k)
    p(-1-k), taken by differences on the integer values of the cleared p.
    """
    if p.is_zero():
        return [Fraction(0)]
    lcm, (v,) = _shifted_values([p], -1, p.degree + 1)  # v[k] = lcm * p(-1-k)
    for l in range(1, len(v)):
        for k in range(len(v) - 1, l - 1, -1):
            v[k] = v[k - 1] - v[k]
    return [Fraction(c, lcm) for c in v]


@lru_cache(maxsize=64)
def _cleared(p: Poly) -> tuple[int, tuple[int, ...]]:
    """(lcm, lcm * p's coefficients): a seed's integer form, cleared once
    however many rows evaluate it."""
    lcm, ints = clear_denominators(p.coeffs)
    return lcm, tuple(ints)


def _shifted_values(polys: Sequence[Poly], x: int, width: int) -> tuple[int, list[list[int]]]:
    """(scale, rows) with rows[i][j] = lcm_i * p_i(x - j), j < width, in
    integers: lcm_i clears p_i's denominators, and scale is their product."""
    scale, rows = 1, []
    for p in polys:
        lcm, ints = _cleared(p)
        row = [0] * width
        for c in reversed(ints):  # Horner at x, x-1, ..., x-width+1 at once
            row = [v * (x - j) + c for j, v in enumerate(row)]
        rows.append(row)
        scale *= lcm
    return scale, rows


def casoratian(polys: Sequence[Poly], shift: int = 0) -> Poly:
    """Shifted-argument determinant det(p_i(x-shift-j)), i = 1..s, j = 0..s-1.

    The discrete analogue of the Wronskian at shift 0 (family.omega takes
    1).  Backward differences of the columns show deg <= D = sum(deg p_i)
    - s(s-1)/2, with equality for distinct degrees; a repeated degree
    forces a strictly smaller one, and D < 0 forces zero.  So it is
    interpolated exactly from its values at x = 0..D, all in integers:
    det_int of the cleared seed values at x-shift-j, forward differences,
    and the Newton form times D! by Horner, divided once per coefficient.
    """
    s = len(polys)
    if s < 1:
        raise ValueError("casoratian needs at least one polynomial")
    D = sum(p.degree for p in polys) - s * (s - 1) // 2
    if D < 0:  # also when a seed is zero, of degree -inf
        return Poly.zero()
    # vals[i][D-x+j] = lcm_i * p_i(x-shift-j): the columns of every node x = 0..D
    scale, vals = _shifted_values(polys, D - shift, D + s)
    c = [det_int([row[D - x:D - x + s] for row in vals]) for x in range(D + 1)]
    # forward differences on the nodes 0..D, in place: c[k] = k! f[0, ..., k]
    for k in range(1, D + 1):
        for i in range(D, k - 1, -1):
            c[i] -= c[i - 1]
    # D! f = sum_k c[k] D!/k! x(x-1)...(x-k+1), nested from k = D down
    out, f = [], 1
    for k in range(D, -1, -1):
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += c[k] * f
        f *= k
    return Poly(Fraction(v, scale * math.factorial(D)) for v in out)

"""Classical Laguerre polynomials over exact rationals.

The parameter alpha = p/q is a rational number throughout.  n! q^n L_n^alpha
has integer coefficients, and those are memoised per (n, p, q), so the q
ladder (family.q_poly) can combine them in integers.  Integrals against the
Laguerre weight are not computed here: the bilinear forms in forms.py reduce
every one of them to Pochhammer symbols in one Gram formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import Poly, as_rat


@lru_cache(maxsize=None)
def laguerre_ints(n: int, p: int, q: int) -> tuple[int, ...]:
    """The coefficients of n! q^n L_n^(p/q), q > 0, ascending:
    (-1)^k binom(n, k) q^k prod_{i=k+1..n} (p + i q), built top down."""
    out, prod = [], 1
    for k in range(n, -1, -1):
        out.append((-1) ** k * math.comb(n, k) * q ** k * prod)
        prod *= p + k * q
    return tuple(out[::-1])


def laguerre(n: int, alpha) -> Poly:
    """L_n with parameter alpha: sum_j (-x)^j/j! binom(n+alpha, n-j)."""
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    alpha = as_rat(alpha)
    den = math.factorial(n) * alpha.denominator ** n
    return Poly(Fraction(c, den) for c in laguerre_ints(n, alpha.numerator, alpha.denominator))

"""Classical Laguerre polynomials over exact rationals.

The parameter alpha is a rational number throughout, and each L_n^alpha is
memoised per (n, alpha).  Integrals against the Laguerre weight are not
computed here: the bilinear forms in forms.py reduce every one of them to
Pochhammer symbols (special.poch) in one Gram formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import Poly, as_rat


@lru_cache(maxsize=None)
def _laguerre_cached(n: int, alpha: Fraction) -> Poly:
    # top down from c_n = (-1)^n/n!, by the ratio of consecutive terms:
    # c_j = -c_{j+1} (j+1)(alpha+j+1)/(n-j), which never divides by alpha+j+1
    coeffs = [Fraction((-1) ** n, math.factorial(n))]
    for j in range(n - 1, -1, -1):
        coeffs.append(-coeffs[-1] * (j + 1) * (alpha + j + 1) / (n - j))
    return Poly(coeffs[::-1])


def laguerre(n: int, alpha) -> Poly:
    """L_n with parameter alpha: sum_j (-x)^j/j! binom(n+alpha, n-j)."""
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    return _laguerre_cached(n, as_rat(alpha))

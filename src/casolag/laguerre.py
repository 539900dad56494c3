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
from .special import poch


@lru_cache(maxsize=None)
def _laguerre_cached(n: int, alpha: Fraction) -> Poly:
    coeffs = []
    for j in range(n + 1):
        # binom(n+alpha, n-j) = poch(alpha+j+1, n-j)/(n-j)!
        b = poch(alpha + j + 1, n - j) / math.factorial(n - j)
        coeffs.append((-1) ** j * b / math.factorial(j))
    return Poly(coeffs)


def laguerre(n: int, alpha) -> Poly:
    """L_n with parameter alpha: sum_j (-x)^j/j! binom(n+alpha, n-j)."""
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    return _laguerre_cached(n, as_rat(alpha))

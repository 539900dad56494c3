"""Probe the algebra of band-compatible eigenvalue polynomials.

The polynomials Q admitting a banded recurrence form an algebra.  The probe
imposes the finitely many linear constraints "gamma_{n,j} = 0 below the band"
on a generic Q of bounded degree, solves exactly over the rationals, and then
re-verifies the surviving span on a strictly larger index range so that a
coincidental solution of the truncated system cannot slip through.
"""

from fractions import Fraction as F

from casolag import (FamilySpec, algebra_probe, parse_poly, render,
                     reverify_probe)

spec = FamilySpec(F(7), (1, 2, 5), {
    1: parse_poly("x-1"),
    2: parse_poly("x^2+1"),
    5: parse_poly("x^5+x^4+x^3+1"),
})

for d in (3, 4, 5):
    result = algebra_probe(spec, d)
    print(f"degree cap {d}: dimension {result.dimension}, "
          f"checked n <= {result.n_max}, band {result.band}")
    for p in result.basis:
        print("   ", render(p))
    print("  re-verified on rows up to n_max + 10:", reverify_probe(result))
    print()

# Consecutive seed degrees push the first nonconstant member up to
# x^(maxG+1); the gap below it is provably empty.
segment = FamilySpec(F(22, 7), (2, 3), {2: parse_poly("x^2+1"),
                                        3: parse_poly("x^3+x")})
for d in (3, 4):
    result = algebra_probe(segment, d)
    print(f"segment degrees {{2,3}}, cap {d}:",
          [render(p) for p in result.basis])

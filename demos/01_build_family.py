"""Build a polynomial family from difference-operator seeds.

A family is fixed by a rational weight parameter alpha, a set G of positive
integer degrees, and one monic-degree-g seed polynomial per g in G.  The
shifted-argument determinant of the seeds (a discrete Wronskian) must stay
nonzero on the nonnegative integers; when it does, every member q_n comes out
with exact degree n.
"""

from fractions import Fraction as F

from casolag import FamilySpec, certify_admissible, parse_poly, q_poly, render

spec = FamilySpec(F(7), (1, 2, 5), {
    1: parse_poly("x-1"),
    2: parse_poly("x^2+1"),
    5: parse_poly("x^5+x^4+x^3+1"),
})

cert = certify_admissible(spec)
print("determinant:", render(cert.omega))
print("admissible: ", cert.passed)
print("searched n <=", cert.integer_scan_bound, "(beyond the root bound the")
print("leading term dominates, and the derivative sequence isolates every")
print("integer root below it exactly, so the certificate is a proof)")
print()

for n in range(6):
    print(f"q_{n} =", render(q_poly(spec, n)))
print()

# An inadmissible choice: bare monomial seeds of degrees 2 and 3.  The
# determinant picks up an integer root and the construction stalls there.
bad = FamilySpec(F(22, 7), (2, 3), {2: parse_poly("x^2"),
                                    3: parse_poly("x^3")})
bad_cert = certify_admissible(bad)
print("monomial seeds: determinant", render(bad_cert.omega))
print("admissible:", bad_cert.passed, "- first zero at n =", bad_cert.fail_n)

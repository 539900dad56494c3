"""Certify orthogonality of a family under its closed-form bilinear pairing.

The pairing extends the Laguerre weight x^alpha e^{-x} (everything divided by
Gamma(alpha), so values are rational) by Laurent-tail corrections attached to
the first m powers of the second argument.  Two variants cover the parameter
range: a generic one, valid whenever alpha is not an integer in [1, maxG],
and a pole-free rearrangement for integer alpha in that range.
"""

from fractions import Fraction as F

from casolag import (BilinearForm, FamilySpec, ortho_check, parse_poly,
                     q_poly, rat_str)

generic_spec = FamilySpec(F(7), (1, 2, 5), {
    1: parse_poly("x-1"),
    2: parse_poly("x^2+1"),
    5: parse_poly("x^5+x^4+x^3+1"),
})
integer_spec = FamilySpec(F(1), (1, 2, 4), {
    1: parse_poly("x+2"),
    2: parse_poly("x^2"),
    4: parse_poly("x^4+1"),
})

for label, spec, make in (("generic (alpha = 7)", generic_spec,
                           BilinearForm.generic),
                          ("integer-range (alpha = 1)", integer_spec,
                           BilinearForm.xi)):
    form = make(spec)
    report = ortho_check(form, 8)
    print(f"{label}: triangular orthogonality up to n = 8:", report.passed)
    qs = [q_poly(spec, n) for n in range(5)]
    print("  pairing table <q_n, q_i>, i <= n <= 4:")
    for n in range(5):
        row = [rat_str(form.inner(qs[n], qs[i])) for i in range(n + 1)]
        print("   ", "  ".join(row))
    print()

# The correction coefficients solve small linear systems over the seeds;
# the canonical solution zeroes all free variables.
form = BilinearForm.generic(generic_spec)
for i in range(generic_spec.m):
    print(f"kappa row {i}:", [rat_str(v) for v in form.kappa.row(i)])

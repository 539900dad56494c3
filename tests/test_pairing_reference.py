"""Differential test of BilinearForm.inner against the direct pairing
algorithm: termwise Gamma ratios over p q^(d), over the Laurent products
p U_i, and, for the xi variant, an explicit loop over the discrete part."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from casolag import (BilinearForm, FamilySpec, LaurentPoly, PoleError, Poly,
                     VariantError, gamma_ratio, parse_poly, poch)
from casolag.special import to_binomial_basis


def reference_inner(form, p, q):
    spec = form.spec
    alpha, m = spec.alpha, spec.m
    if form.variant == "generic":
        d, shift = 0, 1 - m
    else:
        a = int(alpha)
        d, shift = max(0, m - a), max(0, a - m) + 1 - a
    total = F(0)
    for t, c in enumerate((p * q.deriv(d)).coeffs):
        if c != 0:
            total += c * gamma_ratio(alpha, t + shift)
    for i in range(m):
        qi = q.coeff(i)
        if qi == 0:
            continue
        prod = LaurentPoly.of_poly(p) * form.corrections()[i]
        for t, c in prod.terms():
            total += qi * c * gamma_ratio(alpha, t + 1)
        if form.variant == "xi":
            for kap, g in zip(form.kappa.row(i), spec.G):
                if g < a or kap == 0:
                    continue
                w = to_binomial_basis(spec.R[g])
                for j in range(g - a + 1):
                    s = sum((poch(alpha - l, j) * w[l] for l in range(a + j, g + 1)), F(0))
                    total += qi * kap * p.coeff(j) * s
    return total


NONSEGMENT = {1: "x-1", 2: "x^2+1", 5: "x^5+x^4+x^3+1"}
INTEGER_ALPHA = {1: "x+2", 2: "x^2", 4: "x^4+1"}
SEGMENT = {2: "x^2+1", 3: "x^3+x"}


def spec(alpha, seeds):
    return FamilySpec(alpha, tuple(seeds), {g: parse_poly(r) for g, r in seeds.items()})


# (variant, alpha, seeds): generic, segment, xi with m > alpha and xi with
# alpha = maxG >= m
FAMILIES = [
    ("generic", F(7), NONSEGMENT),
    ("generic", F(22, 7), SEGMENT),
    ("generic", F(-3, 2), NONSEGMENT),
    ("xi", F(1), INTEGER_ALPHA),
    ("xi", F(4), INTEGER_ALPHA),
]

coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
poly_p = st.lists(coeff, min_size=0, max_size=8).map(Poly)
# q up to degree 6: above and below m = 2, 3
poly_q = st.lists(coeff, min_size=0, max_size=7).map(Poly)


@pytest.mark.parametrize("variant,alpha,seeds", FAMILIES)
def test_inner_matches_reference(variant, alpha, seeds):
    # one form across all examples, so its memoised rows grow and get reused
    form = BilinearForm(spec(alpha, seeds), None, variant)

    @settings(max_examples=60, deadline=None)
    @given(poly_p, poly_q)
    def check(p, q):
        assert form.inner(p, q) == reference_inner(form, p, q)

    check()


@pytest.mark.parametrize("variant,alpha,seeds", [
    ("generic", F(1), INTEGER_ALPHA),
    ("generic", F(4), INTEGER_ALPHA),
    ("generic", F(0), SEGMENT),
    ("generic", F(-2), SEGMENT),
    ("xi", F(7), NONSEGMENT),
    ("xi", F(3, 2), INTEGER_ALPHA),
    ("xi", F(0), INTEGER_ALPHA),
    ("xi", F(5), INTEGER_ALPHA),
])
def test_variant_error_outside_range(variant, alpha, seeds):
    with pytest.raises(VariantError):
        BilinearForm(spec(alpha, seeds), None, variant)


def test_memoised_moment_keeps_pole_error():
    form = BilinearForm.xi(spec(F(1), INTEGER_ALPHA))
    for _ in range(2):  # a pole is never cached as a value
        with pytest.raises(PoleError):
            form._moment(-1)
    assert form._moment(-1 + 1) == 1

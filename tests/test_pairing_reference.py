"""Differential test of BilinearForm.inner's Gram formula against the
direct pairing algorithm: termwise Gamma ratios over p q^(d), over the
Laurent products p U_i with U_i built seed by seed, and, for the xi
variant, an explicit loop over the discrete part."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from casolag import (BilinearForm, FamilySpec, LaurentPoly, Poly,
                     VariantError, ortho_check, parse_poly, poch, q_poly)
from casolag.special import to_binomial_basis

from test_poly import deriv, of_poly


def gamma_ratio(alpha, s):
    """Gamma(alpha+s)/Gamma(alpha) for integer s, away from Gamma poles."""
    return poch(alpha, s) if s >= 0 else 1 / poch(alpha + s, -s)


def reference_params(form):
    """(d, sigma, l_cap): derivative order, weight shift and correction cap."""
    m, max_g = form.spec.m, form.spec.max_g
    if form.variant == "generic":
        return 0, 1 - m, max_g
    a = int(form.spec.alpha)
    return max(0, m - a), max(0, a - m) + 1 - a, a - 1


def reference_corrections(form):
    """U_i = -(i-m+alpha+1)_d x^(i-m)
             + sum_g kappa^g sum_{l <= min(g, l_cap)} (alpha-l)_l w_l^g x^(-l-1)."""
    spec = form.spec
    d, _, l_cap = reference_params(form)
    out = []
    for i in range(spec.m):
        terms = [(i - spec.m, -poch(i - spec.m + spec.alpha + 1, d))]
        for kap, g in zip(form.kappa.row(i), spec.G):
            w = to_binomial_basis(spec.R[g])
            for l in range(min(g, l_cap) + 1):
                terms.append((-l - 1, kap * poch(spec.alpha - l, l) * w[l]))
        out.append(LaurentPoly.from_terms(terms))
    return out


def reference_inner(form, p, q, corrections):
    spec = form.spec
    alpha, m = spec.alpha, spec.m
    d, shift, _ = reference_params(form)
    total = F(0)
    for t, c in enumerate((p * deriv(q, d)).coeffs):
        if c != 0:
            total += c * gamma_ratio(alpha, t + shift)
    for i in range(m):
        qi = q.coeff(i)
        if qi == 0:
            continue
        prod = of_poly(p) * corrections[i]
        for t, c in prod.terms():
            total += qi * c * gamma_ratio(alpha, t + 1)
        if form.variant == "xi":
            a = int(alpha)
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
# m = 4 seeds, so d = 2 at alpha = 2
WIDE = {2: "x^2+1", 3: "x^3+x", 4: "x^4-x+3", 5: "x^5+2"}


def spec(alpha, seeds):
    return FamilySpec(alpha, tuple(seeds), {g: parse_poly(r) for g, r in seeds.items()})


# (variant, alpha, seeds): generic, segment, then xi at the boundaries of
# d = max(0, m - alpha): d = 2, d = 0 at alpha = maxG > m, d = 1, d = 0 at
# alpha = m, and d = 2 with m = 4
FAMILIES = [
    ("generic", F(7), NONSEGMENT),
    ("generic", F(22, 7), SEGMENT),
    ("generic", F(-3, 2), NONSEGMENT),
    ("xi", F(1), INTEGER_ALPHA),
    ("xi", F(4), INTEGER_ALPHA),
    ("xi", F(2), INTEGER_ALPHA),
    ("xi", F(3), INTEGER_ALPHA),
    ("xi", F(2), WIDE),
]

coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
poly_p = st.lists(coeff, min_size=0, max_size=8).map(Poly)
# q up to degree 6: above and below m = 2, 3, 4
poly_q = st.lists(coeff, min_size=0, max_size=7).map(Poly)


@pytest.mark.parametrize("variant,alpha,seeds", FAMILIES)
def test_inner_matches_reference(variant, alpha, seeds):
    # one form across all examples, so its memoised columns grow and get reused
    form = BilinearForm(spec(alpha, seeds), None, variant)
    corrections = reference_corrections(form)
    assert form.corrections() == corrections

    @settings(max_examples=60, deadline=None)
    @given(poly_p, poly_q)
    def check(p, q):
        assert form.inner(p, q) == reference_inner(form, p, q, corrections)

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


@pytest.mark.parametrize("variant,alpha,seeds", [
    ("generic", F(7), NONSEGMENT),
    ("xi", F(1), INTEGER_ALPHA),
    ("xi", F(2), WIDE),
    # rational alpha: every integer table of the form and of the q ladder
    # carries powers of alpha's denominator
    ("generic", F(22, 7), SEGMENT),
    ("generic", F(-5, 2), NONSEGMENT),
])
def test_ortho_check_entries_match_reference(variant, alpha, seeds):
    # every pairing of the triangle goes through the form's memoised Gram
    # row of q_n; the reference pairs each (q_n, q_i) from scratch
    s = spec(alpha, seeds)
    form = BilinearForm(s, None, variant)
    corrections = reference_corrections(form)
    nmax = 20
    report = ortho_check(form, nmax)
    assert report.passed
    qs = [q_poly(s, n) for n in range(nmax + 1)]
    assert [(n, i) for n, i, _ in report.entries] == [
        (n, i) for n in range(nmax + 1) for i in range(n + 1)]
    for n, i, v in report.entries:
        assert v == reference_inner(form, qs[n], qs[i], corrections), (n, i)

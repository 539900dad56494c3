import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import casolag.forms
from casolag import (BilinearForm, DegenerateFamily, FamilySpec, InconsistentSystem,
                     KappaMatrix, LaurentPoly, Poly, VariantError, binom_rat,
                     closed_form_moment, kappa_matrix, kappa_solve, laguerre, ortho_check,
                     parse_poly, poch, q_poly, solve_linear, u_function)
from casolag.forms import _row_weights, _seed_weights, _seed_ws
from casolag.special import to_binomial_basis


def u_function_alt(spec, kappa_row, i):
    """Collapsed form of u_function, valid when kappa_row annihilates the
    seed values at -1..-(m-1-i): the powers above x^(i-m) cancel and

        U_i = -x^(i-m) + sum_{l=m-i-1}^{maxG} (alpha-l)_l W[l] x^(-l-1).
    """
    W = _row_weights(spec, kappa_row)
    return LaurentPoly.from_terms(
        [(i - spec.m, -1)]
        + [(-l - 1, poch(spec.alpha - l, l) * W[l])
           for l in range(max(spec.m - i - 1, 0), spec.max_g + 1)])


def eval_seed_sum(spec, kappa_row, x):
    return sum((k * spec.R[g](x) for k, g in zip(kappa_row, spec.G)), F(0))


def test_kappa_rows_satisfy_defining_equations(nonsegment_spec):
    spec = nonsegment_spec
    m = spec.m
    for i in range(m):
        row = kappa_solve(spec, i)
        # vanishing at -1 .. -(m-1-i), normalization at -(m-i)
        for j in range(1, m - i):
            assert eval_seed_sum(spec, row, F(-j)) == 0
        assert eval_seed_sum(spec, row, F(-(m - i))) == 1


def test_kappa_matrix_collects_rows(nonsegment_spec):
    km = kappa_matrix(nonsegment_spec)
    for i in range(nonsegment_spec.m):
        assert km.row(i) == tuple(kappa_solve(nonsegment_spec, i))


def test_kappa_top_row_has_no_constraints():
    # i = m-1 row: only the normalization equation
    spec = FamilySpec(F(7), (1, 2), {1: parse_poly("x+1"),
                                     2: parse_poly("x^2+x+1")})
    row = kappa_solve(spec, 1)
    assert eval_seed_sum(spec, row, F(-1)) == 1


def reference_kappa_solve(spec, i):
    """The solve kappa_solve used to take, on the seeds' Fraction values from
    Poly.__call__ rather than their cleared integer values."""
    m = spec.m
    rows = [[spec.R[g](-j) for g in spec.G] for j in range(1, m - i + 1)]
    try:
        sol = solve_linear(rows, [F(0)] * (m - i - 1) + [F(1)])
    except InconsistentSystem as e:
        raise DegenerateFamily("kappa system unsolvable; Omega(0) must vanish") from e
    return list(sol.particular)


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def rational_families(draw):
    G = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=4)))
    R = {g: Poly(draw(st.lists(small_rationals, min_size=g, max_size=g))
                 + [draw(small_rationals.filter(bool))]) for g in G}
    return FamilySpec(F(17, 2), tuple(G), R)


def assert_kappa_matches_reference(spec):
    for i in range(spec.m):
        try:
            expected = reference_kappa_solve(spec, i)
        except DegenerateFamily:
            with pytest.raises(DegenerateFamily):
                kappa_solve(spec, i)
        else:
            assert kappa_solve(spec, i) == expected


@settings(max_examples=150, deadline=None)
@given(rational_families())
def test_kappa_solve_matches_poly_call_reference(spec):
    assert_kappa_matches_reference(spec)


def test_kappa_solve_degenerate_matches_reference():
    # R_1(-2) = R_2(-2) = 0: the normalization row of kappa row 0 reads 0 = 1
    spec = FamilySpec(F(7), (1, 2), {1: parse_poly("x+2"), 2: parse_poly("1/2*x^2+x")})
    with pytest.raises(DegenerateFamily):
        reference_kappa_solve(spec, 0)
    assert_kappa_matches_reference(spec)


def test_kappa_row_of_wrong_length_is_refused(nonsegment_spec):
    spec = nonsegment_spec
    row = kappa_solve(spec, 0)
    assert closed_form_moment(spec, row, 0, 3) == F(-70, 17)
    for bad in (row[:2], row + [F(1)]):
        with pytest.raises(ValueError, match=f"m = 3 entries, got {len(bad)}"):
            closed_form_moment(spec, bad, 0, 3)
        for u in (u_function, u_function_alt):
            with pytest.raises(ValueError, match=f"m = 3 entries, got {len(bad)}"):
                u(spec, bad, 0)


def test_kappa_matrix_without_m_rows_is_refused(nonsegment_spec):
    rows = kappa_matrix(nonsegment_spec).rows
    with pytest.raises(ValueError, match="m = 3 rows, got 2"):
        BilinearForm(nonsegment_spec, KappaMatrix(rows[:2]), "generic")
    with pytest.raises(ValueError, match="m = 3 entries, got 2"):
        BilinearForm(nonsegment_spec, KappaMatrix(rows[:2] + (rows[2][:2],)), "generic")


def test_u_function_variants_agree(nonsegment_spec, integer_alpha_spec):
    # the two correction expansions coincide exactly when kappa satisfies
    # the vanishing equations
    for spec in (nonsegment_spec, integer_alpha_spec):
        for i in range(spec.m):
            row = kappa_solve(spec, i)
            assert u_function(spec, row, i) == u_function_alt(spec, row, i)


def test_u_function_variants_differ_off_solution(nonsegment_spec):
    spec = nonsegment_spec
    row = [F(1)] * spec.m  # not a solution of the equations
    assert u_function(spec, row, 0) != u_function_alt(spec, row, 0)


def test_u_function_example():
    # single seed x+2: w = (1, 1), U_0 = -x^-1 + kappa*(x^-1 + (a-1)x^-2)
    spec = FamilySpec(F(7), (1,), {1: parse_poly("x+2")})
    assert to_binomial_basis(spec.R[1]) == [F(1), F(1)]
    row = kappa_solve(spec, 0)
    assert row == [F(1)]  # normalization: kappa * R(-1) = kappa * 1 = 1
    u = u_function(spec, row, 0)
    assert u.coeff(-1) == -1 + 1
    assert u.coeff(-2) == F(6)  # (alpha - 1) * w_1


def test_generic_variant_guard(integer_alpha_spec):
    with pytest.raises(VariantError):
        BilinearForm.generic(integer_alpha_spec)
    with pytest.raises(VariantError):
        BilinearForm.xi(FamilySpec(F(7), (1,), {1: parse_poly("x")}))


def test_generic_inner_small_case():
    # m = 1, R = x+2, alpha = 7: <1,1> = R(0) = 2 by the closed form
    spec = FamilySpec(F(7), (1,), {1: parse_poly("x+2")})
    form = BilinearForm.generic(spec)
    one = Poly.one()
    assert form.inner(laguerre(0, spec.alpha), one) == 2
    # k = u = 1: both routes give alpha - 1
    assert form.inner(Poly.x() * laguerre(1, spec.alpha), one) == 6


def test_closed_form_moment_matches_inner(nonsegment_spec, integer_alpha_spec):
    for spec, mk in ((nonsegment_spec, BilinearForm.generic),
                     (integer_alpha_spec, BilinearForm.xi)):
        form = mk(spec)
        for u in range(5):
            for k in range(u + 1):
                p = Poly.monomial(k) * laguerre(u, spec.alpha)
                for i in range(spec.m):
                    assert form.inner(p, Poly.monomial(i)) == \
                        closed_form_moment(spec, form.kappa.row(i), k, u)


def test_closed_form_moment_requires_k_le_u(nonsegment_spec):
    row = kappa_solve(nonsegment_spec, 0)
    with pytest.raises(ValueError):
        closed_form_moment(nonsegment_spec, row, 3, 2)


def reference_closed_form_moment(spec, kappa_row, k, u):
    """The double sum closed_form_moment used to take, expanding every seed
    with a nonzero kappa entry in the binomial basis on its own:
    sum_g kappa^g sum_{l=k}^g (alpha-l)_k w_l^g binom(u+l-k, l-k)."""
    total = F(0)
    for kap, g in zip(kappa_row, spec.G):
        if kap != 0:
            w = to_binomial_basis(spec.R[g])
            for l in range(k, g + 1):
                total += kap * poch(spec.alpha - l, k) * w[l] * binom_rat(u + l - k, l - k)
    return total


MOMENT_FAMILIES = [
    FamilySpec(F(7), (1, 2, 5), {1: parse_poly("x-1"), 2: parse_poly("x^2+1"),
                                 5: parse_poly("x^5+x^4+x^3+1")}),
    FamilySpec(F(1), (1, 2, 4), {1: parse_poly("x+2"), 2: parse_poly("x^2"),
                                 4: parse_poly("x^4+1")}),
    FamilySpec(F(22, 7), (2, 3), {2: parse_poly("x^2+1"), 3: parse_poly("x^3+x")}),
]
kappas = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=6))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MOMENT_FAMILIES), st.integers(0, 8), st.data())
def test_closed_form_moment_matches_double_sum(spec, u, data):
    row = data.draw(st.lists(kappas, min_size=spec.m, max_size=spec.m), label="kappa")
    k = data.draw(st.integers(0, u), label="k")
    assert closed_form_moment(spec, row, k, u) == reference_closed_form_moment(spec, row, k, u)


def test_ortho_generic(nonsegment_spec):
    form = BilinearForm.generic(nonsegment_spec)
    report = ortho_check(form, 8)
    assert report.passed
    assert report.first_violation is None
    assert report.variant == "generic"
    # triangular: every below-diagonal pairing is exactly zero
    for n, i, v in report.entries:
        if i < n:
            assert v == 0
        elif i == n:
            assert v != 0


def test_ortho_refuses_negative_nmax(nonsegment_spec):
    # used to pass with no entries
    with pytest.raises(ValueError, match="got -1"):
        ortho_check(BilinearForm.generic(nonsegment_spec), -1)


def test_ortho_xi(integer_alpha_spec):
    form = BilinearForm.xi(integer_alpha_spec)
    report = ortho_check(form, 8)
    assert report.passed
    assert report.variant == "xi"


def test_ortho_xi_halfway_alpha():
    # integer alpha equal to maxG stays in the xi range
    spec = FamilySpec(F(2), (1, 2), {1: parse_poly("x+1"),
                                     2: parse_poly("x^2+x+1")})
    form = BilinearForm.xi(spec)
    assert ortho_check(form, 6).passed


def test_ortho_detects_wrong_kappa(nonsegment_spec):
    # sabotage: swap two kappa rows; triangularity must break
    spec = nonsegment_spec
    km = kappa_matrix(spec)
    rows = [km.row(i) for i in range(spec.m)]
    swapped = type(km)(rows=(rows[1], rows[0], rows[2]))
    form = BilinearForm(spec, swapped, "generic")
    report = ortho_check(form, 6)
    assert not report.passed
    assert report.first_violation is not None


def test_xi_diagonal_uses_canonical_kappa(integer_alpha_spec):
    # the nonzero-diagonal claim is tied to the canonical kappa rows
    form = BilinearForm.xi(integer_alpha_spec)
    for n in range(6):
        q = q_poly(integer_alpha_spec, n)
        assert form.inner(q, q) != 0


def test_generic_inner_never_hits_pole(segment_spec):
    # alpha = 22/7 with maxG = 3: all gamma ratios stay finite
    form = BilinearForm.generic(segment_spec)
    report = ortho_check(form, 7)
    assert report.passed


@pytest.mark.parametrize("variant", ["generic", "xi"])
def test_form_expands_each_seed_once(variant, nonsegment_spec, integer_alpha_spec,
                                     monkeypatch):
    spec = nonsegment_spec if variant == "generic" else integer_alpha_spec
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return to_binomial_basis(p)

    monkeypatch.setattr(casolag.forms, "to_binomial_basis", counted)
    form = BilinearForm(spec, None, variant)
    form.corrections()
    form.inner(q_poly(spec, 6), q_poly(spec, 4))
    assert calls <= len(spec.G)


coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
polys = st.lists(coeff, max_size=8).map(Poly)


def fraction_gram_row(form, p, n):
    """<p, x^b> for b < n by the module docstring's Gram row, in Fractions:
    the reference for the form's integer row."""
    spec, m = form.spec, form.spec.m
    alpha, ls = spec.alpha, range(spec.max_g + 1)
    ws = _seed_ws(spec)
    row = []
    for b in range(n):
        if b < m:
            W = _seed_weights(spec, ws, form.kappa.row(b))
            gram = [sum((poch(alpha - l, a) * W[l] for l in ls), F(0))
                    for a in range(len(p.coeffs))]
        else:
            gram = [math.perm(b, form._d) * poch(alpha, a + b - m + 1)
                    for a in range(len(p.coeffs))]
        row.append(sum((pa * g for pa, g in zip(p.coeffs, gram)), F(0)))
    return row


def form_case(case, nonsegment_spec, integer_alpha_spec, segment_spec):
    """(spec, variant): alpha = 7, the xi form at alpha = 1, and alpha = 22/7."""
    return {"generic": (nonsegment_spec, "generic"), "xi": (integer_alpha_spec, "xi"),
            "rational": (segment_spec, "generic")}[case]


@pytest.mark.parametrize("variant", ["generic", "xi", "rational"])
def test_inner_memo_matches_fresh_form(variant, nonsegment_spec, integer_alpha_spec,
                                       segment_spec):
    # one form across all examples, so its Gram row memo sees p switch back
    # and forth, p replaced by an equal but distinct Poly, and rows extended
    # by a q longer than any the form has paired before; after each pairing
    # the memoised integer row, over its denominator, is the Fraction row
    spec, variant = form_case(variant, nonsegment_spec, integer_alpha_spec, segment_spec)
    form = BilinearForm(spec, None, variant)
    q_den = spec.alpha.denominator
    longest = 0

    def fresh(p, q):
        return BilinearForm(spec, form.kappa, variant).inner(p, q)

    @settings(max_examples=40, deadline=None)
    @given(polys, polys, st.lists(polys, min_size=3, max_size=3), st.integers(1, 4))
    def check(p1, other, qs, extra):
        nonlocal longest
        p2 = Poly(p1.coeffs)
        assert p2 is not p1 and p2 == p1
        longest = max([longest] + [len(q.coeffs) for q in qs])
        longer = qs[0] + Poly.monomial(longest + extra)
        longest = len(longer.coeffs)
        for p, q in [(p1, qs[0]), (p2, qs[1]), (p1, qs[2]), (other, qs[1]),
                     (p2, longer), (p1, qs[0]), (other, longer)]:
            assert form.inner(p, q) == fresh(p, q)
            row = form._row
            assert len(row) >= len(q.coeffs) and all(type(v) is int for v in row)
            assert [F(v, form._row_den * q_den ** (b + 1) * form._wden)
                    for b, v in enumerate(row)] == fraction_gram_row(form, p, len(row))

    check()


@pytest.mark.parametrize("variant", ["generic", "xi", "rational"])
def test_column_running_pochhammer_matches_poch(variant, nonsegment_spec,
                                                integer_alpha_spec, segment_spec):
    # every table is integers over q^a (alpha = p/q) and the weights' _wden
    spec, variant = form_case(variant, nonsegment_spec, integer_alpha_spec, segment_spec)
    alpha, q, ls = spec.alpha, spec.alpha.denominator, range(spec.max_g + 1)
    form = BilinearForm(spec, None, variant)
    ws = _seed_ws(spec)
    n = 12
    for b in range(spec.m):  # columns grown in two steps, to different lengths
        form._column(b, 3 + b)
    for b in range(spec.m):
        W = _seed_weights(spec, ws, form.kappa.row(b))
        assert [F(w, form._wden) for w in form._weights[b]] == W
        col = form._column(b, n)
        for a in range(n):
            assert type(col[a]) is int
            assert F(col[a], q ** a * form._wden) == sum(
                (poch(alpha - l, a) * W[l] for l in ls), F(0))
    for a in range(n):
        assert all(type(r) is int for r in form._pochs[a])
        assert tuple(F(r, q ** a) for r in form._pochs[a]) == tuple(
            poch(alpha - l, a) for l in ls)
    moments = form._moments_to(2 * n)
    assert [F(g, q ** s) for s, g in enumerate(moments)] == [
        poch(alpha, s) for s in range(len(moments))]
    # at integer alpha = 1 the factor alpha - l reaches 0, after which
    # (alpha-l)_a stays 0; at alpha = 7 > maxG and at 22/7 it never does
    zeros = [(l, a) for l in ls for a in range(n) if form._pochs[a][l] == 0]
    assert bool(zeros) == (variant == "xi")

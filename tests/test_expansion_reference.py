"""The expansion engine of recurrence.py against power-basis elimination.

`reference_expand` is the algorithm the engine replaced: build the q ladder
as dense power-basis polynomials and peel off the top coefficient of the
residual, degree by degree.  It shares nothing with the engine but q_poly,
so exact agreement on recurrence rows, on expand_in_q and on probe bases
checks the β-row back-substitution and the three-term x action.

`reference_reverify` is the re-verification the probe used to run: a fresh
table of each basis element on the longer range.  reverify_probe instead
extends the probe's own monomial residuals below the band and checks the
basis on them by linearity.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from casolag import (FamilySpec, Poly, algebra_probe, degenerate_preset,
                     expand_in_q, krall_preset, parse_poly, q_poly,
                     recurrence_table, reverify_probe, solve_linear)
from casolag.recurrence import _back_substitute, _first_outside

# the five golden families (tests/test_golden.py)
FAMILIES = {
    "nonsegment": FamilySpec(F(7), (1, 2, 5), {
        1: parse_poly("x-1"), 2: parse_poly("x^2+1"),
        5: parse_poly("x^5+x^4+x^3+1")}),
    "integer_alpha": FamilySpec(F(1), (1, 2, 4), {
        1: parse_poly("x+2"), 2: parse_poly("x^2"), 4: parse_poly("x^4+1")}),
    "segment": FamilySpec(F(22, 7), (2, 3), {
        2: parse_poly("x^2+1"), 3: parse_poly("x^3+x")}),
    "krall": krall_preset(3, 3, [F(1), F(1, 2), F(2)]),
    "degenerate": degenerate_preset(2, 4, [F(1), F(2), F(3), F(5)]),
}

_LADDERS = {}


def q_ladder(name, top):
    qs = _LADDERS.setdefault(name, [])
    while len(qs) <= top:
        qs.append(q_poly(FAMILIES[name], len(qs)))
    return qs


def reference_expand(p, qs):
    """c with p = sum_k c_k qs[k], by top-down power-basis elimination."""
    if p.is_zero():
        return []
    coeffs = [F(0)] * (p.degree + 1)
    rest = p
    for k in range(p.degree, -1, -1):
        c = rest.coeff(k)
        if c != 0:
            coeffs[k] = c / qs[k].lead
            rest = rest - coeffs[k] * qs[k]
    assert rest.is_zero()
    return coeffs


def reference_rows(name, Q, N):
    qs = q_ladder(name, N + Q.degree)
    return {n: {k - n: v for k, v in enumerate(reference_expand(Q * qs[n], qs)) if v != 0}
            for n in range(N + 1)}


def reference_probe(name, d, band, n_max):
    spec = FAMILIES[name]
    B = d if band is None else band
    N = (2 * d + spec.max_g + 10) if n_max is None else n_max
    qs = q_ladder(name, N + d)
    tables = [[reference_expand(Poly.monomial(k) * qs[n], qs) for n in range(N + 1)]
              for k in range(d + 1)]
    rows = [[tables[k][n][n + j] for k in range(d + 1)]
            for n in range(N + 1) for j in range(-n, -B)]
    if not rows:
        return [Poly.monomial(k) for k in range(d + 1)]
    return [Poly(vec) for vec in solve_linear(rows, None).nullspace]


def reference_reverify(spec, res, extra=10):
    return all(_first_outside(recurrence_table(spec, Q, res.n_max + extra), -res.band) is None
               for Q in res.basis)


small_rats = st.one_of(st.just(F(0)),
                       st.fractions(min_value=-9, max_value=9, max_denominator=5))
families = st.sampled_from(sorted(FAMILIES))


@settings(max_examples=60, deadline=None)
@given(families, st.lists(small_rats, min_size=1, max_size=5), st.integers(0, 10))
def test_recurrence_rows_match_reference(name, coeffs, N):
    Q = Poly(coeffs)
    if Q.is_zero():
        Q = Poly.one()
    table = recurrence_table(FAMILIES[name], Q, N)
    assert table.rows == reference_rows(name, Q, N)


@settings(max_examples=60, deadline=None)
@given(families, st.lists(small_rats, min_size=0, max_size=10))
def test_expand_in_q_matches_reference(name, coeffs):
    p = Poly(coeffs)
    top = max(p.degree, 0)
    assert expand_in_q(FAMILIES[name], p) == reference_expand(p, q_ladder(name, top))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["nonsegment", "krall"]), st.integers(0, 4), st.data())
def test_probe_basis_matches_reference(name, d, data):
    band = data.draw(st.one_of(st.none(), st.integers(0, d)), label="band")
    n_max = data.draw(st.one_of(st.none(), st.integers(0, 12)), label="n_max")
    res = algebra_probe(FAMILIES[name], d, band=band, n_max=n_max)
    assert res.basis == reference_probe(name, d, band, n_max)


@settings(max_examples=25, deadline=None)
@given(families, st.integers(0, 4), st.data())
def test_reverify_matches_reference(name, d, data):
    # small n_max truncates the system, so spurious members that fail
    # re-verification appear alongside true ones
    spec = FAMILIES[name]
    band = data.draw(st.one_of(st.none(), st.integers(0, d)), label="band")
    n_max = data.draw(st.one_of(st.none(), st.integers(0, 12)), label="n_max")
    extra = data.draw(st.integers(0, 10), label="extra")
    res = algebra_probe(spec, d, band=band, n_max=n_max)
    # each stored residual, back-substituted to index 0, is that row's part
    # of the monomial's table below -band
    for k in range(d + 1):
        table = recurrence_table(spec, Poly.monomial(k), res.n_max)
        for n, row in table.rows.items():
            below = {j: g for j, g in row.items() if j < -res.band}
            if n not in res.residuals[k]:
                assert below == {}
                continue
            (lo, c), _ = _back_substitute(*res.residuals[k][n], res.betas)
            assert {t - n: g for t, g in enumerate(c, lo) if g != 0} == below
    assert reverify_probe(spec, res, extra) == reference_reverify(spec, res, extra)


def test_truncated_probe_fails_reverification():
    spec = FAMILIES["nonsegment"]
    res = algebra_probe(spec, 4, n_max=5)
    assert reference_reverify(spec, res) is False
    assert reverify_probe(spec, res) is False

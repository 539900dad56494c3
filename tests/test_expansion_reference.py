"""The expansion engine of recurrence.py against power-basis elimination.

`reference_expand` is the algorithm the engine replaced: build the q ladder
as dense power-basis polynomials and peel off the top coefficient of the
residual, degree by degree.  It shares nothing with the engine but q_poly,
so exact agreement on recurrence rows and on probe bases checks the β-row
back-substitution and the three-term x action.  Its probe
basis comes from test_linalg's reference_solve, the Gauss-Jordan elimination
over Fraction, so it shares no elimination code with the probe either.

`reference_reverify` is the re-verification the probe used to run: a fresh
table of each basis element on the longer range.  reverify_probe instead
builds the constraint rows of the extra rows from the monomial residuals
below the band and checks the basis on them by linearity.  Both refuse a
range with no row n > band, where nothing could be checked.

`reference_x_step` and `reference_back_substitute` are the engine's two
steps as they were on `Fraction` windows (lo, w), dividing by beta_{k,0} at
every step.  The engine now runs them fraction-free on integer windows
(lo, w, den) over a primitive integer beta ladder; both must give the same
rationals.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from casolag import (DegenerateFamily, FamilySpec, Poly, algebra_probe, beta,
                     degenerate_preset, krall_preset, parse_poly,
                     q_poly, recurrence_table, reverify_probe)
from casolag.poly import clear_denominators
from casolag.recurrence import (_back_substitute, _coefficients, _extend_ladder,
                                _first_outside, _monomial_residuals, _x_step)

from test_linalg import reference_solve

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


def fraction_rung(spec, n):
    """beta_{n,0..min(m,n)}, q_n's Fraction coefficients on L_n, ...,
    L_{n-min(m,n)}; DegenerateFamily when Omega(n) = 0."""
    values = beta(spec, n).values
    if values[0] == 0:
        raise DegenerateFamily(f"Omega({n}) = 0")
    return values[:min(spec.m, n) + 1]


def reference_x_step(alpha, lo, w):
    """The window of x * sum_i w_i L_{lo+i}: one entry wider at each end, or
    only at the top when lo = 0."""
    out_lo = lo - 1 if lo else 0
    xw = [F(0)] * (lo + len(w) + 1 - out_lo)
    for t, wt in enumerate(w, lo):
        if wt:
            i = t - out_lo
            xw[i + 1] -= (t + 1) * wt
            xw[i] += (2 * t + 1 + alpha) * wt
            if t:
                xw[i - 1] -= (t + alpha) * wt
    return out_lo, xw


def reference_back_substitute(lo, w, betas, stop=0):
    """Peel the q_k off sum_i w_i L_{lo+i}, top down, for every k >= stop,
    through the Fraction rows betas[k] = fraction_rung(spec, k): the
    coefficient window and the residual window below stop."""
    hi = lo + len(w)
    rest = list(reversed(w))
    c = []
    i = 0
    while i < len(rest) and hi - 1 - i >= stop:
        ck = rest[i]
        if ck:
            row = betas[hi - 1 - i]
            ck /= row[0]
            for j in range(1, len(row)):
                if i + j < len(rest):
                    rest[i + j] -= ck * row[j]
                else:
                    rest.append(-ck * row[j])
        c.append(ck)
        i += 1
    return (hi - i, c[::-1]), (hi - len(rest), rest[i:][::-1])


def as_fractions(window):
    lo, w, den = window
    return lo, [F(v, den) for v in w]


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
    return [Poly(vec) for vec in reference_solve(rows, None).nullspace]


def reference_reverify(spec, res, extra=10):
    if res.n_max + extra <= res.band:
        return False
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
    # each monomial residual, back-substituted to index 0, is that row's
    # part of the monomial's table below -band
    betas = []
    residuals = _monomial_residuals(spec, betas, range(res.n_max + 1), res.band)
    for k, windows in zip(range(d + 1), residuals):
        table = recurrence_table(spec, Poly.monomial(k), res.n_max)
        for n, row in table.rows.items():
            below = {j: g for j, g in row.items() if j < -res.band}
            if n not in windows:
                assert below == {}
                continue
            lo, c = _coefficients(_back_substitute(*windows[n], betas)[0], betas)
            assert {t - n: g for t, g in enumerate(c, lo) if g != 0} == below
    assert reverify_probe(res, extra) == reference_reverify(spec, res, extra)


def test_truncated_probe_fails_reverification():
    spec = FAMILIES["nonsegment"]
    res = algebra_probe(spec, 4, n_max=5)
    assert reference_reverify(spec, res) is False
    assert reverify_probe(res) is False


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["nonsegment", "segment", "krall"]), st.integers(0, 6),
       st.lists(small_rats, min_size=1, max_size=8), st.data())
def test_integer_engine_matches_fraction_reference(name, lo, w, data):
    # nonsegment has alpha = 7, segment alpha = 22/7; krall's seeds have
    # rational coefficients, so its beta rows need a common denominator
    spec = FAMILIES[name]
    den, ints = clear_denominators(w)
    xlo, xw = reference_x_step(spec.alpha, lo, w)
    assert as_fractions(_x_step(spec.alpha, lo, ints, den)) == (xlo, xw)
    stop = data.draw(st.integers(0, xlo + len(xw)), label="stop")
    rungs = _extend_ladder(spec, [], xlo + len(xw) - 1)
    rows = [fraction_rung(spec, k) for k in range(len(rungs))]
    c, r = _back_substitute(*_x_step(spec.alpha, lo, ints, den), rungs, stop)
    ref_c, ref_r = reference_back_substitute(xlo, xw, rows, stop)
    assert _coefficients(c, rungs) == ref_c
    assert as_fractions(r) == ref_r
    # the residual's content is taken out
    assert math.gcd(r[2], *r[1]) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["nonsegment", "segment", "krall"]), st.integers(0, 8),
       st.lists(small_rats, min_size=1, max_size=3),
       st.lists(small_rats, min_size=0, max_size=4), st.data())
def test_integer_engine_peels_exact_combinations(name, top, cs, tail, data):
    # sum_i cs[i] q_{top-i} over a tail far enough below: peeling leaves
    # zeros above the tail, so the steps there write nothing and the tail's
    # entries must still be brought to the denominator of the last step
    spec = FAMILIES[name]
    top += len(cs) - 1
    rows = [fraction_rung(spec, k) for k in range(top + 1)]
    w = {}
    for i, c in enumerate(cs):
        for j, b in enumerate(rows[top - i]):
            w[top - i - j] = w.get(top - i - j, 0) + c * b
    for t, v in enumerate(reversed(tail), min(w) - spec.m - 1 - len(tail)):
        if t >= 0:
            w[t] = v
    lo = min(w)
    window = [w.get(t, F(0)) for t in range(lo, top + 1)]
    stop = data.draw(st.integers(0, top + 1), label="stop")
    den, ints = clear_denominators(window)
    rungs = _extend_ladder(spec, [], top)
    c, r = _back_substitute(lo, ints, den, rungs, stop)
    ref_c, ref_r = reference_back_substitute(lo, window, rows, stop)
    assert _coefficients(c, rungs) == ref_c
    assert as_fractions(r) == ref_r

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

`reference_monomial_residuals` is how the probe built its residuals below
the band before it used adjoint functionals: one integer back-substitution
per row and power, stopped at n - band (`reference_int_back_substitute`,
the engine's back-substitution as it was then, residual window and all).
The engine now builds the m functionals of each row's cut, top down
(`_adjoints`), and dots them with each power's window (`_residual`); both
must give the same rationals, the same constraint rows and the same
DegenerateFamily.  Where the old back-substitution never wrote below some
index it left that entry out of the window, and the engine keeps it as an
exact 0, so windows compare as maps from index to nonzero rational, and
the engine's own shape is pinned exactly (`assert_residual`).
"""

import math
from fractions import Fraction as F
from itertools import count, islice

from hypothesis import given, settings, strategies as st

from casolag import (DegenerateFamily, FamilySpec, Poly, algebra_probe, beta,
                     degenerate_preset, krall_preset, parse_poly,
                     q_poly, recurrence_table, reverify_probe)
from casolag.poly import clear_denominators
from casolag.recurrence import (_adjoints, _back_substitute, _coefficients,
                                _constraint_rows, _extend_ladder, _first_outside,
                                _monomial_residuals, _q_window, _residual, _x_step)

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


def terms(lo, values):
    """{t: value} of a window's nonzero entries, from lo up."""
    return {t: v for t, v in enumerate(values, lo) if v}


def as_terms(window):
    return terms(*as_fractions(window))


def assert_residual(r, window_lo, stop, m, ref_terms):
    """r is the engine's residual below stop of a window from window_lo:
    exactly the entries at L_lo..L_{stop-1}, lo = min(window_lo,
    max(stop - m, 0)), over a positive den with the content taken out, and
    its nonzero entries are ref_terms."""
    lo = min(window_lo, max(stop - m, 0))
    assert (r[0], len(r[1])) == (lo, stop - lo)
    assert r[2] > 0 and math.gcd(r[2], *r[1]) == 1
    assert as_terms(r) == ref_terms


def reference_int_back_substitute(lo, w, den, betas, stop=0):
    """Peel the q_k off sum_i (w_i / den) L_{lo+i}, top down, for every
    k >= stop, in integers: the tops (lo_c, [(e_k, den_k)]) and the residual
    window below stop, with its content taken out."""
    hi = lo + len(w)
    rest = list(reversed(w))
    dens = [den] * len(rest)
    tops = []
    i = 0
    while i < len(rest) and hi - 1 - i >= stop:
        e = rest[i]
        if e and dens[i] != den:
            e *= den // dens[i]
        tops.append((e, den))
        if e:
            b = betas[hi - 1 - i][0]
            g = math.gcd(e, b[0])
            den *= b[0] // g
            e //= g
            for j in range(1, len(b)):
                if i + j < len(rest):
                    rest[i + j] = rest[i + j] * (den // dens[i + j]) - e * b[j]
                    dens[i + j] = den
                else:
                    rest.append(-e * b[j])
                    dens.append(den)
        i += 1
    r = [v * (den // d) if v else 0 for v, d in zip(rest[i:], dens[i:])][::-1]
    g = math.gcd(den, *r)
    return (hi - i, tops[::-1]), (hi - len(rest), [v // g for v in r], den // g)


def reference_monomial_residuals(spec, betas, n_range, band):
    """Yield, for k = 0, 1, 2, ..., the residual windows below n - band of
    x^k q_n, keyed by the n in n_range with n > band, each from one
    back-substitution stopped at n - band; betas is extended to
    n_range.stop - 1 + k just before power k."""
    top = n_range.stop - 1
    _extend_ladder(spec, betas, top)
    ws = {n: _q_window(betas, n) for n in n_range if n > band}
    for k in count():
        if k:
            ws = {n: _x_step(spec.alpha, *w) for n, w in ws.items()}
            _extend_ladder(spec, betas, top + k)
        yield {n: reference_int_back_substitute(*w, betas, n - band)[1] for n, w in ws.items()}


def engine_residual(spec, betas, window, stop):
    """The engine's residual window below stop of an integer window whose
    top index is below the top of betas: _residual over _adjoints' one cut."""
    width = window[0] + len(window[1]) - stop
    [(_, *adj)] = _adjoints(betas, spec.m, range(stop, stop + 1), width)
    return _residual(window, *adj)


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
    residuals = _monomial_residuals(spec, betas, range(res.n_max + 1), res.band, d + 1)
    for k, windows in enumerate(residuals):
        table = recurrence_table(spec, Poly.monomial(k), res.n_max)
        for n, row in table.rows.items():
            below = {j: g for j, g in row.items() if j < -res.band}
            if n not in windows:
                assert below == {}
                continue
            lo, c = _coefficients(_back_substitute(*windows[n], betas), betas)
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
    c = _back_substitute(*_x_step(spec.alpha, lo, ints, den), rungs)
    assert _coefficients(c, rungs) == reference_back_substitute(xlo, xw, rows)[0]
    r = engine_residual(spec, rungs, _x_step(spec.alpha, lo, ints, den), stop)
    assert_residual(r, xlo, stop, spec.m,
                    terms(*reference_back_substitute(xlo, xw, rows, stop)[1]))


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
    c = _back_substitute(lo, ints, den, rungs)
    assert _coefficients(c, rungs) == reference_back_substitute(lo, window, rows)[0]
    r = engine_residual(spec, rungs, (lo, ints, den), stop)
    assert_residual(r, lo, stop, spec.m,
                    terms(*reference_back_substitute(lo, window, rows, stop)[1]))


# Omega(x) = x - 10: q_0..q_9 exist, q_10 would lose degree
VANISHING = FamilySpec(F(7), (1,), {1: parse_poly("x-9")})


def outcome(run):
    try:
        return run()
    except DegenerateFamily as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAMILIES) + ["vanishing"]), st.integers(0, 8), st.data())
def test_monomial_residuals_match_reference(name, d, data):
    spec = FAMILIES.get(name, VANISHING)
    band = data.draw(st.integers(0, d), label="band")
    n_max = data.draw(st.integers(0, 2 * d + spec.max_g + 10), label="n_max")
    ref = outcome(lambda: list(islice(
        reference_monomial_residuals(spec, [], range(n_max + 1), band), d + 1)))
    new = outcome(lambda: _monomial_residuals(spec, [], range(n_max + 1), band, d + 1))
    if isinstance(ref, str):
        assert new == ref
        return
    assert len(new) == d + 1
    for windows, ref_windows in zip(new, ref):
        assert list(windows) == list(ref_windows)
        assert {n: as_terms(w) for n, w in windows.items()} == \
            {n: as_terms(w) for n, w in ref_windows.items()}
    assert _constraint_rows(new, band) == _constraint_rows(ref, band)
    # and the Fraction back-substitution of x^k q_n, stopped at n - band
    rows = [fraction_rung(spec, t) for t in range(n_max + d + 1)]
    for n in new[0]:
        lo, w = n + 1 - len(rows[n]), list(reversed(rows[n]))
        for windows in new:
            ref_r = reference_back_substitute(lo, w, rows, n - band)[1]
            assert_residual(windows[n], lo, n - band, spec.m, terms(*ref_r))
            lo, w = reference_x_step(spec.alpha, lo, w)

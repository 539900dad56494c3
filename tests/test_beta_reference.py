"""β rows and det_int against the Fraction elimination they replaced, and
the β ladder against one determinant row per n.

`reference_det` is Gaussian elimination over Fraction, dividing by each
pivot.  `reference_beta` is the old family.beta: every
signed maximal minor of the Fraction value matrix (R_g(n-i)) taken by
reference_det.  The fast paths clear denominators and eliminate
fraction-free on integers (linalg.det_int), so they share no arithmetic
with these references.

`reference_minors_beta` is family.beta as it was before it took its minors
from one elimination (linalg.maximal_minors): one det_int per deleted
column of the integer value matrix.

`reference_q_rung` is the old family.q_rung: beta's m + 1 determinants at
every n.  family.q_rung takes them only for n <= D = deg Omega and the
later rows by backward differences, so the two agree past D only if every
beta_{n,j} has degree <= D in n.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from casolag import DegenerateFamily, FamilySpec, Poly, beta, family
from casolag.linalg import det_int, maximal_minors
from casolag.poly import clear_denominators
from casolag.special import _shifted_values

from test_expansion_reference import FAMILIES


def reference_det(M):
    n = len(M)
    rows = [[F(v) for v in row] for row in M]
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def reference_beta(spec, n):
    m = spec.m
    cols = [[spec.R[g](n - i) for g in spec.G] for i in range(m + 1)]
    return tuple((-1) ** j * reference_det(
        [[cols[i][l] for i in range(m + 1) if i != j] for l in range(m)])
        for j in range(m + 1))


def reference_minors(M):
    return [(-1) ** j * det_int([row[:j] + row[j + 1:] for row in M]) for j in range(len(M) + 1)]


def reference_minors_beta(spec, n):
    scale, vals = _shifted_values(spec.seeds(), n, spec.m + 1)
    return tuple(F(v, scale) for v in reference_minors(vals))


def test_beta_matches_reference_on_golden_families():
    for spec in FAMILIES.values():
        for n in range(40):
            assert beta(spec, n).values == reference_beta(spec, n)
            assert beta(spec, n).values == reference_minors_beta(spec, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.lists(st.integers(-3, 3), min_size=m + 1, max_size=m + 1),
                       min_size=m, max_size=m)), st.data())
def test_maximal_minors_match_reference(M, data):
    # half of the draws repeat a row or scale one, so the matrix is
    # rank-deficient and every minor is 0
    if data.draw(st.booleans(), label="deficient") and len(M) > 1:
        i, j = data.draw(st.permutations(range(len(M))), label="rows")[:2]
        f = data.draw(st.integers(-2, 2), label="factor")
        M[i] = [f * v for v in M[j]]
        assert reference_minors(M) == [0] * (len(M) + 1)
    assert maximal_minors(M) == reference_minors(M)


coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def families(draw):
    G = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=4)))
    R = {}
    for g in G:
        lead = draw(coeff.filter(lambda c: c != 0))
        R[g] = Poly(draw(st.lists(coeff, min_size=g, max_size=g)) + [lead])
    return FamilySpec(draw(coeff), tuple(G), R)


@settings(max_examples=60, deadline=None)
@given(families(), st.integers(0, 30))
def test_beta_matches_reference(spec, n):
    assert beta(spec, n).values == reference_beta(spec, n)
    assert beta(spec, n).values == reference_minors_beta(spec, n)


small = st.one_of(st.just(F(0)), coeff)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_int_of_cleared_rows_matches_reference(M):
    # a rational determinant as the β rows and the Casoratian take it: each
    # row scaled to integers by the lcm of its denominators, one division
    ints, scale = [], 1
    for row in M:
        lcm, row = clear_denominators(row)
        ints.append(row)
        scale *= lcm
    assert F(det_int(ints), scale) == reference_det(M)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_int_matches_reference(M):
    d = det_int(M)
    assert type(d) is int and d == reference_det(M)


def reference_q_rung(spec, n):
    values = beta(spec, n).values
    if values[0] == 0:
        raise DegenerateFamily(f"Omega({n}) = 0: q_{n} would lose degree")
    den, ints = clear_denominators(values[:min(spec.m, n) + 1])
    g = math.gcd(*ints)
    return tuple(b // g for b in ints), F(den, g)


def deg_omega(spec):
    return sum(spec.G) - spec.m * (spec.m - 1) // 2


def rung_or_error(rung, spec, n):
    try:
        return rung(spec, n)
    except DegenerateFamily as e:
        return str(e)


@st.composite
def ladder_families(draw):
    """m = 1..4 seeds with rational coefficients, G = {1..m} (where D = m)
    or any G in 1..6; with a shared root t of every seed the column of the
    values at t vanishes, so Omega(t + 1) = 0 and the family is
    inadmissible."""
    m = draw(st.integers(1, 4))
    G = draw(st.one_of(st.just(list(range(1, m + 1))),
                       st.sets(st.integers(1, 6), min_size=m, max_size=m).map(sorted)))
    root = draw(st.one_of(st.none(), st.integers(0, 8)))
    R = {}
    for g in G:
        lead = draw(coeff.filter(lambda c: c != 0))
        if root is None:
            R[g] = Poly(draw(st.lists(coeff, min_size=g, max_size=g)) + [lead])
        else:
            low = draw(st.lists(coeff, min_size=g - 1, max_size=g - 1))
            R[g] = Poly([-root, 1]) * Poly(low + [lead])
    return FamilySpec(draw(coeff), tuple(G), R)


def assert_ladder_matches_reference(spec):
    # every row, so the first DegenerateFamily n and its message agree too;
    # then from an empty memo top down, so the first row asked for is past D
    rows = range(deg_omega(spec) + 41)
    for order in (rows, reversed(rows)):
        family._ladder.cache_clear()
        for n in order:
            assert (rung_or_error(family.q_rung, spec, n)
                    == rung_or_error(reference_q_rung, spec, n)), n


def test_ladder_matches_reference_on_golden_families():
    for spec in FAMILIES.values():
        assert_ladder_matches_reference(spec)


@settings(max_examples=80, deadline=None)
@given(ladder_families())
def test_ladder_matches_reference(spec):
    assert_ladder_matches_reference(spec)


@settings(max_examples=40, deadline=None)
@given(ladder_families())
def test_beta_degree_bound(spec):
    # Delta^(D+1) of every column of direct beta rows vanishes (deg <= D),
    # and Delta^D of beta_{n,0} = Omega(n) does not (deg Omega = D)
    D = deg_omega(spec)
    rows = [beta(spec, n).values for n in range(D + 2)]
    for j in range(spec.m + 1):
        assert sum((-1) ** (D + 1 - i) * math.comb(D + 1, i) * rows[i][j]
                   for i in range(D + 2)) == 0
    assert sum((-1) ** (D - i) * math.comb(D, i) * rows[i][0] for i in range(D + 1)) != 0

import json
from fractions import Fraction as F

import pytest
import casolag.recurrence

from casolag import (DegenerateFamily, FamilySpec, Poly, algebra_probe,
                     krall_preset, obstruction_test, parse_poly, q_poly,
                     recurrence_table, render, reverify_probe, rho_bound,
                     rho_recurrence, three_term_test, verify_band)
from casolag.cli import main


# Omega(x) = x - 10: q_0..q_9 exist, q_10 would lose degree
BOUNDARY = FamilySpec(F(7), (1,), {1: parse_poly("x-9")})


def test_ladder_reaches_last_member_before_omega_root():
    table = recurrence_table(BOUNDARY, Poly.monomial(2), 7)  # uses q_0..q_9
    assert set(table.rows) == set(range(8))


@pytest.mark.parametrize("call", [
    lambda: recurrence_table(BOUNDARY, Poly.monomial(2), 8),
    lambda: algebra_probe(BOUNDARY, 2, n_max=8),
], ids=["recurrence_table", "algebra_probe"])
def test_ladder_stops_at_omega_root(call):
    with pytest.raises(DegenerateFamily) as e:
        call()
    assert str(e.value) == "Omega(10) = 0: q_10 would lose degree"


# Omega(x) = x^2 - 92/3 x + 20 vanishes at n = 30 only
LATE_ROOT = FamilySpec(F(7, 2), (2,), {2: parse_poly("x^2-86/3*x-29/3")})


def test_reverify_ladder_stops_at_basis_degree(tmp_path, capsys):
    # rows up to n_max + 10 = 28 of Q = 1 need q_0..q_28 only; a ladder
    # taken to n_max + 10 + d = 30 would meet the root
    res = algebra_probe(LATE_ROOT, 2, n_max=18)
    assert [render(p) for p in res.basis] == ["1"]
    assert reverify_probe(res) is True
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"alpha": "7/2", "G": [2],
                                "R": {"2": "x^2-86/3*x-29/3"}}))
    code = main(["probe", "--config", str(path), "--deg", "2", "--nmax", "18"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["reverified"] is True


def test_probe_sends_only_the_window_below_the_band(nonsegment_spec, monkeypatch):
    """At d = 8 (the benchmark's generic family and job size) each row n
    adds at most m + max(0, d - B) constraint rows, and each row n > B takes
    its functionals once, m of them (fewer only while n - B < m), each over
    no more than the d + B + 1 indices from n - B up to n + d."""
    spec, d = nonsegment_spec, 8
    B, N = d, 2 * d + spec.max_g + 10
    sent, cuts = [], []
    solve, adjoints = casolag.recurrence.solve_linear, casolag.recurrence._adjoints

    def counted_solve(rows, b):
        sent.append(len(rows))
        return solve(rows, b)

    def counted_adjoints(*args):
        for c, lo, phis, L in adjoints(*args):
            cuts.append((c, [len(a) - (c - lo) for a, _ in phis]))
            yield c, lo, phis, L

    monkeypatch.setattr(casolag.recurrence, "solve_linear", counted_solve)
    monkeypatch.setattr(casolag.recurrence, "_adjoints", counted_adjoints)
    res = algebra_probe(spec, d)
    assert res.n_max == N and res.dimension == 6
    assert len(sent) == 1 and sent[0] <= (N + 1) * (spec.m + max(0, d - B))
    assert sorted(c + B for c, _ in cuts) == list(range(B + 1, N + 1))
    assert all(len(ks) == min(spec.m, c) and all(0 < k <= d + B + 1 for k in ks)
               for c, ks in cuts)


def test_identity_operator(nonsegment_spec):
    table = recurrence_table(nonsegment_spec, Poly.one(), 6)
    for n, row in table.rows.items():
        assert row == {0: F(1)}


def test_exactness_of_rows(nonsegment_spec):
    Q = parse_poly("x^4+16*x^3")
    table = recurrence_table(nonsegment_spec, Q, 8)
    for n in range(9):
        recon = Poly.zero()
        for j, g in table.rows[n].items():
            recon = recon + g * q_poly(nonsegment_spec, n + j)
        assert recon == Q * q_poly(nonsegment_spec, n)


def test_band_oracles(nonsegment_spec):
    t0 = recurrence_table(nonsegment_spec, parse_poly("x^4+16*x^3"), 14)
    assert verify_band(t0, 4)
    assert not verify_band(t0, 3)
    assert not verify_band(t0, 5)  # extremes at 5 are all zero
    t1 = recurrence_table(nonsegment_spec, parse_poly("x^5-15*x^3"), 14)
    assert verify_band(t1, 5)
    assert not verify_band(t1, 4)


def test_verify_band_needs_applicable_rows(nonsegment_spec):
    t = recurrence_table(nonsegment_spec, parse_poly("x^4+16*x^3"), 3)
    assert not verify_band(t, 4)  # no row reaches n >= 4
    assert not verify_band(t, -1)


def test_three_term_krall_pass():
    res = three_term_test(krall_preset(1, 1, [F(1)]), 15)
    assert res.passed
    assert res.failure is None
    assert all(c != 0 for c in res.c[1:])
    assert all(a != 0 for a in res.a)
    res2 = three_term_test(krall_preset(2, 2, [F(1), F(1)]), 15)
    assert res2.passed


@pytest.mark.parametrize("nmax", [0, 1])
def test_three_term_needs_two_rows(nmax, nonsegment_spec):
    # rows n <= 1 hold no coefficient below -1, so a pass there would be
    # vacuous: the Krall family has a three-term recurrence and the generic
    # one has none (it fails at nmax = 2), yet neither can pass at nmax <= 1
    krall = krall_preset(2, 2, [F(1), F(1)])
    for spec in (krall, nonsegment_spec):
        res = three_term_test(spec, nmax)
        assert not res.passed
        assert res.failure == "nothing certified: needs nmax >= 2"
        assert len(res.c) == nmax + 1
    assert three_term_test(krall, 2).passed
    res = three_term_test(nonsegment_spec, 2)
    assert res.failure == "gamma_(2,-2) = -624/119 != 0"


def test_three_term_fails_off_class(nonsegment_spec):
    res = three_term_test(nonsegment_spec, 10)
    assert not res.passed
    assert res.failure is not None


def test_three_term_wide_band_reported():
    spec = krall_preset(2, 2, [F(1), F(1)])
    pert = FamilySpec(spec.alpha, spec.G, {
        2: spec.R[2] + parse_poly("x"), 3: spec.R[3]})
    res = three_term_test(pert, 12)
    assert not res.passed


def test_obstruction_fires(nonsegment_spec):
    res = obstruction_test(nonsegment_spec, Poly.x(), n_check=10)
    assert res.obstructed
    assert res.witness == 1  # 1 - 1 = 0 is outside G
    assert res.bands_refuted_up_to == 10


def test_obstruction_inconclusive_for_x4(nonsegment_spec):
    # u = 4: g = 5 gives 1 which is in G; 1, 2 give negatives
    res = obstruction_test(nonsegment_spec, parse_poly("x^4"), n_check=6)
    assert not res.obstructed
    assert res.witness is None


@pytest.mark.parametrize("call, value", [
    (lambda spec: recurrence_table(spec, Poly.x(), -1), "n_range must be >= 0, got -1"),
    (lambda spec: recurrence_table(spec, Poly.x(), -5), "n_range must be >= 0, got -5"),
    (lambda spec: three_term_test(spec, -1), "nmax must be >= 0, got -1"),
    (lambda spec: algebra_probe(spec, 3, band=-2), "band=-2"),
    (lambda spec: algebra_probe(spec, 3, n_max=-5), "n_max=-5"),
    (lambda spec: reverify_probe(algebra_probe(spec, 2), extra=-3), "got -3"),
])
def test_negative_sizes_are_refused(call, value, nonsegment_spec):
    # each used to pass vacuously or fail with a bare IndexError
    with pytest.raises(ValueError, match=value):
        call(nonsegment_spec)


def test_negative_sizes_are_refused_by_their_own_name(nonsegment_spec, integer_alpha_spec):
    # x + 1 has no witness, so a negative n_check used to pass unchecked;
    # x^2 and rho_recurrence used to name recurrence_table's n_range
    for Q in (parse_poly("x+1"), parse_poly("x^2")):
        with pytest.raises(ValueError, match=r"^n_check must be >= 0, got -1$"):
            obstruction_test(nonsegment_spec, Q, n_check=-1)
    with pytest.raises(ValueError, match=r"^nmax must be >= 0, got -3$"):
        rho_recurrence(integer_alpha_spec, Poly.one(), -3)


def test_reverify_needs_a_row_past_the_band(nonsegment_spec):
    # rows 0..n_max + extra = 0..20 hold no coefficient below -20, so
    # nothing would be checked
    res = algebra_probe(nonsegment_spec, 4, band=20, n_max=0)
    assert res.basis == [Poly.monomial(k) for k in range(5)]
    assert reverify_probe(res, extra=10) is False
    assert reverify_probe(res, extra=20) is False
    # row 21 exists and refutes every non-constant monomial
    assert reverify_probe(res, extra=21) is False
    assert reverify_probe(algebra_probe(nonsegment_spec, 0, band=20, n_max=0),
                          extra=21) is True


def test_obstruction_guard_inside_integer_range(integer_alpha_spec):
    with pytest.raises(ValueError):
        obstruction_test(integer_alpha_spec, Poly.x())


def test_obstruction_rejects_zero(nonsegment_spec):
    with pytest.raises(ValueError):
        obstruction_test(nonsegment_spec, Poly.zero())


def test_probe_nonsegment(nonsegment_spec):
    res = algebra_probe(nonsegment_spec, 4)
    assert [render(p) for p in res.basis] == ["1", "x^4+16*x^3"]
    assert res.dimension == 2
    assert res.band == 4
    assert reverify_probe(res)


def test_probe_degree_five(nonsegment_spec):
    res = algebra_probe(nonsegment_spec, 5)
    assert [render(p) for p in res.basis] == ["1", "x^4+16*x^3", "x^5-15*x^3"]


def test_probe_segment(segment_spec):
    assert [render(p) for p in algebra_probe(segment_spec, 3).basis] == ["1"]
    res = algebra_probe(segment_spec, 4)
    assert [render(p) for p in res.basis] == ["1", "x^4"]
    assert reverify_probe(res)


def test_probe_integer_alpha(integer_alpha_spec):
    res = algebra_probe(integer_alpha_spec, 3)
    assert [render(p) for p in res.basis] == ["1", "x^3+6/7*x^2"]
    res4 = algebra_probe(integer_alpha_spec, 4)
    assert [render(p) for p in res4.basis] == ["1", "x^3+6/7*x^2", "x^4"]


def test_probe_custom_band_and_n(nonsegment_spec):
    res = algebra_probe(nonsegment_spec, 4, band=4, n_max=20)
    assert res.n_max == 20
    assert res.dimension == 2


def test_rho_bound_values(integer_alpha_spec):
    assert rho_bound(integer_alpha_spec) == 4  # max(3, 4-1+1, 1)
    assert rho_bound(krall_preset(2, 2, [F(1), F(1)])) == 2
    with pytest.raises(ValueError):
        rho_bound(FamilySpec(F(7), (1,), {1: parse_poly("x")}))


def test_rho_recurrence_closing_example(integer_alpha_spec):
    res = rho_recurrence(integer_alpha_spec, Poly.one(), 12)
    assert res.rho == 4
    assert res.band == 4
    assert res.band_ok
    # extremes vanish at n = 4, 5 exactly, then stay nonzero
    assert res.extremes_from == 6
    assert res.passed
    assert res.table.gamma(4, -4) == 0
    assert res.table.gamma(5, -4) == 0
    assert res.table.gamma(6, -4) != 0


def test_rho_recurrence_krall():
    spec = krall_preset(2, 2, [F(1), F(1)])
    res = rho_recurrence(spec, Poly.one(), 10)
    assert res.band == 2 and res.extremes_from == 2 and res.passed
    res_x = rho_recurrence(spec, Poly.x(), 10)
    assert res_x.band == 3 and res_x.passed


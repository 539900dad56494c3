import json
import math
import random
import re
from fractions import Fraction as F

import pytest

import casolag.family
import casolag.krall
import casolag.poly
from casolag import (DegenerateFamily, FamilySpec, InvalidPreset, Poly, beta,
                     certify_admissible, degenerate_preset, krall_preset,
                     laguerre, match_krall_parameters, omega, parse_poly,
                     q_poly, reduce_representation, render, spec_from_json)
from casolag.parsing import MAX_DEGREE

from test_poly import deriv


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(F(1), (), {})
    with pytest.raises(ValueError):
        FamilySpec(F(1), (2, 1), {1: parse_poly("x"), 2: parse_poly("x^2")})
    with pytest.raises(ValueError):
        FamilySpec(F(1), (1,), {1: parse_poly("x^2")})  # degree mismatch
    with pytest.raises(ValueError):
        FamilySpec(F(1), (0,), {0: parse_poly("1")})  # g must be positive
    with pytest.raises(ValueError):
        FamilySpec(F(1), (1, 2), {1: parse_poly("x")})  # missing seed


@pytest.mark.parametrize("G, R", [
    ((1.7, 2), {1.7: "x", 2: "x^2"}),
    ((True, 2), {True: "x", 2: "x^2"}),
    ((F(1), 2), {1: "x", 2: "x^2"}),
    ((1, 2), {1: "x", 2.0: "x^2"}),
])
def test_spec_degrees_must_be_ints(G, R):
    # int() used to turn each of these into G = (1, 2)
    with pytest.raises(ValueError, match="must be integers"):
        FamilySpec(F(7), G, {g: parse_poly(r) for g, r in R.items()})


def test_omega_oracle_nonsegment(nonsegment_spec):
    assert render(omega(nonsegment_spec)) == \
        "-12*x^5+144*x^4-628*x^3+1296*x^2-1280*x+476"


def test_omega_oracle_integer_alpha(integer_alpha_spec):
    assert render(omega(integer_alpha_spec)) == \
        "-6*x^4+16*x^3+54*x^2-208*x+166"


def test_omega_single_seed():
    spec = FamilySpec(F(1), (1,), {1: parse_poly("x+2")})
    # one seed: omega is just the seed shifted down by one
    assert omega(spec) == parse_poly("x+1")


def test_certify_admissible_pass(nonsegment_spec):
    cert = certify_admissible(nonsegment_spec)
    assert cert.passed
    assert cert.verdict == "pass"
    assert cert.fail_n is None
    # the scan bound covers the Cauchy root bound
    assert cert.integer_scan_bound >= 1


def test_certify_admissible_fail_records_n():
    spec = FamilySpec(F(22, 7), (2, 3), {
        2: parse_poly("x^2"), 3: parse_poly("x^3")})
    cert = certify_admissible(spec)
    assert not cert.passed
    assert cert.fail_n == 1


def test_certify_fail_at_one():
    # R_2 = x(x-1) makes Omega = -(x-1)(x-2), fine at 0, zero at 1
    spec = FamilySpec(F(1), (1, 2), {
        1: parse_poly("x"), 2: parse_poly("x^2-x")})
    cert = certify_admissible(spec)
    assert omega(spec)(F(0)) != 0
    assert cert.fail_n == 1


def test_certify_far_root():
    # Omega = R(x-1) = x - 1000000001; a scan would evaluate 10^9 points
    spec = FamilySpec(F(7), (1,), {1: parse_poly("x-1000000000")})
    cert = certify_admissible(spec)
    assert (cert.verdict, cert.fail_n, cert.integer_scan_bound) == \
        ("fail", 1000000001, 1000000002)


def random_odd_family(m: int) -> FamilySpec:
    """alpha = 17/2, G = {1, 3, ..., 2m-1}, monic seeds whose lower
    coefficients random.Random(1) draws from [-5, 5], seed by seed, ascending."""
    rng = random.Random(1)
    G = tuple(range(1, 2 * m, 2))
    return FamilySpec(F(17, 2), G, {g: Poly([rng.randint(-5, 5) for _ in range(g)] + [1])
                                    for g in G})


@pytest.mark.parametrize("spec", [
    FamilySpec(F(7), (1,), {1: parse_poly("x-1000000000")}),
    FamilySpec(F(7), (1,), {1: parse_poly("2*x-100001")}),
    degenerate_preset(2, 4, [1, 2, 3, 5]),   # scan bound 311041, degree 8
    FamilySpec(F(22, 7), (2, 3), {2: parse_poly("x^2"), 3: parse_poly("x^3")}),
    krall_preset(50, 1, ["1"]),              # degree 50, scan bound of 215 bits
    random_odd_family(8),                    # degree 36
    # Omega of degree 21 with a triple root: inadmissible
    FamilySpec(F(17, 2), tuple(range(1, 12, 2)),
               {g: parse_poly(f"x^{g}+1") for g in range(1, 12, 2)}),
], ids=["far-root", "wide", "degenerate", "fail-at-one", "krall-50", "random-odd-8",
        "triple-root"])
def test_certify_evaluates_omega_polylog_times(spec, monkeypatch):
    """At most 2 * deg * log2(scan bound) evaluations of Omega or of the
    derivatives that poly.integer_roots walks up (each poly._horner call
    evaluates one of them at one point)."""
    om = omega(spec)
    bound = math.ceil(1 + max(abs(c / om.lead) for c in om.coeffs[:-1]))
    budget = 2 * om.degree * math.ceil(math.log2(bound + 2))
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            assert calls <= budget, f"more than {budget} evaluations"
            return fn(*args)
        return wrapper

    monkeypatch.setattr(casolag.family, "omega", lambda _spec: om)
    monkeypatch.setattr(Poly, "__call__", counted(Poly.__call__))
    monkeypatch.setattr(casolag.poly, "_horner", counted(casolag.poly._horner))
    cert = certify_admissible(spec)
    assert cert.integer_scan_bound == bound and 0 < calls <= budget


def test_beta_row_structure(nonsegment_spec):
    om = omega(nonsegment_spec)
    m = nonsegment_spec.m
    for n in (0, 1, 3, 6):
        row = beta(nonsegment_spec, n)
        assert len(row.values) == m + 1
        assert row.values[0] == om(F(n))
        assert row.values[m] == (-1) ** m * om(F(n + 1))


def test_beta_annihilates_seeds(nonsegment_spec):
    # sum_j beta_{n,j} R_g(n-j) = 0 for every seed
    for n in (0, 2, 5):
        row = beta(nonsegment_spec, n)
        for g in nonsegment_spec.G:
            s = sum((row.values[j] * nonsegment_spec.R[g](F(n - j))
                     for j in range(len(row.values))), F(0))
            assert s == 0


def test_q_poly_degree_and_lead(nonsegment_spec):
    om = omega(nonsegment_spec)
    for n in range(9):
        q = q_poly(nonsegment_spec, n)
        assert q.degree == n
        assert q.lead == F((-1) ** n) * om(F(n)) / math.factorial(n)


def test_short_ladder_at_the_cap_takes_only_its_rows(monkeypatch):
    # deg Omega = 1998 here: the ladder must not take its D + 1 = 1999
    # determinant rows up front when q_8 needs at most rows 0..8
    spec = FamilySpec(F(17, 2), (999, 1000), {
        g: parse_poly(f"x^{g}+{g}*x+1") for g in (999, 1000)})
    calls = 0
    direct = casolag.family.beta

    def counted(spec, n):
        nonlocal calls
        calls += 1
        return direct(spec, n)

    monkeypatch.setattr(casolag.family, "beta", counted)
    assert q_poly(spec, 8).degree == 8
    assert 0 < calls <= 9


def test_q_poly_is_laguerre_combination(nonsegment_spec):
    spec = nonsegment_spec
    n = 6
    row = beta(spec, n)
    combo = Poly.zero()
    for j, b in enumerate(row.values):
        if n - j >= 0:
            combo = combo + b * laguerre(n - j, spec.alpha)
    assert combo == q_poly(spec, n)


def test_q_poly_degenerate_raises():
    spec = FamilySpec(F(22, 7), (2, 3), {
        2: parse_poly("x^2"), 3: parse_poly("x^3")})
    with pytest.raises(DegenerateFamily):
        q_poly(spec, 1)


def test_seed_mixing_invariance(nonsegment_spec):
    # adding lower seeds to higher ones leaves every q_n unchanged
    spec = nonsegment_spec
    mixed = FamilySpec(spec.alpha, spec.G, {
        1: spec.R[1],
        2: spec.R[2] + 3 * spec.R[1],
        5: spec.R[5] - spec.R[2] + F(1, 2) * spec.R[1],
    })
    for n in range(7):
        assert q_poly(mixed, n) == q_poly(spec, n)


def test_seed_scaling_rescales_q():
    spec = FamilySpec(F(7), (1, 2), {1: parse_poly("x+1"),
                                     2: parse_poly("x^2+x+1")})
    scaled = FamilySpec(F(7), (1, 2), {1: 2 * spec.R[1],
                                       2: spec.R[2]})
    for n in range(5):
        a, b = q_poly(spec, n), q_poly(scaled, n)
        # proportional, never equal-to-zero mismatch
        assert a * b.lead == b * a.lead


def test_reduce_representation(nonsegment_spec):
    red = reduce_representation(nonsegment_spec)
    # powers x^g for lower g in G are absent from higher seeds
    assert red.R[2].coeff(1) == 0
    assert red.R[5].coeff(1) == 0
    assert red.R[5].coeff(2) == 0
    # same family
    for n in range(6):
        assert q_poly(red, n) == q_poly(nonsegment_spec, n)
    # idempotent
    again = reduce_representation(red)
    assert again.R == red.R


def test_krall_preset_seeds():
    spec = krall_preset(2, 2, [F(1), F(1)])
    assert spec.alpha == 2
    assert spec.G == (2, 3)
    assert render(spec.R[2]) == "1/2*x^2+3/2*x+2"
    assert render(spec.R[3]) == "1/6*x^3+x^2+5/6*x+1"
    assert render(omega(spec)) == "-1/12*x^4-11/12*x^2+x+1"


def test_krall_preset_validation():
    with pytest.raises(InvalidPreset):
        krall_preset(1, 2, [F(1), F(1)])  # needs alpha >= m
    with pytest.raises(InvalidPreset):
        krall_preset(2, 2, [F(0), F(1)])  # a_0 must be nonzero
    with pytest.raises(InvalidPreset):
        krall_preset(2, 2, [F(1)])  # wrong length


def test_presets_refuse_seeds_past_max_degree(monkeypatch):
    # seeds reach degree alpha+m-1, held to the parser's cap on explicit
    # seeds; the refusal comes before any seed is built
    build = casolag.krall.binom_poly

    def guarded(l):
        assert l <= MAX_DEGREE, f"built binom_poly({l})"
        return build(l)
    monkeypatch.setattr(casolag.krall, "binom_poly", guarded)
    for alpha in (MAX_DEGREE + 1, 100000):
        with pytest.raises(InvalidPreset, match=f"= {alpha} exceeds {MAX_DEGREE}"):
            krall_preset(alpha, 1, ["1"])
    with pytest.raises(InvalidPreset, match=f"= {MAX_DEGREE + 1} exceeds"):
        degenerate_preset(2, MAX_DEGREE, ["1"] * MAX_DEGREE)
    assert max(krall_preset(MAX_DEGREE, 1, ["1"]).G) == MAX_DEGREE


def test_degenerate_preset_seeds():
    spec = degenerate_preset(1, 2, [F(0), F(2)])
    assert spec.G == (1, 2)
    assert render(spec.R[1]) == "x+1"
    assert render(spec.R[2]) == "1/2*x^2+3/2*x+3"


def test_degenerate_preset_validation():
    with pytest.raises(InvalidPreset):
        degenerate_preset(2, 2, [F(1), F(1)])  # needs alpha <= m-1
    with pytest.raises(InvalidPreset):
        degenerate_preset(1, 2, [F(1)])  # wrong length


def test_degenerate_preset_origin_vanishing():
    # members vanish at 0 to order m - alpha from index m - alpha on
    spec = degenerate_preset(1, 3, [F(0), F(0), F(3)])
    assert certify_admissible(spec).passed
    for n in range(2, 9):
        q = q_poly(spec, n)
        assert q(F(0)) == 0
        assert deriv(q)(F(0)) == 0
    assert q_poly(spec, 1)(F(0)) != 0


def test_degenerate_quotient_is_krall():
    # dividing out the forced origin root turns the degenerate family into
    # a genuine krall family with swapped parameters and a_0 = -a~_1
    spec = degenerate_preset(1, 2, [F(0), F(2)])
    target = krall_preset(2, 1, [F(-2)])
    shift = 1  # m - alpha
    for n in range(6):
        quotient = q_poly(spec, n + shift).shift_down(shift)
        kq = q_poly(target, n)
        assert quotient.degree == n
        assert quotient * kq.lead == kq * quotient.lead


def test_match_krall_roundtrip():
    for a in ([F(1)], [F(2)], [F(-3, 2)]):
        spec = krall_preset(1, 1, a)
        assert match_krall_parameters(spec) == a
    spec = krall_preset(3, 2, [F(2), F(-1)])
    assert match_krall_parameters(spec) == [F(2), F(-1)]
    spec = degenerate_preset(1, 2, [F(0), F(2)])
    assert match_krall_parameters(spec) == [F(0), F(2)]


def test_match_krall_mixing_invariant():
    spec = krall_preset(2, 2, [F(1), F(1)])
    mixed = FamilySpec(spec.alpha, spec.G, {
        2: spec.R[2] * 5,
        3: spec.R[3] + 3 * spec.R[2],
    })
    assert match_krall_parameters(mixed) == [F(1), F(1)]


def test_match_krall_rejects(nonsegment_spec):
    assert match_krall_parameters(nonsegment_spec) is None  # G not a segment
    spec = krall_preset(2, 2, [F(1), F(1)])
    pert = FamilySpec(spec.alpha, spec.G, {
        2: spec.R[2] + parse_poly("x"), 3: spec.R[3]})
    assert match_krall_parameters(pert) is None
    halfint = FamilySpec(F(3, 2), (1, 2), {1: parse_poly("x"),
                                           2: parse_poly("x^2+1")})
    assert match_krall_parameters(halfint) is None


def test_json_roundtrip(nonsegment_spec):
    text = json.dumps(nonsegment_spec.to_json_dict(), sort_keys=True, indent=2)
    back = spec_from_json(text)
    assert back == nonsegment_spec
    obj = json.loads(text)
    assert obj["alpha"] == "7"
    assert obj["G"] == [1, 2, 5]


def test_json_preset_form():
    text = json.dumps({"preset": "krall", "alpha": 2, "m": 2, "a": [1, 1]})
    spec = spec_from_json(text)
    assert spec == krall_preset(2, 2, [F(1), F(1)])
    text = json.dumps({"preset": "degenerate", "alpha": 1, "m": 2,
                       "a": ["0", "2"]})
    assert spec_from_json(text) == degenerate_preset(1, 2, [F(0), F(2)])


def test_spec_naming_a_seed_twice_rejected():
    # "01" and 1 name one degree: the spec does not keep the last silently
    with pytest.raises(ValueError, match=re.escape('R names one seed twice, keys ["01", 1]')):
        FamilySpec(7, (1,), {"01": parse_poly("x+3"), 1: parse_poly("x+5")})


@pytest.mark.parametrize("nested", ["[" * 100000 + "]" * 100000,
                                    '{"a": ' * 100000 + "1" + "}" * 100000],
                         ids=["arrays", "objects"])
def test_json_nested_too_deeply_is_a_value_error(nested):
    # json raises RecursionError past the interpreter's recursion limit
    text = '{"alpha": ' + nested + ', "G": [1], "R": {"1": "x"}}'
    with pytest.raises(ValueError, match="nested too deeply to decode"):
        spec_from_json(text)


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        spec_from_json(json.dumps(
            {"alpha": 1.5, "G": [1], "R": {"1": "x"}}))

"""Seeded Laguerre-type families.

A family is specified by a rational parameter alpha, a strictly increasing
set G = {g_1 < ... < g_m} of positive integers, and seed polynomials R_g of
degree exactly g.  The shifted determinant

    Omega(x) = det( R_{g_l}(x - j) ),  l, j = 1..m,

must not vanish at any nonnegative integer (admissibility); then

    q_n = sum_{j=0}^{min(m,n)} beta_{n,j} L_{n-j},

with beta_{n,j} the signed maximal minors of the (m+1)-column value matrix
(R_g(n-i))_{i=0..m}, is a degree-n polynomial for every n.  Admissibility is
certified, not sampled: Omega is a polynomial, so its nonnegative integer
roots lie below a root bound, where Sturm sequences isolate them exactly.

Seed leading coefficients are not forced to 1/g!: rescaling a seed only
rescales every q_n by the same constant, and all invariants used downstream
are stated in a normalization-free way.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction

from .laguerre import laguerre_ints
from .linalg import det_int, solve_linear, InconsistentSystem
from .parsing import parse_poly
from .poly import (Poly, as_rat, clear_denominators, integer_roots, rat_str, record,
                   render)
from .special import _shifted_values, binom_poly, casoratian, poch


class DegenerateFamily(Exception):
    """The shifted determinant vanishes where the construction needs it."""


class InvalidPreset(ValueError):
    """Preset parameters outside their validity range."""


def _degree(g) -> int:
    """A degree of G or key of R: an int other than a bool, or its text in
    ASCII digits; int() would round 1.7, read True as 1, and read "1_0",
    " 1" and "+1" as numbers."""
    if isinstance(g, str) and g.isascii() and g.isdecimal():
        g = int(g)
    if not isinstance(g, int) or isinstance(g, bool):
        raise ValueError(f"G entries and R keys must be integers, got {g!r}")
    return g


@record(frozen=True)
class FamilySpec:
    alpha: Fraction
    G: tuple[int, ...]
    R: dict[int, Poly]

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_rat(self.alpha))
        G = tuple(_degree(g) for g in self.G)
        if not G:
            raise ValueError("G must be nonempty")
        if any(g <= 0 for g in G):
            raise ValueError("G entries must be positive integers")
        if any(G[i] >= G[i + 1] for i in range(len(G) - 1)):
            raise ValueError("G must be strictly increasing")
        object.__setattr__(self, "G", G)
        R = {_degree(g): p for g, p in self.R.items()}
        if set(R) != set(G):
            raise ValueError("R must have exactly one seed per element of G")
        for g, p in R.items():
            if p.degree != g:
                raise ValueError(f"seed for g={g} must have degree exactly {g}")
        object.__setattr__(self, "R", R)

    @property
    def m(self) -> int:
        return len(self.G)

    @property
    def max_g(self) -> int:
        return self.G[-1]

    def seeds(self) -> list[Poly]:
        return [self.R[g] for g in self.G]

    def to_json_dict(self) -> dict:
        return {
            "alpha": rat_str(self.alpha),
            "G": list(self.G),
            "R": {str(g): render(self.R[g]) for g in self.G},
        }


@record
class BetaRow:
    n: int
    values: tuple[Fraction, ...]


@record
class AdmissibilityCertificate:
    omega: Poly
    integer_scan_bound: int
    verdict: str  # "pass" | "fail"
    fail_n: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def omega(spec: FamilySpec) -> Poly:
    """det(R_{g_l}(x-j))_{l,j=1..m}; the casoratian of the seeds at x-1."""
    return casoratian(spec.seeds()).translate(-1)


def certify_admissible(spec: FamilySpec) -> AdmissibilityCertificate:
    """Certify Omega(n) != 0 for every integer n >= 0.

    All real roots of Omega lie strictly below the Cauchy bound
    1 + max_k |a_k|/|a_d|, so Omega's integer roots in [0, ceil(bound)],
    isolated by Sturm sequences (poly.integer_roots), are all of its
    nonnegative integer roots: the certificate is complete, and its cost is
    polynomial in the bit size of Omega.
    """
    om = omega(spec)
    if om.is_zero():
        raise DegenerateFamily("shifted determinant is identically zero")
    lead = abs(om.lead)
    bound = max((abs(c) / lead for c in om.coeffs[:-1]), default=Fraction(0))
    scan = math.ceil(1 + bound)
    roots = integer_roots(om, 0, scan)
    if roots:
        return AdmissibilityCertificate(om, scan, "fail", fail_n=roots[0])
    return AdmissibilityCertificate(om, scan, "pass")


def beta(spec: FamilySpec, n: int) -> BetaRow:
    """Signed maximal minors of (R_g(n-i))_{g in G, i=0..m}.

    beta_{n,j} = (-1)^j det of the matrix with column i=j deleted; the
    alternating sum sum_j beta_{n,j} R_g(n-j) vanishes for every g in G,
    and beta_{n,0} = Omega(n), beta_{n,m} = (-1)^m Omega(n+1).  The value
    matrix is the Casoratian's, in integers (special._shifted_values), so
    the minors are integer determinants (det_int), divided once by its
    scale.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    scale, vals = _shifted_values(spec.seeds(), n, spec.m + 1)
    return BetaRow(n, tuple(
        Fraction((-1) ** j * det_int([row[:j] + row[j + 1:] for row in vals]), scale)
        for j in range(spec.m + 1)))


def q_rung(spec: FamilySpec, n: int) -> tuple[tuple[int, ...], Fraction]:
    """q_n's coefficients beta_{n,0..min(m,n)} on L_n, ..., L_{n-min(m,n)},
    as a primitive integer row b and the positive scale with b = scale * beta.

    Raises DegenerateFamily when Omega(n) = 0, because then beta_{n,0} = 0
    and the degree drops below n.
    """
    values = beta(spec, n).values
    if values[0] == 0:
        raise DegenerateFamily(f"Omega({n}) = 0: q_{n} would lose degree")
    den, ints = clear_denominators(values[:min(spec.m, n) + 1])
    g = math.gcd(*ints)
    return tuple(b // g for b in ints), Fraction(den, g)


def q_poly(spec: FamilySpec, n: int) -> Poly:
    """The degree-n family member q_n = sum_j beta_{n,j} L_{n-j}, summed in
    integers: with alpha = p/q and (b, scale) = q_rung(spec, n), scale n! q^n
    q_n = sum_j b_j n!/(n-j)! q^j [(n-j)! q^(n-j) L_{n-j}] (laguerre_ints)."""
    b, scale = q_rung(spec, n)
    p, q = spec.alpha.numerator, spec.alpha.denominator
    out = [0] * (n + 1)
    for j, bj in enumerate(b):
        f = bj * math.perm(n, j) * q ** j
        for k, c in enumerate(laguerre_ints(n - j, p, q)):
            out[k] += f * c
    den = scale.numerator * math.factorial(n) * q ** n
    return Poly(Fraction(c * scale.denominator, den) for c in out)


def reduce_representation(spec: FamilySpec) -> FamilySpec:
    """Equivalent seeds in which R_g carries no monomial x^h for h in G, h < g.

    Adding multiples of lower seeds to a higher one leaves every q_n (and
    every beta row) unchanged; this picks the canonical representative of
    that orbit by triangular elimination.
    """
    reduced: dict[int, Poly] = {}
    for g in spec.G:
        p = spec.R[g]
        for h in reversed([h for h in spec.G if h < g]):
            c = p.coeff(h)
            if c != 0:
                # reduced[h] is already clean above degree h except its lead
                p = p - (c / reduced[h].lead) * reduced[h]
        reduced[g] = p
    return FamilySpec(spec.alpha, spec.G, reduced)


def krall_preset(alpha: int, m: int, a: Sequence) -> FamilySpec:
    """Seeds generating the classical point-mass-perturbed Laguerre families.

    G = {alpha, ..., alpha+m-1} and, for h = 1..m,

        R_{g_h} = binom(x+alpha+h-1, alpha+h-1)
                  + (h-1)! sum_{l=0}^{h-1} (-1)^l a_{h-l-1}/(alpha-l)_l binom(x+l, l).

    Requires integer alpha >= m >= 1 and a_0 != 0 (a has length m).
    """
    if not isinstance(alpha, int) or not isinstance(m, int):
        raise InvalidPreset("alpha and m must be integers")
    if m < 1 or alpha < m:
        raise InvalidPreset("needs alpha >= m >= 1")
    a = [as_rat(v) for v in a]
    if len(a) != m:
        raise InvalidPreset(f"a must have length m = {m}")
    if a[0] == 0:
        raise InvalidPreset("a[0] must be nonzero")
    return FamilySpec(Fraction(alpha), tuple(range(alpha, alpha + m)),
                      {alpha + h - 1: _preset_seed(alpha, h, a, h - 1) for h in range(1, m + 1)})


def degenerate_preset(alpha: int, m: int, a_tilde: Sequence) -> FamilySpec:
    """Variant of krall_preset for 1 <= alpha <= m-1.

    Same G and leading binomial, but the correction sum for R_{g_h} stops at
    l = h+alpha-m-1 (empty when negative), so only a_tilde[m-alpha..m-1]
    enter.  a_tilde has length m; the unused leading entries are ignored.
    The resulting q_n all vanish to order m-alpha at 0 once n >= m-alpha.
    """
    if not isinstance(alpha, int) or not isinstance(m, int):
        raise InvalidPreset("alpha and m must be integers")
    if alpha < 1 or alpha >= m:
        raise InvalidPreset("needs 1 <= alpha <= m-1")
    a_tilde = [as_rat(v) for v in a_tilde]
    if len(a_tilde) != m:
        raise InvalidPreset(f"a_tilde must have length m = {m}")
    return FamilySpec(Fraction(alpha), tuple(range(alpha, alpha + m)),
                      {alpha + h - 1: _preset_seed(alpha, h, a_tilde, h + alpha - m - 1)
                       for h in range(1, m + 1)})


def _preset_seed(alpha: int, h: int, a: Sequence[Fraction], l_top: int) -> Poly:
    p = binom_poly(alpha + h - 1)
    corr = Poly.zero()
    for l in range(0, l_top + 1):
        corr = corr + ((-1) ** l * a[h - l - 1] / poch(alpha - l, l)) * binom_poly(l)
    return p + math.factorial(h - 1) * corr


def match_krall_parameters(spec: FamilySpec) -> list[Fraction] | None:
    """Decide whether the family coincides with a preset family.

    Families are identified up to the two symmetries that leave the q_n
    unchanged (up to constants): rescaling each seed, and adding multiples
    of lower seeds to higher ones.  Returns the recovered a-vector when the
    spec lies in the krall_preset orbit (alpha >= m) or degenerate_preset
    orbit (alpha <= m-1), else None.  Only defined for positive integer
    alpha and G = {alpha, ..., alpha+m-1}.
    """
    alpha = spec.alpha
    if alpha.denominator != 1 or alpha <= 0:
        return None
    alpha = int(alpha)
    m = spec.m
    if spec.G != tuple(range(alpha, alpha + m)):
        return None
    krall = alpha >= m

    # normalize seed leads to 1/g!
    norm = {g: spec.R[g] * (Fraction(1, math.factorial(g)) / spec.R[g].lead)
            for g in spec.G}

    # unknowns: eta_{h,h'} (h' < h) for the lower-seed mixing, then a_0..a_{m-1}
    eta_index = {}
    for h in range(2, m + 1):
        for hp in range(1, h):
            eta_index[(h, hp)] = len(eta_index)
    n_eta = len(eta_index)

    units = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for h in range(1, m + 1):
        g = alpha + h - 1
        l_top = h - 1 if krall else h + alpha - m - 1
        # target: norm_g + sum eta * norm_lower - correction(a) = binom(x+g, g)
        base = norm[g] - binom_poly(g)
        # column of a_i: the a_i part of the preset's correction sum
        corr = [_preset_seed(alpha, h, e, l_top) - binom_poly(g) for e in units]
        for t in range(g + 1):
            row = [Fraction(0)] * n_eta + [-c.coeff(t) for c in corr]
            for hp in range(1, h):
                row[eta_index[(h, hp)]] = norm[alpha + hp - 1].coeff(t)
            rows.append(row)
            rhs.append(-base.coeff(t))
    try:
        sol = solve_linear(rows, rhs)
    except InconsistentSystem:
        return None
    assert sol.particular is not None
    a_vec = sol.particular[n_eta:]
    if krall and a_vec[0] == 0:
        # a_0 is forced or adjustable; try to push it off zero along the nullspace
        for v in sol.nullspace:
            if v[n_eta] != 0:
                a_vec = [ai + vi for ai, vi in zip(a_vec, v[n_eta:])]
                break
        else:
            return None
    return list(a_vec)


# -- JSON interchange -------------------------------------------------


def spec_to_json(spec: FamilySpec) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True, indent=2)


_JSON_TYPES = {list: "an array", dict: "an object", str: "a string"}


def _json_typed(v, kind: type, what: str):
    if not isinstance(v, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {json.dumps(v)}")
    return v


def _json_number(v, what: str, rational: bool = False):
    """v read as schemas/family.json reads it: an integer (3 or 3.0, not
    3.5 or true) as an int, or with rational set also a "p/q" string, as a
    Fraction."""
    if rational and isinstance(v, str):
        try:
            return as_rat(v)
        except ValueError as e:
            raise ValueError(f"{what}: {e}") from None
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v) if rational else v
    kind = 'an integer or a "p/q" string' if rational else "an integer"
    raise ValueError(f"{what} must be {kind}, got {json.dumps(v)}")


def spec_from_json_dict(obj: dict) -> FamilySpec:
    """Build a spec from its JSON form, expanding preset descriptors.

    Direct form: {"alpha": "p/q", "G": [g...], "R": {"g": "<poly>"}}.
    Preset form: {"preset": "krall"|"degenerate", "alpha": int, "m": int,
    "a": ["p/q", ...]}.  What schemas/family.json rejects raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("family config must be a JSON object")
    keys = {"preset", "alpha", "m", "a"} if "preset" in obj else {"alpha", "G", "R"}
    if set(obj) != keys:
        raise ValueError(f"family config needs exactly the keys {sorted(keys)}, "
                         f"got {sorted(obj)}")
    if "preset" in obj:
        kind = obj["preset"]
        alpha = _json_number(obj["alpha"], "alpha")
        m = _json_number(obj["m"], "m")
        a = [_json_number(v, "a entry", rational=True)
             for v in _json_typed(obj["a"], list, "a")]
        if kind == "krall":
            return krall_preset(alpha, m, a)
        if kind == "degenerate":
            return degenerate_preset(alpha, m, a)
        raise ValueError(f"unknown preset kind {json.dumps(kind)}")
    alpha = _json_number(obj["alpha"], "alpha", rational=True)
    G = [_json_number(g, "G entry") for g in _json_typed(obj["G"], list, "G")]
    seeds = _json_typed(obj["R"], dict, "R")
    R = {_degree(g): parse_poly(_json_typed(text, str, f"seed R[{g}]"))
         for g, text in seeds.items()}
    if len(R) < len(seeds):
        raise ValueError(f"R names one seed twice, keys {json.dumps(list(seeds))}")
    return FamilySpec(alpha, tuple(G), R)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: a key given twice is an error, where json
    would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for k in keys if keys.count(k) > 1)
        raise ValueError(f"key {json.dumps(twice)} given twice")
    return obj


def spec_from_json(text: str) -> FamilySpec:
    return spec_from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))

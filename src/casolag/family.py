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
roots lie below a root bound, where its derivative sequence isolates them.
Omega and the beta rows start from the seeds' integer values, not Poly.

Each beta_{n,j} is a polynomial in n of degree <= D = sum(G) - m(m-1)/2 =
deg Omega.  In the minor with column j deleted, replace the k-th kept
column by the divided difference of the kept columns c_0..c_k: a triangular
change with nonzero diagonal, after which column k has degree <= g - k in
n, so the minor has degree <= sum(G) - (0 + 1 + ... + m-1) = D.  So the
beta ladder behind q_rung (one memo per spec) takes determinant rows for n
<= D only, each when first asked for, and each later row by D exact integer
additions per column on the backward differences of rows 0..D.

Seed leading coefficients are not forced to 1/g!: rescaling a seed only
rescales every q_n by the same constant, and all invariants used downstream
are stated in a normalization-free way.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from .laguerre import laguerre_ints
from .linalg import maximal_minors
from .parsing import parse_poly
from .poly import Poly, as_rat, integer_roots, rat_str, record, render
from .special import _cleared, _shifted_values, casoratian


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
        if len(R) < len(self.R):
            raise ValueError(f"R names one seed twice, keys {json.dumps(list(self.R))}")
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
    """det(R_{g_l}(x-j))_{l,j=1..m}: the Casoratian of the seeds with shift
    1, interpolated from the seeds' integer values at the shifted nodes."""
    return casoratian(spec.seeds(), 1)


def certify_admissible(spec: FamilySpec) -> AdmissibilityCertificate:
    """Certify Omega(n) != 0 for every integer n >= 0.

    All real roots of Omega lie strictly below the Cauchy bound
    1 + max_k |a_k|/|a_d|, so Omega's integer roots in [0, ceil(bound)],
    isolated in integers along its derivative sequence (poly.integer_roots),
    are all of its nonnegative integer roots: the certificate is complete,
    and its cost is polynomial in Omega's bit size.
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
    the minors come from one fraction-free elimination (maximal_minors),
    divided once by its scale.  Each beta_{n,j} is a polynomial in n of
    degree <= D (module docstring), which is what lets q_rung take rows
    past D by differences.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    scale, vals = _shifted_values(spec.seeds(), n, spec.m + 1)
    return BetaRow(n, tuple(Fraction(v, scale) for v in maximal_minors(vals)))


@lru_cache(maxsize=8)
def _ladder(spec: FamilySpec) -> tuple[int, int, dict[int, list[int]], list[list[int]]]:
    """The spec's beta ladder, grown by _ladder_row: (scale, D, rows,
    nablas) with scale the product of the seeds' denominator lcms, D = deg
    Omega, rows[n] = scale * beta_n in integers, and once a row past D is
    asked for, nablas[j][k] the k-th backward difference of column j at the
    last row, k = 0..D."""
    scale = math.prod(_cleared(p)[0] for p in spec.seeds())
    return scale, sum(spec.G) - spec.m * (spec.m - 1) // 2, {}, []


def _ladder_row(spec: FamilySpec, n: int) -> tuple[int, list[int]]:
    """(scale, rows[n]) of _ladder(spec).  A row n <= D is beta's
    determinants, taken alone; rows past D need rows 0..D once, then each
    costs D additions per column (nabla^k += nabla^(k+1), k = D-1..0, as
    nabla^D is constant)."""
    scale, D, rows, nablas = _ladder(spec)
    if n in rows:
        return scale, rows[n]
    if n <= D:
        rows[n] = [v.numerator * (scale // v.denominator) for v in beta(spec, n).values]
        return scale, rows[n]
    if not nablas:
        for col in zip(*(_ladder_row(spec, k)[1] for k in range(D + 1))):
            nabla, diffs = [], list(col)
            while diffs:
                nabla.append(diffs[-1])
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            nablas.append(nabla)
    while len(rows) <= n:  # rows holds 0..len(rows)-1 once nablas exist
        for nabla in nablas:
            for i in range(D - 1, -1, -1):
                nabla[i] += nabla[i + 1]
        rows[len(rows)] = [nabla[0] for nabla in nablas]
    return scale, rows[n]


def q_rung(spec: FamilySpec, n: int) -> tuple[tuple[int, ...], Fraction]:
    """q_n's coefficients beta_{n,0..min(m,n)} on L_n, ..., L_{n-min(m,n)},
    as a primitive integer row b and the positive scale with b = scale * beta.

    Read from the spec's memoized ladder (_ladder_row): beta's determinants
    for rows n <= D = deg Omega, exact backward differences after, so a
    ladder of N rows costs min(N, D + 1) determinant rows.  Raises
    DegenerateFamily when Omega(n) = 0, because then beta_{n,0} = 0 and the
    degree drops below n.
    """
    scale, v = _ladder_row(spec, n)
    if v[0] == 0:
        raise DegenerateFamily(f"Omega({n}) = 0: q_{n} would lose degree")
    v = v[:min(spec.m, n) + 1]
    g = math.gcd(*v)
    return tuple(b // g for b in v), Fraction(scale, g)


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


# -- JSON interchange -------------------------------------------------


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
        # krall is a lazy module: only a preset config runs it
        from . import krall
        if kind == "krall":
            return krall.krall_preset(alpha, m, a)
        if kind == "degenerate":
            return krall.degenerate_preset(alpha, m, a)
        raise ValueError(f"unknown preset kind {json.dumps(kind)}")
    alpha = _json_number(obj["alpha"], "alpha", rational=True)
    G = [_json_number(g, "G entry") for g in _json_typed(obj["G"], list, "G")]
    seeds = _json_typed(obj["R"], dict, "R")
    R = {g: parse_poly(_json_typed(text, str, f"seed R[{g}]")) for g, text in seeds.items()}
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
    """spec_from_json_dict of the JSON text.  A key given twice, an integer
    past the digit limit and nesting too deep to decode raise ValueError."""
    try:
        return spec_from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))
    except RecursionError:
        raise ValueError("arrays or objects nested too deeply to decode") from None

"""Bilinear forms under which the constructed families are orthogonal.

Two variants, both reported divided by Gamma(alpha) so values are exact
rationals:

* generic: defined whenever alpha is not an integer <= max(G).  Pairs
      <p,q> = int p q mu_{alpha-m} + sum_i q^(i)(0)/i! int p U_i mu_alpha,
  where the U_i are Laurent corrections built from the seeds.

* xi: for positive integer alpha <= max(G), where the generic form hits
  Gamma poles.  The first integral gains a derivative of order
  d = max(0, m-alpha) and drops to the weight parameter max(0, alpha-m);
  the Laurent corrections are truncated at power -alpha; the truncated tail
  reappears as a discrete part in derivative values at 0.

Both variants cancel to one Gram matrix on monomials.  With d = 0 for the
generic variant, w^g the binomial-basis coefficients of the seed R_g and
W_b[l] = sum_{g >= l} kappa_b^g w_l^g for l = 0..maxG:

    <x^a, x^b> = sum_l (alpha-l)_a W_b[l]          for b < m,
    <x^a, x^b> = b!/(b-d)! (alpha)_(a+b-m+1)       for b >= m.

For b < m the head -(b-m+alpha+1)_d x^(b-m) of U_b integrates to minus the
weight integral, because (b-m+alpha+1)_d = b!/(b-d)!; each seed term
kappa (alpha-l)_l w_l x^(-l-1) integrates to kappa (alpha-l)_a w_l; and for
xi the discrete part supplies that same term for every l >= alpha+a, while
(alpha-l)_a = 0 for alpha <= l < alpha+a.  For b >= m every shift is at
least 1, so the weight moments are plain Pochhammer symbols and no Gamma
pole can occur.  The variant survives only in d.

BilinearForm pairs through the Gram row of p, row_p[b] = <p, x^b>:

    row_p[b] = sum_a p_a c_b[a]                          for b < m,
    row_p[b] = b!/(b-d)! sum_a p_a (alpha)_(a+b-m+1)     for b >= m,

with c_b[a] = sum_l (alpha-l)_a W_b[l], and <p, q> = sum_b q_b row_p[b].
The form keeps the row of the last p it paired and extends it lazily to the
length of each q, so pairing q_n with q_0..q_n in turn builds each entry of
q_n's row once: O(n) operations per entry and per dot product, so
O(nmax^3) for ortho_check's whole triangle.  With alpha = p/q, each Gram
entry times q^(a+b+1) and the W_b's common denominator is an integer, so
the rows and pairings are integer sums, and a pairing builds one Fraction.

The kappa coefficients entering the corrections are solved once per family:
row i annihilates the seed values at -1..-(m-1-i) and is normalized to give
value 1 at -(m-i), with non-pivot components zeroed, which makes the matrix
a canonical function of the family.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .family import DegenerateFamily, FamilySpec, q_poly
from .linalg import InconsistentSystem, solve_linear
from .poly import LaurentPoly, Poly, as_rat, clear_denominators, record
from .special import _shifted_values, binom_rat, poch, to_binomial_basis


class VariantError(Exception):
    """Form evaluated outside its variant's validity range."""


@record(frozen=True)
class KappaMatrix:
    rows: tuple[tuple[Fraction, ...], ...]  # rows[i][l] pairs with G[l]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]


def kappa_solve(spec: FamilySpec, i: int) -> list[Fraction]:
    """Row i of the kappa matrix.

    Solves sum_g kappa^g R_g(-j) = 0 for j = 1..m-1-i together with the
    normalization sum_g kappa^g R_g(-(m-i)) = 1.  The system has full rank
    whenever Omega(0) != 0 (its rows are leading columns of the value
    matrix behind Omega(0)), so admissible families always pass.  It is
    solved on the seeds' integer values lcm_g R_g(-j) (special._shifted_values),
    and each entry is then scaled by its seed's lcm_g: scaling a column moves
    no pivot, so the RREF-canonical row is the same.
    """
    m = spec.m
    if not 0 <= i < m:
        raise ValueError(f"i must be in 0..{m - 1}")
    # cols[l] = [lcm_l R_l(-1), ..., lcm_l R_l(-(m-i))], one column per seed
    lcms, cols = zip(*(_shifted_values([spec.R[g]], -1, m - i) for g in spec.G))
    try:
        sol = solve_linear(list(zip(*(col for (col,) in cols))), [0] * (m - i - 1) + [1])
    except InconsistentSystem as e:
        raise DegenerateFamily(
            "kappa system unsolvable; Omega(0) must vanish") from e
    return [y * lcm for y, lcm in zip(sol.particular, lcms)]


def kappa_matrix(spec: FamilySpec) -> KappaMatrix:
    return KappaMatrix(tuple(tuple(kappa_solve(spec, i)) for i in range(spec.m)))


def _seed_ws(spec: FamilySpec) -> list[list[Fraction]]:
    """w^g, the binomial-basis coefficients of each seed R_g, in G order."""
    return [to_binomial_basis(spec.R[g]) for g in spec.G]


def _seed_weights(spec: FamilySpec, ws: Sequence[Sequence[Fraction]],
                  kappa_row: Sequence) -> list[Fraction]:
    """W[l] = sum_{g >= l} kappa^g w_l^g for l = 0..maxG, with ws = _seed_ws(spec)."""
    if len(kappa_row) != spec.m:
        raise ValueError(f"a kappa row needs m = {spec.m} entries, got {len(kappa_row)}")
    W = [Fraction(0)] * (spec.max_g + 1)
    for kap, w in zip(kappa_row, ws):
        kap = as_rat(kap)
        if kap != 0:
            for l, wl in enumerate(w):
                W[l] += kap * wl
    return W


def _correction(spec: FamilySpec, W: Sequence[Fraction], i: int, d: int,
                l_lo: int = 0) -> LaurentPoly:
    """-(i-m+alpha+1)_d x^(i-m) + sum_{l=l_lo}^{maxG} (alpha-l)_l W[l] x^(-l-1),
    with W a row's seed weights."""
    return LaurentPoly.from_terms(
        [(i - spec.m, -poch(i - spec.m + spec.alpha + 1, d))]
        + [(-l - 1, poch(spec.alpha - l, l) * W[l]) for l in range(l_lo, spec.max_g + 1)])


def _row_weights(spec: FamilySpec, kappa_row: Sequence) -> list[Fraction]:
    return _seed_weights(spec, _seed_ws(spec), kappa_row)


def u_function(spec: FamilySpec, kappa_row: Sequence, i: int) -> LaurentPoly:
    """Laurent correction of the generic variant for row i:

        U_i = -x^(i-m) + sum_g kappa^g sum_{l=0}^g (alpha-l)_l w_l^g x^(-l-1).
    """
    return _correction(spec, _row_weights(spec, kappa_row), i, 0)


def u_function_alt(spec: FamilySpec, kappa_row: Sequence, i: int) -> LaurentPoly:
    """Collapsed form of u_function, valid when kappa_row annihilates the
    seed values at -1..-(m-1-i): the powers above x^(i-m) cancel and

        U_i = -x^(i-m) + sum_{l=m-i-1}^{maxG} (alpha-l)_l W[l] x^(-l-1).
    """
    return _correction(spec, _row_weights(spec, kappa_row), i, 0, max(spec.m - i - 1, 0))


def _xi_alpha(spec: FamilySpec) -> int:
    alpha = spec.alpha
    if alpha.denominator != 1 or not 1 <= alpha <= spec.max_g:
        raise VariantError(
            f"xi variant needs integer alpha in 1..{spec.max_g}, got {alpha}")
    return int(alpha)


def _check_generic(spec: FamilySpec) -> None:
    alpha = spec.alpha
    if alpha.denominator == 1 and alpha <= spec.max_g:
        raise VariantError(
            f"generic variant undefined for integer alpha <= {spec.max_g}")


class BilinearForm:
    """A family's bilinear form with a fixed kappa matrix and variant.

    Pairs by the Gram row of the module docstring; the variant only chooses
    d.  With alpha = p/q, every table holds integers over a known
    denominator: W_b = _weights[b] / _wden, the moments (alpha)_s =
    _moments[s] / q^s, the running Pochhammer symbols (alpha-l)_a =
    _pochs[a][l] / q^a and the m columns c_b[a] = _columns[b][a] /
    (q^a _wden).  They grow as longer polynomials are paired and are reused
    by every later pairing.  A one-slot memo keyed on p's coefficients holds
    row_p[b] = _row[b] / (den_p q^(b+1) _wden), and each polynomial's
    cleared coefficients are kept once computed, so inner(p, q) costs one
    integer dot product, one Fraction, and whatever entries of row_p no
    earlier q reached; pairing a different p starts a new row.

    corrections() builds the Laurent corrections U_i themselves, which the
    pairing does not need.
    """

    def __init__(self, spec: FamilySpec, kappa: KappaMatrix | None, variant: str):
        if variant not in ("generic", "xi"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "generic":
            _check_generic(spec)
            self._d = 0
        else:
            self._d = max(0, spec.m - _xi_alpha(spec))
        self.spec = spec
        self.kappa = kappa if kappa is not None else kappa_matrix(spec)
        if len(self.kappa.rows) != spec.m:
            raise ValueError(f"a kappa matrix needs m = {spec.m} rows, got {len(self.kappa.rows)}")
        self.variant = variant
        self._p, self._q = spec.alpha.numerator, spec.alpha.denominator
        ws, k = _seed_ws(spec), spec.max_g + 1
        self._wden, wints = clear_denominators(
            [w for b in range(spec.m) for w in _seed_weights(spec, ws, self.kappa.row(b))])
        self._weights = [wints[b * k:(b + 1) * k] for b in range(spec.m)]
        self._moments, self._pochs = [1], [(1,) * k]
        self._columns: list[list[int]] = [[] for _ in range(spec.m)]
        self._row_key: tuple[Fraction, ...] | None = None  # p.coeffs of the row
        self._row_den, self._row_p, self._row = 1, [], []  # den_p, p's c_a, row
        self._clears: dict[int, tuple] = {}  # id(coeffs) -> (coeffs, den, c)

    @classmethod
    def generic(cls, spec: FamilySpec, kappa: KappaMatrix | None = None):
        return cls(spec, kappa, "generic")

    @classmethod
    def xi(cls, spec: FamilySpec, kappa: KappaMatrix | None = None):
        return cls(spec, kappa, "xi")

    def corrections(self) -> list[LaurentPoly]:
        """The U_i: u_function for the generic variant; for xi, the same with
        the x^(i-m) head scaled by (i-m+alpha+1)_d, which vanishes exactly
        for the rows where that power would reach a Gamma pole."""
        return [_correction(self.spec, [Fraction(w, self._wden) for w in W], i, self._d)
                for i, W in enumerate(self._weights)]

    def _column(self, b: int, n: int) -> list[int]:
        """q^a _wden c_b[a] for a < n at least."""
        col, pochs = self._columns[b], self._pochs
        while len(pochs) < n:
            a = len(pochs) - 1
            pochs.append(tuple(r * (self._p + (a - l) * self._q) for l, r in enumerate(pochs[a])))
        for a in range(len(col), n):
            col.append(sum(r * w for r, w in zip(pochs[a], self._weights[b]) if w))
        return col

    def _moments_to(self, s: int) -> list[int]:
        """q^t (alpha)_t for t <= s at least, by (alpha)_(t+1) = (alpha)_t (alpha+t)."""
        g = self._moments
        while len(g) <= s:
            g.append(g[-1] * (self._p + (len(g) - 1) * self._q))
        return g

    def _cleared(self, coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
        """(den, c) with coeffs[a] / q^a = c[a] / den, all integers.  Kept per
        coefficient tuple by identity (hashing a tuple of Fractions costs
        more than clearing it); each entry holds its tuple, so no other
        tuple can take its id while the form keeps it."""
        hit = self._clears.get(id(coeffs))
        if hit is None:
            den, q, top = math.lcm(*(c.denominator for c in coeffs)), self._q, len(coeffs) - 1
            hit = self._clears[id(coeffs)] = (coeffs, den * q ** max(top, 0), [
                c.numerator * (den // c.denominator) * q ** (top - a)
                for a, c in enumerate(coeffs)])
        return hit[1:]

    def _gram_row(self, p: Poly, n: int) -> list[int]:
        """den_p q^(b+1) _wden <p, x^b> for b < n at least, kept for the last
        p paired."""
        if p.coeffs != self._row_key:
            self._row_key, self._row = p.coeffs, []
            self._row_den, self._row_p = self._cleared(p.coeffs)
        row, pc, m = self._row, self._row_p, self.spec.m
        for b in range(len(row), n):
            if b < m:
                gram, off, f = self._column(b, len(pc)), 0, self._q ** (b + 1)
            else:
                gram, off = self._moments_to(len(pc) + b - m), b - m + 1
                f = math.perm(b, self._d) * self._wden * self._q ** m
            row.append(f * sum(pa * gram[a + off] for a, pa in enumerate(pc) if pa))
        return row

    def inner(self, p: Poly, q: Poly) -> Fraction:
        """<p, q> divided by Gamma(alpha): sum_b q_b <p, x^b>."""
        row = self._gram_row(p, len(q.coeffs))
        den, qc = self._cleared(q.coeffs)
        return Fraction(sum(qb * row[b] for b, qb in enumerate(qc) if qb),
                        den * self._row_den * self._q * self._wden)


def closed_form_moment(spec: FamilySpec, kappa_row: Sequence, k: int, u: int) -> Fraction:
    """Closed form of <x^k L_u, x^i> / Gamma(alpha) for the row's kappa:

        sum_{l=k}^{maxG} (alpha-l)_k W[l] binom(u+l-k, l-k),

    with W the row's seed weights (module docstring).  Valid for u >= k >= 0;
    reduces to sum_g kappa^g R_g(u) at k = 0.
    """
    if not 0 <= k <= u:
        raise ValueError("needs 0 <= k <= u")
    W = _row_weights(spec, kappa_row)
    return sum((poch(spec.alpha - l, k) * W[l] * binom_rat(u + l - k, l - k)
                for l in range(k, spec.max_g + 1)), Fraction(0))


@record
class OrthoReport:
    nmax: int
    variant: str
    passed: bool
    entries: list[tuple[int, int, Fraction]]  # (n, i, <q_n, q_i>) for i <= n
    first_violation: tuple[int, int, Fraction] | None = None


def ortho_check(form: BilinearForm, nmax: int) -> OrthoReport:
    """Verify <q_n, q_i> = 0 for i < n <= nmax and <q_n, q_n> != 0, exactly,
    for the members q_n of form.spec, the family the form belongs to.

    Pairs q_n with q_0..q_n in that order, so the form builds q_n's Gram row
    once and each pairing is one dot product."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    qs = [q_poly(form.spec, n) for n in range(nmax + 1)]
    entries = []
    violation = None
    for n in range(nmax + 1):
        for i in range(n + 1):
            v = form.inner(qs[n], qs[i])
            entries.append((n, i, v))
            bad = (v != 0) if i < n else (v == 0)
            if bad and violation is None:
                violation = (n, i, v)
    return OrthoReport(nmax=nmax, variant=form.variant,
                       passed=violation is None, entries=entries,
                       first_violation=violation)

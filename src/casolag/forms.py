"""Bilinear forms under which the constructed families are orthogonal.

Two variants, both reported divided by Gamma(alpha) so values are exact
rationals:

* generic: defined whenever alpha is not an integer <= max(G).  Pairs
      <p,q> = int p q mu_{alpha-m} + sum_i q^(i)(0)/i! int p U_i mu_alpha,
  where the U_i are Laurent corrections built from the seeds; negative
  powers are integrated by the analytic continuation of the Gamma ratios.

* xi: for positive integer alpha <= max(G), where the generic form hits
  Gamma poles.  The first integral gains a derivative of order
  max(0, m-alpha) and drops to the weight parameter max(0, alpha-m); the
  Laurent corrections are truncated at power -alpha; the truncated tail
  reappears as a discrete part in derivative values at 0.  All integrals
  are then pole-free.

Both variants are evaluated by one routine, BilinearForm.inner, over one
moment functional g(s) = Gamma(alpha+s)/Gamma(alpha): the first integral
is a termwise sum of g, and the correction part of x^a paired with x^i is
a per-form row functional c_i[a], built lazily from U_i (and, for xi, the
discrete part) and reused by every later pairing.

The kappa coefficients entering the corrections are solved once per family:
row i annihilates the seed values at -1..-(m-1-i) and is normalized to give
value 1 at -(m-i), with non-pivot components zeroed, which makes the matrix
a canonical function of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .family import DegenerateFamily, FamilySpec, q_poly
from .linalg import InconsistentSystem, solve_linear
from .poly import LaurentPoly, Poly, as_rat
from .special import binom_rat, gamma_ratio, poch, to_binomial_basis


class VariantError(Exception):
    """Form evaluated outside its variant's validity range."""


@dataclass(frozen=True)
class KappaMatrix:
    rows: Tuple[Tuple[Fraction, ...], ...]  # rows[i][l] pairs with G[l]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.rows[i]


def kappa_solve(spec: FamilySpec, i: int) -> List[Fraction]:
    """Row i of the kappa matrix.

    Solves sum_g kappa^g R_g(-j) = 0 for j = 1..m-1-i together with the
    normalization sum_g kappa^g R_g(-(m-i)) = 1.  The system has full rank
    whenever Omega(0) != 0 (its rows are leading columns of the value
    matrix behind Omega(0)), so admissible families always pass.
    """
    m = spec.m
    if not 0 <= i < m:
        raise ValueError(f"i must be in 0..{m - 1}")
    rows = []
    rhs = []
    for j in range(1, m - i):
        rows.append([spec.R[g](-j) for g in spec.G])
        rhs.append(Fraction(0))
    rows.append([spec.R[g](-(m - i)) for g in spec.G])
    rhs.append(Fraction(1))
    try:
        sol = solve_linear(rows, rhs)
    except InconsistentSystem as e:
        raise DegenerateFamily(
            "kappa system unsolvable; Omega(0) must vanish") from e
    return list(sol.particular)


def kappa_matrix(spec: FamilySpec) -> KappaMatrix:
    return KappaMatrix(tuple(tuple(kappa_solve(spec, i)) for i in range(spec.m)))


def _seed_w(spec: FamilySpec, g: int) -> List[Fraction]:
    return to_binomial_basis(spec.R[g])


def _correction(spec: FamilySpec, kappa_row: Sequence, i: int,
                l_cap: int, head: Fraction) -> LaurentPoly:
    """-head x^(i-m) + sum_g kappa^g sum_{l <= min(g, l_cap)} (alpha-l)_l w_l^g x^(-l-1),
    with w^g the binomial-basis coefficients of the seed R_g."""
    terms = [(i - spec.m, -head)] if head != 0 else []
    for kap, g in zip(kappa_row, spec.G):
        kap = as_rat(kap)
        if kap == 0:
            continue
        w = _seed_w(spec, g)
        for l in range(min(g, l_cap) + 1):
            c = kap * poch(spec.alpha - l, l) * w[l]
            if c != 0:
                terms.append((-l - 1, c))
    return LaurentPoly.from_terms(terms)


def u_function(spec: FamilySpec, kappa_row: Sequence, i: int) -> LaurentPoly:
    """Laurent correction of the generic variant for row i:

        U_i = -x^(i-m) + sum_g kappa^g sum_{l=0}^g (alpha-l)_l w_l^g x^(-l-1).
    """
    return _correction(spec, kappa_row, i, spec.max_g, Fraction(1))


def u_function_alt(spec: FamilySpec, kappa_row: Sequence, i: int) -> LaurentPoly:
    """Collapsed form of u_function, valid when kappa_row annihilates the
    seed values at -1..-(m-1-i): the powers above x^(i-m) cancel and

        U_i = -x^(i-m) + sum_{l=m-i-1}^{maxG} (alpha-l)_l x^(-l-1)
                              sum_{g >= l} kappa^g w_l^g.
    """
    alpha = spec.alpha
    terms = [(i - spec.m, Fraction(-1))]
    w_by_g = {g: _seed_w(spec, g) for g in spec.G}
    for l in range(max(spec.m - i - 1, 0), spec.max_g + 1):
        inner = Fraction(0)
        for kap, g in zip(kappa_row, spec.G):
            if g >= l:
                inner += as_rat(kap) * w_by_g[g][l]
        c = poch(alpha - l, l) * inner
        if c != 0:
            terms.append((-l - 1, c))
    return LaurentPoly.from_terms(terms)


def xi_u_function(spec: FamilySpec, kappa_row: Sequence, i: int) -> LaurentPoly:
    """Laurent correction of the xi variant for row i: u_function with l
    capped at alpha-1 (the tail moves to the discrete part) and the x^(i-m)
    head scaled by (i-m+alpha+1)_{max(0,m-alpha)}, which vanishes exactly
    for the rows where that power would reach a Gamma pole."""
    alpha = _xi_alpha(spec)
    head = poch(Fraction(i - spec.m + alpha + 1), max(0, spec.m - alpha))
    return _correction(spec, kappa_row, i, alpha - 1, head)


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

    Both variants pair through the same moment functional
    g(s) = Gamma(alpha+s)/Gamma(alpha), memoised per form:

        <p,q> = sum_t (p q^(d))_t g(t+sigma) + sum_{i<m} q_i sum_a p_a c_i[a],

    with (d, sigma) = (0, 1-m) for the generic variant and
    (max(0, m-alpha), max(0, alpha-m)+1-alpha) for xi.  The row functional
    c_i[a] = sum_{(t,u) in U_i} u g(a+t+1) integrates x^a against the
    correction U_i; for xi it also carries the discrete part
    sum_{g >= alpha+a} kappa^g sum_{l=alpha+a}^g (alpha-l)_a w_l^g.
    """

    def __init__(self, spec: FamilySpec, kappa: Optional[KappaMatrix], variant: str):
        if variant not in ("generic", "xi"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "generic":
            _check_generic(spec)
            self._alpha_int = None
            self._deriv, self._shift = 0, 1 - spec.m
        else:
            a = self._alpha_int = _xi_alpha(spec)
            self._deriv, self._shift = max(0, spec.m - a), max(0, a - spec.m) + 1 - a
        self.spec = spec
        self.kappa = kappa if kappa is not None else kappa_matrix(spec)
        self.variant = variant
        self._corrections = None
        self._moments: Dict[int, Fraction] = {}
        self._rows: List[List[Fraction]] = [[] for _ in range(spec.m)]

    @classmethod
    def generic(cls, spec: FamilySpec, kappa: Optional[KappaMatrix] = None):
        return cls(spec, kappa, "generic")

    @classmethod
    def xi(cls, spec: FamilySpec, kappa: Optional[KappaMatrix] = None):
        return cls(spec, kappa, "xi")

    def corrections(self) -> List[LaurentPoly]:
        if self._corrections is None:
            build = u_function if self.variant == "generic" else xi_u_function
            self._corrections = [build(self.spec, self.kappa.row(i), i)
                                 for i in range(self.spec.m)]
        return self._corrections

    def _moment(self, s: int) -> Fraction:
        v = self._moments.get(s)
        if v is None:
            v = self._moments[s] = gamma_ratio(self.spec.alpha, s)
        return v

    def _row_entry(self, i: int, a: int) -> Fraction:
        v = sum((u * self._moment(a + t + 1) for t, u in self.corrections()[i].terms()),
                Fraction(0))
        alpha = self._alpha_int
        if alpha is not None:
            for kap, g in zip(self.kappa.row(i), self.spec.G):
                if g >= alpha + a and kap != 0:
                    w = _seed_w(self.spec, g)
                    v += as_rat(kap) * sum(poch(self.spec.alpha - l, a) * w[l]
                                           for l in range(alpha + a, g + 1))
        return v

    def inner(self, p: Poly, q: Poly) -> Fraction:
        """<p, q> divided by Gamma(alpha); pole-free on both variants."""
        total = Fraction(0)
        for t, c in enumerate((p * q.deriv(self._deriv)).coeffs):
            if c != 0:
                total += c * self._moment(t + self._shift)
        for i, row in enumerate(self._rows):
            qi = q.coeff(i)  # q^(i)(0)/i!
            if qi == 0:
                continue
            for a in range(len(row), len(p.coeffs)):
                row.append(self._row_entry(i, a))
            total += qi * sum((pa * row[a] for a, pa in enumerate(p.coeffs) if pa != 0),
                              Fraction(0))
        return total


def closed_form_moment(spec: FamilySpec, kappa_row: Sequence, k: int, u: int) -> Fraction:
    """Closed form of <x^k L_u, x^i> / Gamma(alpha) for the row's kappa:

        sum_g kappa^g sum_{l=k}^g (alpha-l)_k w_l^g binom(u+l-k, l-k).

    Valid for u >= k >= 0; reduces to sum_g kappa^g R_g(u) at k = 0.
    """
    if not 0 <= k <= u:
        raise ValueError("needs 0 <= k <= u")
    alpha = spec.alpha
    total = Fraction(0)
    for kap, g in zip(kappa_row, spec.G):
        kap = as_rat(kap)
        if kap == 0:
            continue
        w = _seed_w(spec, g)
        for l in range(k, g + 1):
            total += kap * poch(alpha - l, k) * w[l] * binom_rat(u + l - k, l - k)
    return total


@dataclass
class OrthoReport:
    nmax: int
    variant: str
    passed: bool
    entries: List[Tuple[int, int, Fraction]]  # (n, i, <q_n, q_i>) for i <= n
    first_violation: Optional[Tuple[int, int, Fraction]] = None


def ortho_check(spec: FamilySpec, form: BilinearForm, nmax: int) -> OrthoReport:
    """Verify <q_n, q_i> = 0 for i < n <= nmax and <q_n, q_n> != 0, exactly."""
    qs = [q_poly(spec, n) for n in range(nmax + 1)]
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

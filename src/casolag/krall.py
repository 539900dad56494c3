"""The paper's Krall-Laguerre special case: point-mass presets and orbit matching.

krall_preset and degenerate_preset build the seeds of the classical
point-mass-perturbed Laguerre families; match_krall_parameters decides
whether a family lies in one of their orbits under the two seed symmetries
that leave every q_n unchanged up to constants, and reduce_representation
picks the canonical seeds of the lower-seed mixing orbit.

A lazy module (see the package docstring): family.spec_from_json_dict runs
it for a preset config only, so a process on an explicit config never
compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .family import FamilySpec, InvalidPreset
from .linalg import InconsistentSystem, solve_linear
from .parsing import MAX_DEGREE
from .poly import Poly, as_rat
from .special import binom_poly, poch


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
    _check_degree(alpha, m)
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
    _check_degree(alpha, m)
    a_tilde = [as_rat(v) for v in a_tilde]
    if len(a_tilde) != m:
        raise InvalidPreset(f"a_tilde must have length m = {m}")
    return FamilySpec(Fraction(alpha), tuple(range(alpha, alpha + m)),
                      {alpha + h - 1: _preset_seed(alpha, h, a_tilde, h + alpha - m - 1)
                       for h in range(1, m + 1)})


def _check_degree(alpha: int, m: int) -> None:
    """Seeds reach degree alpha+m-1, held to the parser's cap on explicit seeds."""
    if alpha + m - 1 > MAX_DEGREE:
        raise InvalidPreset(f"seed degree alpha+m-1 = {alpha + m - 1} exceeds {MAX_DEGREE}")


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

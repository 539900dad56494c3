"""Banded recurrences in the family index and the eigenvalue algebra probe.

Multiplying a family member by a polynomial Q and re-expanding in the family
gives Q(x) q_n = sum_j gamma_{n,j} q_{n+j} with exact rational gamma_{n,j}.
One engine computes every expansion in the Laguerre basis L_t = L_t^alpha,
in integers: a window (lo, w, den) is sum_i (w_i / den) L_{lo+i} with
integer w_i and nonzero integer den, and the beta ladder holds each row of q_k =
sum_{j<=min(m,k)} beta_{k,j} L_{k-j} once as a primitive integer row b_k
and a scale, beta_{k,j} = b_{k,j} / scale_k.  q_n is supported on
[n-m, n], so x^k q_n is supported on [n-m-k, n+k] whatever n is.  The
x-step applies x L_t = -(t+1) L_{t+1} + (2t+alpha+1) L_t - (t+alpha)
L_{t-1}, multiplied through by alpha's denominator, and widens the window
by one at each end (only at the top once it reaches L_0).  The
back-substitution peels q_k off top down, for every k, without dividing:
with top entry e and g = gcd(e, b_{k,0}), the entries below k and den are
multiplied by b_{k,0}/g and (e/g) b_{k,j} is subtracted at k-j.  Each
entry keeps the den it was last written over and is brought up to the
current one only when a step reads or writes it, so a step costs O(m)
however long the window is; c_k = e scale_k / (den b_{k,0}) becomes a
Fraction only for callers that need gamma.  A table of one Q applies Q by
Horner on windows and back-substitutes each row to index 0, ending early
once nothing nonzero is left below.  No public result carries a window or
the ladder.

A subset of polynomials Q produce BANDED tables (gamma_{n,j} = 0 below a
fixed shift -s with nonzero extremes); those Q form an algebra, probed here
by exact nullspace computation.  Row n has no coefficient below -B iff the
residual of Q q_n below n - B, sum_{t<n-B} gamma_{n,t-n} q_t, is zero: the
q_t are triangular in the Laguerre basis with nonzero diagonal Omega(t).
The residual is linear in Q and lives on at most m + max(0, d-B) indices,
so "no coefficients below the band through row N" is a small linear system
in the coefficients of Q.  Its d + 1 right-hand sides x^k q_n share the m
outputs at L_u, u in [c - m, c), below the cut c = n - B, so the probe
solves the transposed system (Tellegen's principle): per row, m integer
functionals phi_u give the entry at L_u once q_c, q_{c+1}, ... are peeled
off, and the residual of x^k q_n is its x-stepped window's entries below
c - m and m dot products.  Rows are taken top down: peeling q_c takes the
functionals of cut c + 1 to those of c in O(m (m + d + B)).

Membership certified by the probe is always relative to the explored range
(rows up to N, band B).  The re-verification helper guards against
truncation artifacts: it builds the constraint rows of the next rows the
same way and checks each basis element against them and the probe's own.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .family import FamilySpec, q_rung
from .linalg import solve_linear
from .poly import Poly, clear_denominators, rat_str, record

Window = tuple[int, list[int], int]  # (lo, w, den): sum_i (w_i / den) L_{lo+i}
Rung = tuple[tuple[int, ...], Fraction]  # (b, scale): beta_{k,j} = b_j / scale
Tops = tuple[int, list[tuple[int, int]]]  # (lo, [(e_k, den_k)]): c_k = e_k / den_k / beta_{k,0}


@record
class RecurrenceTable:
    Q: Poly
    n_range: range
    rows: dict[int, dict[int, Fraction]]  # n -> {j: gamma_{n,j}}, zeros omitted

    def gamma(self, n: int, j: int) -> Fraction:
        return self.rows[n].get(j, Fraction(0))


def _x_step(alpha: Fraction, lo: int, w: Sequence[int], den: int) -> Window:
    """The window of x * sum_i (w_i / den) L_{lo+i}: one entry wider at each
    end, or only at the top when lo = 0, over den times alpha's denominator."""
    p, q = alpha.numerator, alpha.denominator
    out_lo = lo - 1 if lo else 0
    xw = [0] * (lo + len(w) + 1 - out_lo)
    for t, wt in enumerate(w, lo):
        if wt:
            i = t - out_lo
            xw[i + 1] -= q * (t + 1) * wt
            xw[i] += (q * (2 * t + 1) + p) * wt
            if t:
                xw[i - 1] -= (q * t + p) * wt
    return out_lo, xw, den * q


def _back_substitute(lo: int, w: Sequence[int], den: int, betas: Sequence[Rung]) -> Tops:
    """Peel the q_k off sum_i (w_i / den) L_{lo+i}, top down: (lo_c, [(e_k,
    den_k)]), the top entry and den at each index k processed (see
    _coefficients).  A step at k writes only to k-1..k-m, so the loop ends
    once no index below k can be nonzero.  w is left as it is."""
    hi = lo + len(w)
    rest = list(reversed(w))  # rest[i] is the entry of L_{hi-1-i}; grows downward
    dens = [den] * len(rest)  # the entry of L_{hi-1-i} is rest[i] / dens[i]
    tops = []
    for i, e in enumerate(rest):  # rest grows while it is read
        if e and dens[i] != den:
            e *= den // dens[i]
        tops.append((e, den))
        if e:
            b = betas[hi - 1 - i][0]
            g = gcd(e, b[0])
            den *= b[0] // g
            e //= g
            for j in range(1, len(b)):
                if i + j < len(rest):
                    rest[i + j] = rest[i + j] * (den // dens[i + j]) - e * b[j]
                    dens[i + j] = den
                else:
                    rest.append(-e * b[j])
                    dens.append(den)
    return hi - len(rest), tops[::-1]


def _coefficients(c: Tops, betas: Sequence[Rung]) -> tuple[int, list[Fraction]]:
    """The coefficient window (lo, [c_k]) of _back_substitute's tops."""
    lo, tops = c
    return lo, [Fraction(e * betas[k][1].numerator,
                         den * betas[k][0][0] * betas[k][1].denominator)
                for k, (e, den) in enumerate(tops, lo)]


def _expand(alpha: Fraction, Q: Poly, v: Window, betas: Sequence[Rung]) -> Tops:
    """_back_substitute of Q times the window v, built by Horner's rule on
    windows (w <- x w + a v, from the top coefficient of Q down) over
    integer coefficients of Q."""
    lo, vw, vden = v
    qden, (*low, top) = clear_denominators(Q.coeffs)
    wlo, w, den = lo, [top * vt for vt in vw], 1
    for a in reversed(low):
        wlo, w, den = _x_step(alpha, wlo, w, den)
        if a:
            for i, vt in enumerate(vw, lo - wlo):
                w[i] += a * den * vt
    return _back_substitute(wlo, w, den * qden * vden, betas)


def _extend_ladder(spec: FamilySpec, betas: list[Rung], top: int) -> list[Rung]:
    """Append q_rung(spec, k) to betas for k = len(betas)..top, in order, so
    DegenerateFamily names the first k with Omega(k) = 0."""
    betas.extend(q_rung(spec, k) for k in range(len(betas), top + 1))
    return betas


def _q_window(betas: Sequence[Rung], n: int) -> Window:
    """q_n's Laguerre window: beta_{n,j} on L_{n-j}."""
    b, scale = betas[n]
    return n + 1 - len(b), [v * scale.denominator for v in reversed(b)], scale.numerator


def recurrence_table(spec: FamilySpec, Q: Poly, n_range: int) -> RecurrenceTable:
    """gamma_{n,j} with Q q_n = sum_j gamma_{n,j} q_{n+j}, for n = 0..n_range."""
    if Q.is_zero():
        raise ValueError("Q must be nonzero")
    if n_range < 0:
        raise ValueError(f"n_range must be >= 0, got {n_range}")
    betas = _extend_ladder(spec, [], n_range + Q.degree)
    rows = {}
    for n in range(n_range + 1):
        lo, c = _coefficients(_expand(spec.alpha, Q, _q_window(betas, n), betas), betas)
        rows[n] = {k - n: g for k, g in enumerate(c, lo) if g}
    return RecurrenceTable(Q=Q, n_range=range(n_range + 1), rows=rows)


def _adjoints(betas: Sequence[Rung], m: int, cuts: range, width: int) -> Iterator[tuple]:
    """(c, lo, phis, L) per cut c in cuts, top down: phi_u = a/d on lo..c+width-1
    for (a, d) in phis, u = lo..c-1 with lo = max(c - m, 0), L the lcm of the d;
    phi_u maps a window below c + width to its entry at L_u once each q_k,
    k >= c, is peeled off.  Peeling q_c takes phi_u to phi_u - (b_{c,c-u} /
    b_{c,0}) phi_c (b_{c,0} != 0: admissible) and adds phi_{c-m} = delta_{c-m};
    in integers, each (a, d) kept primitive (d may be negative)."""
    top = cuts[-1] + width
    lo = max(top - m, 0)
    phis = [([int(t == u) for t in range(lo, top)], 1) for u in range(lo, top)]
    for c in reversed(range(cuts.start, top + 1)):
        if c < top:
            if c >= m:
                lo = c - m
                phis = [([1] + [0] * len(phis[0][0]), 1)] + [([0] + a, d) for a, d in phis]
            (ac, dc), b = phis.pop(), betas[c][0]
            ac, p = ac[:min(c + width, top) - lo], b[0] * dc
            for i, (a, d) in enumerate(phis):
                q = b[c - lo - i] * d
                v = [x * p - y * q for x, y in zip(a, ac)]
                g = gcd(d * p, *v)
                phis[i] = ([x // g for x in v], d * p // g)
        if c in cuts:
            yield c, lo, tuple(phis), lcm(*(d for _, d in phis))


def _residual(v: Window, lo: int, phis: Sequence[tuple[list[int], int]], L: int) -> Window:
    """v's residual window below c: its entries below lo, then phi_u . v for
    each (a, d) of _adjoints, all over L, with the content taken out."""
    wlo, w, den = v
    r = [x * L for x in w[:max(lo - wlo, 0)]]
    r += [sum(map(mul, a[max(wlo - lo, 0):], w[max(lo - wlo, 0):])) * (L // d) for a, d in phis]
    g = gcd(den * L, *r)
    return min(wlo, lo), [x // g for x in r], den * L // g


def _monomial_residuals(spec: FamilySpec, betas: list[Rung], n_range: range,
                        band: int, powers: int) -> list[dict[int, Window]]:
    """For k < powers, the residual windows below n - band of x^k q_n, keyed
    by the n in n_range with n > band: _adjoints over their cuts, then per row
    and power an x-step and m dot products.  Extends betas to n_range.stop - 2 + powers."""
    _extend_ladder(spec, betas, n_range.stop - 2 + powers)
    residuals: list[dict[int, Window]] = [{} for _ in range(powers)]
    cuts = range(max(n_range.start, band + 1) - band, n_range.stop - band)
    for c, *adj in (_adjoints(betas, spec.m, cuts, band + powers) if cuts else ()):
        w = _q_window(betas, c + band)
        for k, res in enumerate(residuals):
            w = _x_step(spec.alpha, *w) if k else w
            res[c + band] = _residual(w, *adj)
    return [dict(reversed(res.items())) for res in residuals]  # rows ascending


def _first_outside(table: RecurrenceTable, lo: int,
                   hi: int | None = None) -> tuple[int, int, Fraction] | None:
    """First (n, j, gamma_{n,j}) with a nonzero gamma outside lo <= j <= hi
    (no upper limit when hi is None), scanning n and then j ascending."""
    for n in sorted(table.rows):
        row = table.rows[n]
        for j in sorted(row):
            if (j < lo or (hi is not None and j > hi)) and row[j] != 0:
                return n, j, row[j]
    return None


def verify_band(table: RecurrenceTable, s: int) -> bool:
    """True iff the table is banded with symmetric width s: gamma_{n,j} = 0
    for |j| > s on every row, and both extremes gamma_{n,s}, gamma_{n,-s}
    are nonzero on every row with n >= s.

    Needs at least one row with n >= s, otherwise nothing is certified.
    """
    if s < 0:
        return False
    applicable = [n for n in table.n_range if n >= s]
    if not applicable or _first_outside(table, -s, s) is not None:
        return False
    return all(table.gamma(n, s) != 0 and table.gamma(n, -s) != 0
               for n in table.rows if n >= s)


@record
class ThreeTermResult:
    nmax: int
    passed: bool
    a: list[Fraction]  # gamma_{n,1}
    b: list[Fraction]  # gamma_{n,0}
    c: list[Fraction]  # gamma_{n,-1}
    failure: str | None = None


def three_term_test(spec: FamilySpec, nmax: int) -> ThreeTermResult:
    """Does x q_n = a_n q_{n+1} + b_n q_n + c_n q_{n-1} hold with c_n != 0?

    Pass is equivalent (by the classical recurrence-to-measure argument) to
    orthogonality with respect to some quasi-definite moment functional.
    Checked exactly on rows 0..nmax.  Needs nmax >= 2, otherwise nothing is
    certified: rows n <= 1 hold no coefficient below -1.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    table = recurrence_table(spec, Poly.x(), nmax)
    a = [table.gamma(n, 1) for n in range(nmax + 1)]
    b = [table.gamma(n, 0) for n in range(nmax + 1)]
    c = [table.gamma(n, -1) for n in range(nmax + 1)]
    bad = _first_outside(table, -1)
    if bad is not None:
        n, j, v = bad
        return ThreeTermResult(nmax, False, a, b, c,
                               failure=f"gamma_({n},{j}) = {rat_str(v)} != 0")
    for n in range(1, nmax + 1):
        if c[n] == 0:
            return ThreeTermResult(nmax, False, a, b, c,
                                   failure=f"c_{n} = 0")
    if nmax < 2:
        return ThreeTermResult(nmax, False, a, b, c,
                               failure="nothing certified: needs nmax >= 2")
    return ThreeTermResult(nmax, True, a, b, c)


@record
class ObstructionResult:
    obstructed: bool
    witness: int | None = None  # the g with g - u outside G, g - u >= 0
    bands_refuted_up_to: int | None = None


def obstruction_test(spec: FamilySpec, Q: Poly, n_check: int = 20) -> ObstructionResult:
    """Witness-based impossibility test for banded recurrences with this Q.

    If some g in G has g - u >= 0 and g - u not in G, where u is the lowest
    nonzero power of Q, no banded recurrence exists (for parameters away
    from the integer range 1..maxG).  When obstructed, also refutes every
    symmetric band s <= n_check directly on the computed table.
    """
    if n_check < 0:
        raise ValueError(f"n_check must be >= 0, got {n_check}")
    if Q.is_zero():
        raise ValueError("Q must be nonzero")
    a = spec.alpha
    if a.denominator == 1 and a <= spec.max_g:
        # integer alpha <= maxG breaks the witness argument: Krall seeds
        # admit Q = x despite witnesses
        raise ValueError(
            "obstruction test needs alpha - maxG != 0, -1, -2, ...")
    u = Q.valuation()
    witness = None
    gset = set(spec.G)
    for g in spec.G:
        if g - u >= 0 and (g - u) not in gset:
            witness = g
            break
    if witness is None:
        return ObstructionResult(False)
    table = recurrence_table(spec, Q, n_check)
    for s in range(n_check + 1):
        if verify_band(table, s):
            raise AssertionError(
                f"band {s} exists despite obstruction witness g={witness}")
    return ObstructionResult(True, witness=witness, bands_refuted_up_to=n_check)


@record
class AlgebraProbeResult:
    degree_cap: int
    band: int
    n_max: int
    basis: list[Poly]
    # the family probed, which reverify_probe re-checks on; the engine's beta
    # ladder for k <= n_max + degree_cap, which it extends instead of
    # recomputing; and the integer rows the basis solves (_constraint_rows of
    # rows band < n <= n_max), which it checks again.  As _-prefixed fields
    # they stay out of repr and ==
    _spec: FamilySpec
    _betas: list[Rung]
    _rows: list[list[int]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _constraint_rows(residuals: Sequence[dict[int, Window]], band: int) -> list[list[int]]:
    """The probe's integer rows from residuals[k][n], the window of x^k q_n
    below n - band: for each n and each t < n - band, the entries at L_t of
    the powers k = 0, 1, ..., brought to one denominator per n."""
    rows = []
    for n in residuals[0]:
        windows = [res[n] for res in residuals]
        L = lcm(*(den for _, _, den in windows))
        for t in range(min(lo for lo, _, _ in windows), n - band):
            rows.append([r[t - lo] * (L // den) if t >= lo else 0 for lo, r, den in windows])
    return rows


def algebra_probe(spec: FamilySpec, d: int, band: int | None = None,
                  n_max: int | None = None) -> AlgebraProbeResult:
    """Canonical basis of {Q : deg Q <= d, gamma_{n,j}(Q) = 0 for j < -band,
    all n <= n_max}.

    Row n's coefficients below the band vanish iff the residual of Q q_n
    below n - band, sum_{t < n-band} gamma_{n,t-n} q_t in the Laguerre
    basis, is zero: the q_t are triangular with nonzero leading Laguerre
    coefficients Omega(t).  The residual is linear in Q, so its entries,
    read off the residuals of x^0..x^d (_monomial_residuals: m functionals
    per row, over one beta ladder), span the same functionals as those
    gamma_{n,j}, in at most m + max(0, d - band) rows per n; the
    reduced-echelon nullspace basis (pivots in ascending degree, constant
    polynomial first) is returned.  Defaults: band = d, n_max = 2d + maxG + 10.
    """
    if d < 0:
        raise ValueError("degree cap must be >= 0")
    B = d if band is None else band
    N = (2 * d + spec.max_g + 10) if n_max is None else n_max
    if B < 0 or N < 0:
        raise ValueError(f"band and n_max must be >= 0, got band={B}, n_max={N}")
    betas: list[Rung] = []
    rows = _constraint_rows(_monomial_residuals(spec, betas, range(N + 1), B, d + 1), B)
    if not rows:
        basis = [Poly.monomial(k) for k in range(d + 1)]
    else:
        basis = [Poly(vec) for vec in solve_linear(rows, None).nullspace]
    return AlgebraProbeResult(degree_cap=d, band=B, n_max=N, basis=basis,
                              _spec=spec, _betas=betas, _rows=rows)


def reverify_probe(result: AlgebraProbeResult, extra: int = 10) -> bool:
    """Re-check every probe basis element on rows 0..n_max + extra of the
    family the probe ran on: no coefficient below -band may appear.

    Rows n_max+1..n_max+extra get their constraint rows as the probe's own
    did, over the probe's beta ladder, with powers up to the largest basis
    degree, so the functionals and the ladder reach n_max + extra + that
    degree and no further.  Each basis element Q passes when its
    coefficients, cleared of denominators, dot to 0 with every new row and
    with every row of the probe's own system, which re-checks the solver's
    nullspace.  False when n_max + extra <= band: only a row n > band can
    hold a coefficient below -band, so nothing would be checked.
    """
    if extra < 0:
        raise ValueError(f"extra must be >= 0, got {extra}")
    N = result.n_max + extra
    if N <= result.band:
        return False
    top = max(Q.degree for Q in result.basis)
    more = _monomial_residuals(result._spec, list(result._betas),
                               range(result.n_max + 1, N + 1), result.band, top + 1)
    rows = result._rows + _constraint_rows(more, result.band)
    for Q in result.basis:
        a = clear_denominators(Q.coeffs)[1]
        if any(sum(map(mul, a, row)) for row in rows):
            return False
    return True


@record
class RhoRecurrenceResult:
    rho: int
    band: int
    table: RecurrenceTable
    band_ok: bool  # gamma_{n,j} = 0 beyond the band, every row
    extremes_from: int | None  # first n with both extremes nonzero onward
    passed: bool


def rho_bound(spec: FamilySpec) -> int:
    """max{m, maxG - alpha + 1, alpha} for positive integer alpha <= maxG."""
    alpha = spec.alpha
    if alpha.denominator != 1 or not 1 <= alpha <= spec.max_g:
        raise ValueError("rho is defined for integer alpha in 1..maxG only")
    a = int(alpha)
    return max(spec.m, spec.max_g - a + 1, a)


def rho_recurrence(spec: FamilySpec, p: Poly, nmax: int) -> RhoRecurrenceResult:
    """Build the table for Q = x^rho p and verify the symmetric band
    s = deg p + rho.

    In the integer-alpha range the extreme coefficients gamma_{n,+-s} can
    vanish for finitely many small n (families whose members share a root
    at the origin), so the verdict asks for a tail: both extremes nonzero
    from some n0 <= nmax onward, reported as extremes_from.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if p.is_zero():
        raise ValueError("p must be nonzero")
    rho = rho_bound(spec)
    Q = Poly.monomial(rho) * p
    s = p.degree + rho
    table = recurrence_table(spec, Q, nmax)
    band_ok = _first_outside(table, -s, s) is None
    extremes_from = None
    if band_ok and nmax >= s:
        n0 = None
        for n in range(s, nmax + 1):
            if table.gamma(n, s) != 0 and table.gamma(n, -s) != 0:
                if n0 is None:
                    n0 = n
            else:
                n0 = None
        extremes_from = n0
    return RhoRecurrenceResult(rho=rho, band=s, table=table, band_ok=band_ok,
                               extremes_from=extremes_from,
                               passed=band_ok and extremes_from is not None)


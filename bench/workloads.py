"""Benchmark workloads: frozen family configs, seeded redraws, and the CLI
invocations that make up one job of each workload.

Seed 0 reproduces the frozen families exactly.  Any other seed redraws the
lower-order seed coefficients (and the preset's ``a`` vector) from a small
integer range while keeping alpha, G, the coefficient support and every size
knob, so a job stays in the cost class of the frozen one.  A draw is
rejected when its Omega vanishes at a nonnegative integer, when its
admissibility scan bound leaves the frozen family's cost class, or when its
bilinear form loses the frozen family's shape (see form_shape).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction

DEFAULT_SEED = 0

# A seed polynomial is {power: integer coefficient}; the leading term is
# never redrawn.
FAMILIES = {
    # G = {1,2,5} with alpha = 7: the generic form variant (forms, gamma
    # ratios) and the long q ladders of recur and probe.
    "generic": {"alpha": "7", "G": [1, 2, 5],
                "R": {1: {1: 1, 0: -1}, 2: {2: 1, 0: 1},
                      5: {5: 1, 4: 1, 3: 1, 0: 1}}},
    # alpha = 1 inside 1..maxG: the pole-free xi variant, which re-expands
    # seeds in the binomial basis on every pairing.
    "xi": {"alpha": "1", "G": [1, 2, 4],
           "R": {1: {1: 1, 0: 2}, 2: {2: 1}, 4: {4: 1, 0: 1}}},
    # one seed with a far-away root: a Cauchy-bound scan over 50,004
    # integers.  Omega(x) = R(x-1) = 2x - (c+2) for R = 2x - c, c odd, so
    # the only root is never an integer.
    "wide": {"alpha": "7", "G": [1], "R": {1: {1: 2, 0: -100001}}},
}

KRALL = {"preset": "krall", "alpha": 3, "m": 3, "a": ["1", "1/2", "2"]}

# seeds x^g for g < m and x^m + 1 with alpha = 17/2: Omega costs the
# factorial cofactor expansion of det_poly, degree sum(G) - m(m-1)/2 = m.
OMEGA_ALPHA = "17/2"

COEFF_RANGE = [-3, -2, -1, 1, 2, 3]
WIDE_SHIFT = 50  # the wide seed's constant moves by at most 2*WIDE_SHIFT
MAX_DRAWS = 200

# Size knob of each workload: nmax of ortho; N of recur (qpoly and
# three-term scale with it); the degree cap d of probe; m of the Omega
# family in admit.  JOB_SIZE is what one end-to-end job runs: about a second
# of work, so that a run holds enough jobs for its fastest one to have met
# an uncontended stretch of CPU.  LADDER holds the three sizes of the
# scaling view of the traced run.
JOB_SIZE = {"ortho": 16, "recur": 60, "probe": 8, "admit": 6}
LADDER = {
    "ortho": (12, 18, 24),
    "recur": (50, 75, 100),
    "probe": (8, 10, 12),
    "admit": (5, 6, 7),
}
WORKLOADS = tuple(JOB_SIZE)
# Q of degree 4 whose recurrence on the frozen generic family has a
# symmetric band (the oracle of demos/03); a redrawn family gets the monic
# degree-4 element of its own band algebra instead (recur_q)
BAND_Q = "x^4+16*x^3"


def poly_text(terms: dict) -> str:
    """Render {power: int} in casolag's canonical form (descending, no spaces)."""
    parts = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        parts.append(sign + body)
    return "".join(parts) or "0"


def family_config(fam: dict) -> dict:
    return {"alpha": fam["alpha"], "G": list(fam["G"]),
            "R": {str(g): poly_text(fam["R"][g]) for g in fam["G"]}}


def omega_family(m: int, const: int) -> dict:
    R = {g: {g: 1} for g in range(1, m)}
    R[m] = {m: 1, 0: const}
    return {"alpha": OMEGA_ALPHA, "G": list(range(1, m + 1)), "R": R}


def _redraw(fam: dict, rng: random.Random) -> dict:
    R = {g: {k: (c if k == g else rng.choice(COEFF_RANGE)) for k, c in terms.items()}
         for g, terms in fam["R"].items()}
    return {**fam, "R": R}


def _draw_candidate(name: str, rng: random.Random):
    """One unvalidated draw of a named family (a config dict, or for the
    Omega family the constant of its top seed)."""
    if name == "krall":
        a = [Fraction(rng.choice(COEFF_RANGE), rng.choice([1, 2])) for _ in KRALL["a"]]
        return {**KRALL, "a": [str(v) for v in a]}
    if name == "omega":
        return rng.choice(COEFF_RANGE)
    if name == "wide":
        const = FAMILIES["wide"]["R"][1][0] + 2 * rng.randint(-WIDE_SHIFT, WIDE_SHIFT)
        return {**FAMILIES["wide"], "R": {1: {1: 2, 0: const}}}
    return _redraw(FAMILIES[name], rng)


def _omegas(name: str, candidate) -> list:
    """Omega of every family a draw stands for, as ascending Fractions."""
    from casolag import omega, spec_from_json_dict

    if name == "omega":
        configs = [family_config(omega_family(m, candidate)) for m in LADDER["admit"]]
    elif name == "krall":
        configs = [candidate]
    else:
        configs = [family_config(candidate)]
    return [list(omega(spec_from_json_dict(c)).coeffs) for c in configs]


def has_nonnegative_integer_root(coeffs) -> bool:
    """Rational root test: after clearing denominators, an integer root r
    of a polynomial with nonzero constant term divides that term."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    if ints[0] == 0:
        return True
    a0 = abs(ints[0])
    for d in range(1, math.isqrt(a0) + 1):
        if a0 % d == 0 and any(_eval(ints, r) == 0 for r in (d, a0 // d)):
            return True
    return False


def _eval(ints, x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def cauchy_scan_bound(coeffs) -> int:
    """ceil(1 + max |a_k| / |a_d|): the last integer casolag's certificate scans."""
    lead = abs(coeffs[-1])
    return math.ceil(1 + max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0)))


def form_shape(name: str, fam: dict):
    """Zero pattern of the kappa matrix and term count of each Laurent
    correction of the family's bilinear form: a zero kappa entry skips whole
    blocks of pairing work, so draws keep the frozen family's shape."""
    from casolag import BilinearForm, spec_from_json_dict

    form = BilinearForm(spec_from_json_dict(family_config(fam)), None, name)
    return ([[v != 0 for v in row] for row in form.kappa.rows],
            [len(list(c.terms())) for c in form.corrections()])


def _band_element(fam: dict):
    """The degree-4 element of the family's band algebra, or None."""
    from casolag import algebra_probe, spec_from_json_dict

    basis = algebra_probe(spec_from_json_dict(family_config(fam)), 4).basis
    return next((p for p in basis if p.degree == 4), None)


def recur_q(seed: int) -> str:
    """Q for recur on the seed's generic family: its band has width 4, as
    the frozen family's x^4+16*x^3 has, so every seed expands banded rows."""
    if seed == DEFAULT_SEED:
        return BAND_Q
    from casolag import render

    return render(_band_element(draw("generic", seed)))


def admissible_in_class(name: str, candidate) -> bool:
    """Omega has no nonnegative integer root; for the families that the
    admit workload certifies, the scan bound stays in the frozen family's
    cost class; for the families ortho pairs, the form keeps its shape; the
    generic family keeps a band algebra element of degree 4."""
    if name == "wide":
        # 2x - c with c odd: Omega = 2x - (c+2) has no integer root
        c = -candidate["R"][1][0]
        omegas = [[Fraction(-(c + 2)), Fraction(2)]]
    else:
        omegas = _omegas(name, candidate)
        # first: the form and the probe below need an admissible family
        if any(has_nonnegative_integer_root(om) for om in omegas):
            return False
    if name in FROZEN_SCAN_BOUNDS and not all(
            abs(cauchy_scan_bound(om) - frozen) <= max(64, frozen // 10)
            for om, frozen in zip(omegas, FROZEN_SCAN_BOUNDS[name])):
        return False
    if name in ("generic", "xi") and form_shape(name, candidate) != form_shape(name, FAMILIES[name]):
        return False
    return name != "generic" or _band_element(candidate) is not None


# scan bounds of the frozen families that `check` runs on (Omega family:
# m = 5, 6, 7)
FROZEN_SCAN_BOUNDS = {"omega": [275, 1765, 13133], "wide": [50003]}


def _frozen(name: str):
    if name == "omega":
        return 1
    if name == "krall":
        return KRALL
    return FAMILIES[name]


def draw(name: str, seed: int):
    """The family `name` for workload seed `seed` (frozen for DEFAULT_SEED)."""
    if seed == DEFAULT_SEED:
        return _frozen(name)
    rng = random.Random(f"{seed}:{name}")
    for _ in range(MAX_DRAWS):
        candidate = _draw_candidate(name, rng)
        if admissible_in_class(name, candidate):
            return candidate
    raise RuntimeError(f"no admissible draw of {name} for seed {seed}")


class Invocation:
    """One CLI call: its argv (config given by family name) and the checks
    its report must pass."""

    def __init__(self, args, family, facts=()):
        self.args = list(args)
        self.family = family
        self.facts = list(facts)

    @property
    def key(self) -> str:
        """Path-free label, used to look up recorded digests."""
        return " ".join([self.args[0], "--config", self.family] + self.args[1:])

    def argv(self, config_dir: str) -> list:
        return [self.args[0], "--config", os.path.join(config_dir, self.family + ".json")] + self.args[1:]


def _fact_equal(field, value, strict=False):
    def check(report):
        if report.get(field) != value:
            return f"{field} = {report.get(field)!r}, expected {value!r}"
    check.strict = strict
    return check


def _fact_omega_degree(degree):
    def check(report):
        got = _leading_power(report.get("omega", ""))
        if got != degree:
            return f"deg Omega = {got}, expected {degree}"
    check.strict = False
    return check


def _leading_power(text: str) -> int:
    m = re.match(r"[+-]?(?:[\d/]+\*)?(x(?:\^(\d+))?)?", text)
    if not m or not m.group(1):
        return 0
    return int(m.group(2) or 1)


def casoratian_degree(G) -> int:
    m = len(G)
    return sum(G) - m * (m - 1) // 2


def draw_configs(name: str, seed: int) -> dict:
    """The config of every family the workload reads, for this seed."""
    configs = {}
    if name in ("ortho", "recur", "probe"):
        configs["generic"] = family_config(draw("generic", seed))
    if name == "ortho":
        configs["xi"] = family_config(draw("xi", seed))
    if name == "recur":
        configs["krall"] = draw("krall", seed)
    if name == "admit":
        const = draw("omega", seed)
        for m in LADDER["admit"]:
            configs[f"omega{m}"] = family_config(omega_family(m, const))
        configs["wide"] = family_config(draw("wide", seed))
    return configs


class Workload:
    """The families and invocations of one workload for one seed."""

    def __init__(self, name: str, seed: int = DEFAULT_SEED):
        if name not in JOB_SIZE:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.configs = draw_configs(name, seed)
        self.band_q = recur_q(seed) if name == "recur" else None

    def setup_families(self) -> list:
        """The configs one job reads; setup_s expands each with `preset`."""
        if self.name == "admit":
            return [f"omega{JOB_SIZE['admit']}", "wide"]
        return list(self.configs)

    def invocations(self, size: int = None) -> list:
        size = JOB_SIZE[self.name] if size is None else size
        passed = _fact_equal("passed", True)
        if self.name == "ortho":
            return [Invocation(["ortho", "--nmax", str(size)], fam, [passed])
                    for fam in ("generic", "xi")]
        if self.name == "recur":
            return [
                Invocation(["recur", "--Q", self.band_q, "--nmax", str(size)], "generic",
                           [_fact_equal("band_ok", True)]),
                Invocation(["qpoly", "--nmax", str(size * 3 // 5)], "generic"),
                Invocation(["three-term", "--nmax", str(size * 4 // 5)], "krall", [passed]),
            ]
        if self.name == "probe":
            return [Invocation(["probe", "--deg", str(size)], "generic",
                               [_fact_equal("reverified", True, strict=True)])]
        admissible = _fact_equal("admissible", True)
        wide_const = int(self.configs["wide"]["R"]["1"].rpartition("-")[2])
        return [
            Invocation(["check"], f"omega{size}",
                       [admissible, _fact_omega_degree(casoratian_degree(range(1, size + 1)))]),
            Invocation(["check"], "wide",
                       [admissible, _fact_equal("omega", f"2*x-{wide_const + 2}")]),
        ]

    def write_configs(self, config_dir: str) -> None:
        os.makedirs(config_dir, exist_ok=True)
        for fam, cfg in self.configs.items():
            with open(os.path.join(config_dir, fam + ".json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, sort_keys=True)


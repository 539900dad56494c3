"""Command-line front end.

Every subcommand reads a family config (JSON, direct or preset form), runs
one computation, and writes a machine-readable report to stdout or --out.
Reports are byte-deterministic for a fixed config: keys are sorted, rationals
are serialized as canonical "p/q" strings, and nothing depends on hashing or
wall-clock state.

Exit codes: 0 when the mathematical verdict passes, 2 when it fails, 1 for
usage or config errors (reported as structured JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .family import (AdmissibilityCertificate, DegenerateFamily, FamilySpec,
                     InvalidPreset, certify_admissible, omega, q_poly,
                     spec_from_json_dict)
from .forms import BilinearForm, VariantError, ortho_check
from .parsing import ParseError, parse_poly
from .poly import Poly, rat_str, render
from .recurrence import (algebra_probe, recurrence_table, reverify_probe,
                         table_rows_json, table_to_csv, table_to_latex,
                         three_term_test, verify_band)
from .special import PoleError

USAGE_ERROR = 1
VERDICT_FAIL = 2


@dataclass
class RunConfig:
    command: str
    family: FamilySpec
    nmax: Optional[int]
    Q: Optional[Poly]
    deg: Optional[int]
    band: Optional[int]
    fmt: str
    out: Optional[str]


class CliError(Exception):
    def __init__(self, message: str, kind: str = "usage"):
        self.kind = kind
        super().__init__(message)


def _load_family(path: str) -> FamilySpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config: {e}", "config") from e
    except json.JSONDecodeError as e:
        raise CliError(f"config is not valid JSON: {e}", "config") from e
    try:
        return spec_from_json_dict(obj)
    except (ValueError, InvalidPreset, ParseError) as e:
        raise CliError(f"invalid family config: {e}", "config") from e


def _emit(cfg: RunConfig, payload: dict, csv_text: str, latex_text: str) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif cfg.fmt == "csv":
        text = csv_text
    else:
        text = latex_text
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _latex_doc(title: str, colspec: str, header: str, body_lines) -> str:
    lines = [
        r"\documentclass{article}",
        r"\begin{document}",
        rf"\section*{{{title}}}",
        rf"\begin{{tabular}}{{{colspec}}}",
        header + r" \\",
        r"\hline",
    ]
    lines.extend(body_lines)
    lines += [r"\end{tabular}", r"\end{document}"]
    return "\n".join(lines) + "\n"


def _verbatim_poly(p: Poly) -> str:
    return r"\verb|" + render(p) + "|"


def cmd_check(cfg: RunConfig) -> int:
    cert: AdmissibilityCertificate = certify_admissible(cfg.family)
    payload = {
        "command": "check",
        "family": cfg.family.to_json_dict(),
        "omega": render(cert.omega),
        "admissible": cert.passed,
        "scan_bound": cert.integer_scan_bound,
        "fail_n": cert.fail_n,
    }
    csv_text = ("omega,admissible,scan_bound,fail_n\n"
                f"{render(cert.omega)},{str(cert.passed).lower()},"
                f"{cert.integer_scan_bound},{'' if cert.fail_n is None else cert.fail_n}\n")
    latex = _latex_doc("Admissibility", "ll", "quantity & value", [
        rf"determinant & {_verbatim_poly(cert.omega)} \\",
        rf"admissible & {cert.passed} \\",
        rf"scan bound & {cert.integer_scan_bound} \\",
    ])
    _emit(cfg, payload, csv_text, latex)
    return 0 if cert.passed else VERDICT_FAIL


def cmd_qpoly(cfg: RunConfig) -> int:
    nmax = cfg.nmax if cfg.nmax is not None else 8
    polys = [(n, q_poly(cfg.family, n)) for n in range(nmax + 1)]
    payload = {
        "command": "qpoly",
        "family": cfg.family.to_json_dict(),
        "nmax": nmax,
        "polys": [{"n": n, "q": render(p)} for n, p in polys],
    }
    csv_text = "n,q\n" + "".join(f"{n},{render(p)}\n" for n, p in polys)
    latex = _latex_doc("Family members", "rl", r"$n$ & $q_n$",
                       [rf"{n} & {_verbatim_poly(p)} \\" for n, p in polys])
    _emit(cfg, payload, csv_text, latex)
    return 0


def _pick_variant(spec: FamilySpec) -> str:
    a = spec.alpha
    if a.denominator == 1 and 1 <= a <= spec.max_g:
        return "xi"
    if a.denominator == 1 and a <= 0:
        raise CliError(f"alpha = {rat_str(a)} is outside both form variants", "config")
    return "generic"


def cmd_ortho(cfg: RunConfig) -> int:
    nmax = cfg.nmax if cfg.nmax is not None else 10
    variant = _pick_variant(cfg.family)
    form = BilinearForm(cfg.family, None, variant)
    report = ortho_check(cfg.family, form, nmax)
    entries = [{"n": n, "i": i, "value": rat_str(v)} for n, i, v in report.entries]
    payload = {
        "command": "ortho",
        "variant": variant,
        "nmax": nmax,
        "passed": report.passed,
        "entries": entries,
        "first_violation": None if report.first_violation is None else {
            "n": report.first_violation[0],
            "i": report.first_violation[1],
            "value": rat_str(report.first_violation[2]),
        },
    }
    csv_text = "n,i,value\n" + "".join(
        f"{e['n']},{e['i']},{e['value']}\n" for e in entries)
    latex = _latex_doc("Pairings", "rrl", r"$n$ & $i$ & value",
                       [rf"{e['n']} & {e['i']} & \verb|{e['value']}| \\" for e in entries])
    _emit(cfg, payload, csv_text, latex)
    return 0 if report.passed else VERDICT_FAIL


def cmd_recur(cfg: RunConfig) -> int:
    if cfg.Q is None:
        raise CliError("recur needs --Q")
    if cfg.Q.is_zero():
        raise CliError("recur needs a nonzero --Q")
    nmax = cfg.nmax if cfg.nmax is not None else 20
    band = cfg.band if cfg.band is not None else cfg.Q.degree
    table = recurrence_table(cfg.family, cfg.Q, nmax)
    ok = verify_band(table, band)
    payload = {
        "command": "recur",
        "Q": render(cfg.Q),
        "nmax": nmax,
        "band": band,
        "band_ok": ok,
        "rows": table_rows_json(table),
    }
    _emit(cfg, payload, table_to_csv(table), table_to_latex(table))
    return 0 if ok else VERDICT_FAIL


def cmd_three_term(cfg: RunConfig) -> int:
    nmax = cfg.nmax if cfg.nmax is not None else 20
    res = three_term_test(cfg.family, nmax)
    coeffs = [{"n": n, "a": rat_str(res.a[n]), "b": rat_str(res.b[n]),
               "c": rat_str(res.c[n])} for n in range(nmax + 1)]
    payload = {
        "command": "three-term",
        "nmax": nmax,
        "passed": res.passed,
        "failure": res.failure,
        "coeffs": coeffs,
    }
    csv_text = "n,a,b,c\n" + "".join(
        f"{r['n']},{r['a']},{r['b']},{r['c']}\n" for r in coeffs)
    latex = _latex_doc("Three-term coefficients", "rlll",
                       r"$n$ & $a_n$ & $b_n$ & $c_n$",
                       [rf"{r['n']} & \verb|{r['a']}| & \verb|{r['b']}| & \verb|{r['c']}| \\"
                        for r in coeffs])
    _emit(cfg, payload, csv_text, latex)
    return 0 if res.passed else VERDICT_FAIL


def cmd_probe(cfg: RunConfig) -> int:
    if cfg.deg is None:
        raise CliError("probe needs --deg")
    result = algebra_probe(cfg.family, cfg.deg, cfg.band, cfg.nmax)
    ok = reverify_probe(cfg.family, result)
    basis = [render(p) for p in result.basis]
    payload = {
        "command": "probe",
        "deg": result.degree_cap,
        "band": result.band,
        "nmax": result.n_max,
        "dimension": result.dimension,
        "basis": basis,
        "reverified": ok,
    }
    csv_text = "index,Q\n" + "".join(f"{k},{q}\n" for k, q in enumerate(basis))
    latex = _latex_doc("Eigenvalue algebra basis", "rl", r"\# & $Q$",
                       [rf"{k} & \verb|{q}| \\" for k, q in enumerate(basis)])
    _emit(cfg, payload, csv_text, latex)
    return 0 if ok else VERDICT_FAIL


def cmd_preset(cfg: RunConfig) -> int:
    fam = cfg.family.to_json_dict()
    payload = {"command": "preset", "family": fam}
    csv_text = "key,value\n" + f"alpha,{fam['alpha']}\n" + "".join(
        f"R_{g},{fam['R'][str(g)]}\n" for g in fam["G"])
    latex = _latex_doc("Expanded preset", "rl", r"$g$ & $R_g$",
                       [rf"{g} & \verb|{fam['R'][str(g)]}| \\" for g in fam["G"]])
    _emit(cfg, payload, csv_text, latex)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "qpoly": cmd_qpoly,
    "ortho": cmd_ortho,
    "recur": cmd_recur,
    "three-term": cmd_three_term,
    "probe": cmd_probe,
    "preset": cmd_preset,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casolag",
        description="Exact computations with Casoratian-seeded Laguerre type families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "certify that the family determinant never vanishes on n >= 0"),
        ("qpoly", "print the family members q_0..q_nmax"),
        ("ortho", "verify triangular orthogonality under the matching form"),
        ("recur", "expand Q*q_n in the family and verify a symmetric band"),
        ("three-term", "test for a three-term recurrence with nonzero down-coefficients"),
        ("probe", "compute a basis of banded eigenvalue polynomials up to a degree cap"),
        ("preset", "expand a preset config into explicit seeds"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="family config JSON path")
        p.add_argument("--nmax", type=int, default=None, help="largest family index")
        p.add_argument("--Q", default=None, help="polynomial, e.g. 'x^4+16*x^3'")
        p.add_argument("--deg", type=int, default=None, help="degree cap for probe")
        p.add_argument("--band", type=int, default=None, help="band override")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "latex"),
                       default="json")
        p.add_argument("--out", default=None, help="write report here instead of stdout")
    return parser


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"kind": kind, "message": message}}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; remap to the usage code
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        for flag, value in (("--nmax", args.nmax), ("--deg", args.deg), ("--band", args.band)):
            if value is not None and value < 0:
                raise CliError(f"{flag} must be >= 0, got {value}")
        family = _load_family(args.config)
        Q = None
        if args.Q is not None:
            try:
                Q = parse_poly(args.Q)
            except ParseError as e:
                raise CliError(f"bad --Q: {e}") from e
        cfg = RunConfig(command=args.command, family=family, nmax=args.nmax,
                        Q=Q, deg=args.deg, band=args.band, fmt=args.fmt,
                        out=args.out)
        return _COMMANDS[args.command](cfg)
    except CliError as e:
        _error_json(e.kind, str(e))
        return USAGE_ERROR
    except (VariantError, PoleError) as e:
        _error_json("variant", str(e))
        return USAGE_ERROR
    except DegenerateFamily as e:
        _error_json("degenerate", str(e))
        return VERDICT_FAIL
    except OSError as e:
        _error_json("io", str(e))
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

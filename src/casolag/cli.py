"""Command-line front end.

Every subcommand reads a family config (JSON, direct or preset form), runs
one computation, and writes a machine-readable report to stdout or --out.
Reports are byte-deterministic for a fixed config: keys are sorted, rationals
are serialized as canonical "p/q" strings, and nothing depends on hashing or
wall-clock state.  _lines writes a report as it renders it: a JSON report's
Table one row object at a time, CSV and LaTeX one line per row.  main lifts
the int-to-str digit limit while a handler runs, so every number a report
prints is printed whole; the config and --Q are read under the limit.

Each subcommand takes --config, --format, --out and only the flags it reads,
declared once in _SUBCOMMANDS with their defaults; any other flag is a usage
error, as are a negative size and a missing --Q or --deg.  _parse reads argv
from that table, with no argparse; forms, recurrence and krall (read for a
preset config) are lazy modules (see the package docstring).

Exit codes: 0 when the mathematical verdict passes, 2 when it fails, 1 for
usage or config errors (reported as structured JSON on stderr).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

# lazy modules: a `from .forms import` here would run forms, so the
# subcommands read their names at call time
from . import forms, recurrence
from .family import (AdmissibilityCertificate, DegenerateFamily, FamilySpec,
                     certify_admissible, q_poly, spec_from_json)
from .parsing import ParseError, parse_poly
from .poly import Poly, rat_str, record, render

USAGE_ERROR = 1
VERDICT_FAIL = 2


class CliError(Exception):
    def __init__(self, message: str, kind: str = "usage"):
        self.kind = kind
        super().__init__(message)


def _load_family(path: str) -> FamilySpec:
    """The family of the config file at path, read by family.spec_from_json;
    every way it can fail is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return spec_from_json(fh.read())
    except OSError as e:
        raise CliError(f"cannot read config: {e}", "config") from e
    except json.JSONDecodeError as e:
        raise CliError(f"config is not valid JSON: {e}", "config") from e
    except UnicodeDecodeError as e:
        raise CliError(f"config is not valid UTF-8: {e}", "config") from e
    except ValueError as e:  # ParseError, InvalidPreset and spec_from_json's own refusals
        raise CliError(f"invalid family config: {e}", "config") from e


# -- reports ----------------------------------------------------------


@record
class Table:
    """Rows of typed cells (int, bool, None, str, Fraction, Poly).  names
    are the CSV header and the JSON row keys, heads the LaTeX column heads
    (default: names); a None title or note leaves out the LaTeX section
    heading or trailing comment."""

    names: Sequence[str]
    rows: list[tuple]
    title: str | None = None
    colspec: str | None = None
    heads: Sequence[str] | None = None
    note: str | None = None

    def json_row(self, row: tuple) -> dict:
        return {name: _json_cell(v) for name, v in zip(self.names, row)}


def _json_cell(v):
    return rat_str(v) if isinstance(v, Fraction) else render(v) if isinstance(v, Poly) else v


def _csv_cell(v) -> str:
    return "" if v is None else str(v).lower() if isinstance(v, bool) else str(_json_cell(v))


def _latex_cell(v) -> str:
    return rf"\verb|{_json_cell(v)}|" if isinstance(v, (Fraction, Poly)) else str(v)


def _lines(fmt: str, payload: dict, table: Table):
    """The report, a line or a row at a time: payload as JSON, with the
    rows of its Table value (if any) as objects, or table as CSV or LaTeX."""
    if fmt == "csv":
        yield ",".join(table.names) + "\n"
        for row in table.rows:
            yield ",".join(map(_csv_cell, row)) + "\n"
    elif fmt == "latex":
        yield "\n".join([r"\documentclass{article}", r"\begin{document}",
                         *([] if table.title is None else [rf"\section*{{{table.title}}}"]),
                         rf"\begin{{tabular}}{{{table.colspec or 'l' * len(table.names)}}}",
                         " & ".join(table.heads or table.names) + r" \\", r"\hline" "\n"])
        for row in table.rows:
            yield " & ".join(map(_latex_cell, row)) + r" \\" "\n"
        yield "\n".join([r"\end{tabular}", *([] if table.note is None else [f"% {table.note}"]),
                         r"\end{document}" "\n"])
    else:
        key = next((k for k, v in payload.items() if isinstance(v, Table)), None)
        rows = () if key is None else payload[key].rows
        text = json.dumps(payload if key is None else {**payload, key: []},
                          sort_keys=True, indent=2) + "\n"
        if not rows:
            yield text
            return
        # a top-level key starts a line at indent 2, where nested keys sit at
        # 4 or more and strings escape newlines, so this is found only here
        mark = f"\n  {json.dumps(key)}: ["
        at = text.index(mark + "]") + len(mark)
        yield text[:at] + "\n    {\n"
        fields = [(f"      {json.dumps(name)}: ", i)
                  for name, i in sorted((name, i) for i, name in enumerate(payload[key].names))]
        # most cells are ints, whose str is their JSON and costs a tenth of a
        # json.dumps call, which sets up an encoder each time
        for n, row in enumerate(rows):
            yield ("    },\n    {\n" if n else "") + ",\n".join(
                name + (str(v) if type(v := row[i]) is int else json.dumps(_json_cell(v)))
                for name, i in fields) + "\n"
        yield "    }\n  ]" + text[at + 1:]


def _emit(args: SimpleNamespace, payload: dict, table: Table) -> None:
    """Write the report (_lines) to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_lines(args.format, payload, table))
    else:
        sys.stdout.writelines(_lines(args.format, payload, table))


def _latex_frac(v: Fraction) -> str:
    return f"${v}$" if v.denominator == 1 else rf"$\frac{{{v.numerator}}}{{{v.denominator}}}$"


def cmd_check(args: SimpleNamespace) -> int:
    cert: AdmissibilityCertificate = certify_admissible(args.family)
    table = Table(("omega", "admissible", "scan_bound", "fail_n"),
                  [(cert.omega, cert.passed, cert.integer_scan_bound, cert.fail_n)])
    payload = {"command": "check", "family": args.family.to_json_dict(),
               **table.json_row(table.rows[0])}
    if args.format == "latex":
        table = Table(("quantity", "value"),
                      [("determinant", cert.omega), ("admissible", cert.passed),
                       ("scan bound", cert.integer_scan_bound)],
                      title="Admissibility")
    _emit(args, payload, table)
    return 0 if cert.passed else VERDICT_FAIL


def cmd_qpoly(args: SimpleNamespace) -> int:
    table = Table(("n", "q"), [(n, q_poly(args.family, n)) for n in range(args.nmax + 1)],
                  title="Family members", colspec="rl", heads=(r"$n$", r"$q_n$"))
    payload = {
        "command": "qpoly",
        "family": args.family.to_json_dict(),
        "nmax": args.nmax,
        "polys": table,
    }
    _emit(args, payload, table)
    return 0


def _pick_variant(spec: FamilySpec) -> str:
    a = spec.alpha
    if a.denominator == 1 and 1 <= a <= spec.max_g:
        return "xi"
    if a.denominator == 1 and a <= 0:
        raise CliError(f"alpha = {rat_str(a)} is outside both form variants", "config")
    return "generic"


def cmd_ortho(args: SimpleNamespace) -> int:
    variant = _pick_variant(args.family)
    try:
        form = forms.BilinearForm(args.family, None, variant)
    except forms.VariantError as e:
        raise CliError(str(e), "variant") from e
    report = forms.ortho_check(form, args.nmax)
    table = Table(("n", "i", "value"), report.entries, title="Pairings",
                  colspec="rrl", heads=(r"$n$", r"$i$", "value"))
    payload = {
        "command": "ortho",
        "variant": variant,
        "nmax": args.nmax,
        "passed": report.passed,
        "entries": table,
        "first_violation": None if report.first_violation is None
        else table.json_row(report.first_violation),
    }
    _emit(args, payload, table)
    return 0 if report.passed else VERDICT_FAIL


def cmd_recur(args: SimpleNamespace) -> int:
    if args.Q.is_zero():
        raise CliError("recur needs a nonzero --Q")
    band = args.Q.degree if args.band is None else args.band
    rec = recurrence.recurrence_table(args.family, args.Q, args.nmax)
    ok = recurrence.verify_band(rec, band)
    table = Table(("n", "j", "gamma"), [(n, j, g) for n, row in sorted(rec.rows.items())
                                        for j, g in sorted(row.items())])
    payload = {
        "command": "recur",
        "Q": render(args.Q),
        "nmax": args.nmax,
        "band": band,
        "band_ok": ok,
        "rows": table,
    }
    if args.format == "latex":
        table = Table(table.names, [(n, j, _latex_frac(g)) for n, j, g in table.rows],
                      colspec="rrl", heads=(r"$n$", r"$j$", r"$\gamma_{n,j}$"),
                      note=f"$Q = {render(args.Q)}$")
    _emit(args, payload, table)
    return 0 if ok else VERDICT_FAIL


def cmd_three_term(args: SimpleNamespace) -> int:
    res = recurrence.three_term_test(args.family, args.nmax)
    table = Table(("n", "a", "b", "c"),
                  [(n, res.a[n], res.b[n], res.c[n]) for n in range(args.nmax + 1)],
                  title="Three-term coefficients", colspec="rlll",
                  heads=(r"$n$", r"$a_n$", r"$b_n$", r"$c_n$"))
    payload = {
        "command": "three-term",
        "nmax": args.nmax,
        "passed": res.passed,
        "failure": res.failure,
        "coeffs": table,
    }
    _emit(args, payload, table)
    return 0 if res.passed else VERDICT_FAIL


def cmd_probe(args: SimpleNamespace) -> int:
    result = recurrence.algebra_probe(args.family, args.deg, args.band, args.nmax)
    ok = recurrence.reverify_probe(result)
    table = Table(("index", "Q"), list(enumerate(result.basis)),
                  title="Eigenvalue algebra basis", colspec="rl",
                  heads=(r"\#", r"$Q$"))
    payload = {
        "command": "probe",
        "deg": result.degree_cap,
        "band": result.band,
        "nmax": result.n_max,
        "dimension": result.dimension,
        "basis": [render(p) for p in result.basis],
        "reverified": ok,
    }
    _emit(args, payload, table)
    return 0 if ok else VERDICT_FAIL


def cmd_preset(args: SimpleNamespace) -> int:
    spec = args.family
    table = Table(("key", "value"),
                  [("alpha", spec.alpha)] + [(f"R_{g}", spec.R[g]) for g in spec.G])
    if args.format == "latex":
        table = Table(("g", "R_g"), [(g, spec.R[g]) for g in spec.G],
                      title="Expanded preset", colspec="rl", heads=(r"$g$", r"$R_g$"))
    _emit(args, {"command": "preset", "family": spec.to_json_dict()}, table)
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


def _choice(text: str, choices) -> str:
    if text not in choices:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return text


def _size(text: str) -> int:
    """A size flag's value: a non-negative integer in ASCII digits; int()
    would also read "1_0", "+3", " 4" and other scripts' digits."""
    digits = text.removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdecimal()):
            raise ValueError
        value = int(text)  # raises past the interpreter's digit limit
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# flag -> (reader of its value, whose ValueError is the usage message; metavar; help)
_FLAGS = {
    "--config": (str, "CONFIG", "family config JSON path"),
    "--nmax": (_size, "NMAX", "largest family index"),
    "--Q": (str, "Q", "polynomial, e.g. 'x^4+16*x^3'"),
    "--deg": (_size, "DEG", "degree cap"),
    "--band": (_size, "BAND", "band to verify"),
    "--format": (lambda text: _choice(text, ("json", "csv", "latex")), "{json,csv,latex}",
                 "report format"),
    "--out": (str, "OUT", "write report here instead of stdout"),
}

# subcommand -> (help, {flag: default}) for the flags it reads besides
# --config, --format and --out.  None marks a required flag; a string default
# names a fallback computed from the input (the flag then reads as None).
_SUBCOMMANDS = {
    "check": ("certify that the family determinant never vanishes on n >= 0", {}),
    "qpoly": ("print the family members q_0..q_nmax", {"--nmax": 8}),
    "ortho": ("verify triangular orthogonality under the matching form", {"--nmax": 10}),
    "recur": ("expand Q*q_n in the family and verify a symmetric band",
              {"--Q": None, "--nmax": 20, "--band": "deg Q"}),
    "three-term": ("test for a three-term recurrence with nonzero down-coefficients",
                   {"--nmax": 20}),
    "probe": ("compute a basis of banded eigenvalue polynomials up to a degree cap",
              {"--deg": None, "--band": "--deg", "--nmax": "2*deg+maxG+10"}),
    "preset": ("expand a preset config into explicit seeds", {}),
}

# subcommand -> {flag: default} for every flag it takes, in usage order
_TAKES = {name: {"--config": None, **flags, "--format": "json", "--out": ""}
          for name, (_, flags) in _SUBCOMMANDS.items()}


def _help(command: str | None) -> str:
    if command is None:
        return (f"usage: casolag [-h] {{{','.join(_SUBCOMMANDS)}}} ...\n\nExact computations "
                "with Casoratian-seeded Laguerre type families.\n\nsubcommands:\n"
                + "".join(f"  {name:<12}{text}\n" for name, (text, _) in _SUBCOMMANDS.items()))
    takes = _TAKES[command]
    spelled = {f: f"{f} {_FLAGS[f][1]}" for f in takes}
    usage = " ".join(s if takes[f] is None else f"[{s}]" for f, s in spelled.items())
    rows = [("-h, --help", "show this help message and exit")] + [
        (spelled[f], _FLAGS[f][2] + (f" (default: {d})" if d else "")) for f, d in takes.items()]
    return (f"usage: casolag {command} [-h] {usage}\n\n{_SUBCOMMANDS[command][0]}\n\n"
            "options:\n" + "".join(f"  {s:<26}{h}\n" for s, h in rows))


def _parse(argv: list) -> SimpleNamespace | str:
    """The subcommand and its flags (absent: an int default, else None), or
    the help text asked for.  The next word is a flag's value unless it
    starts with "--".  Errors carry argparse's messages, in its order: a bad
    value where it stands, then a missing required flag, then unknown words."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help(None)
    if not argv or argv[0].startswith("-"):
        raise CliError("casolag: the following arguments are required: command")
    try:
        command = _choice(argv[0], _TAKES)
    except ValueError as e:
        raise CliError(f"casolag: argument command: {e}") from None
    prog, takes = f"casolag {command}", _TAKES[command]
    given, unknown, words = {}, [], iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            return _help(command)
        flag, eq, value = word.partition("=")
        if flag not in takes:
            unknown.append(word)
            continue
        value = value if eq else next(words, "--")
        try:
            if value.startswith("--") and not eq:
                raise ValueError("expected one argument")
            given[flag[2:]] = _FLAGS[flag][0](value)
        except ValueError as e:
            raise CliError(f"{prog}: argument {flag}: {e}") from None
    missing = [f for f, d in takes.items() if d is None and f[2:] not in given]
    if missing:
        raise CliError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise CliError(f"casolag: unrecognized arguments: {' '.join(unknown)}")
    absent = {f[2:]: d if isinstance(d, int) else None for f, d in takes.items()}
    return SimpleNamespace(command=command, **{**absent, "format": "json", **given})


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"kind": kind, "message": message}}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        args.family = _load_family(args.config)
        if "Q" in vars(args):
            try:
                args.Q = parse_poly(args.Q)
            except ParseError as e:
                raise CliError(f"bad --Q: {e}") from e
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:  # it guards what is read: a report prints its numbers whole
            sys.set_int_max_str_digits(0)
        try:
            return _COMMANDS[args.command](args)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    except CliError as e:
        _error_json(e.kind, str(e))
        return USAGE_ERROR
    except DegenerateFamily as e:
        _error_json("degenerate", str(e))
        return VERDICT_FAIL
    except OSError as e:
        _error_json("io", str(e))
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte gate on the CLI reports.

The files under tests/golden/ are the reports of seven subcommands in every
output format on five families: the three conftest families, a krall preset
and a degenerate preset, plus `check` on a family that fails admissibility.
`exit_codes.json` holds the exit code of each run.  Refactors of the
computation or of the report writers must reproduce them exactly.  To
rewrite them from the current code (only after an intended change of report
content), run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
FORMATS = ("json", "csv", "latex")

# the conftest fixtures in config form, plus two presets
FAMILIES = {
    "nonsegment": {"alpha": "7", "G": [1, 2, 5],
                   "R": {"1": "x-1", "2": "x^2+1", "5": "x^5+x^4+x^3+1"}},
    "integer_alpha": {"alpha": "1", "G": [1, 2, 4],
                      "R": {"1": "x+2", "2": "x^2", "4": "x^4+1"}},
    "segment": {"alpha": "22/7", "G": [2, 3],
                "R": {"2": "x^2+1", "3": "x^3+x"}},
    "krall": {"preset": "krall", "alpha": 3, "m": 3, "a": ["1", "1/2", "2"]},
    "degenerate": {"preset": "degenerate", "alpha": 2, "m": 4,
                   "a": ["1", "2", "3", "5"]},
}
# Omega(1) = 0: `check` exits 2 with fail_n set
INADMISSIBLE = {"alpha": "22/7", "G": [2, 3], "R": {"2": "x^2", "3": "x^3"}}

COMMANDS = {
    "ortho": ("--nmax", "16"),
    "check": (),
    "preset": (),
    "qpoly": ("--nmax", "6"),
    "recur": ("--Q", "x^4+16*x^3", "--nmax", "8"),
    "three-term": ("--nmax", "6"),
    "probe": ("--deg", "3"),
}

ORTHO_CASES = [(fam, fmt) for fam in FAMILIES for fmt in FORMATS]
CASES = [(cmd, fam, fmt) for cmd in COMMANDS if cmd != "ortho"
         for fam in FAMILIES for fmt in FORMATS]
CASES += [("check", "inadmissible", fmt) for fmt in FORMATS]


def case_name(command: str, family: str) -> str:
    return f"{command}_{family}"


def golden_path(command: str, family: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"{case_name(command, family)}.{fmt}"


def render_report(command: str, family: str, fmt: str, workdir: pathlib.Path):
    """(exit code, report bytes) of one subcommand on one family."""
    from casolag.cli import main

    config = workdir / f"{family}.json"
    obj = INADMISSIBLE if family == "inadmissible" else FAMILIES[family]
    config.write_text(json.dumps(obj), encoding="utf-8")
    out = workdir / f"{command}_{family}.{fmt}.out"
    code = main([command, "--config", str(config), *COMMANDS[command],
                 "--format", fmt, "--out", str(out)])
    return code, out.read_bytes()


def assert_matches_golden(command, family, fmt, workdir):
    code, report = render_report(command, family, fmt, workdir)
    expected = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    assert code == expected[case_name(command, family)]
    assert report == golden_path(command, family, fmt).read_bytes()


@pytest.mark.parametrize("family,fmt", ORTHO_CASES)
def test_ortho_report_matches_golden(family, fmt, tmp_path):
    assert_matches_golden("ortho", family, fmt, tmp_path)


@pytest.mark.parametrize("command,family,fmt", CASES)
def test_report_matches_golden(command, family, fmt, tmp_path):
    assert_matches_golden(command, family, fmt, tmp_path)


# Poly arithmetic: building seeds and rendering reports need none of it
POLY_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__pow__", "__call__")


@pytest.mark.parametrize("command,family", [(cmd, fam) for cmd in COMMANDS for fam in FAMILIES]
                         + [("check", "inadmissible")])
def test_verdicts_do_no_poly_arithmetic(command, family, tmp_path, monkeypatch):
    """Each subcommand's handler computes from the seeds' integer values:
    while it runs (after parsing and preset expansion), Poly arithmetic
    raises, and the JSON report still equals its golden file."""
    import casolag.cli
    from casolag import Poly

    handler = casolag.cli._COMMANDS[command]

    def refused(name):
        def method(*args, **kwargs):
            raise AssertionError(f"Poly.{name} called by {command}")
        return method

    def guarded(args):
        with pytest.MonkeyPatch.context() as patch:
            for name in POLY_ARITHMETIC:
                patch.setattr(Poly, name, refused(name))
            return handler(args)

    monkeypatch.setitem(casolag.cli._COMMANDS, command, guarded)
    assert_matches_golden(command, family, "json", tmp_path)


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, family, fmt in [("ortho", f, x) for f, x in ORTHO_CASES] + CASES:
            code, report = render_report(command, family, fmt, pathlib.Path(tmp))
            name = case_name(command, family)
            if codes.setdefault(name, code) != code:
                sys.exit(f"{name} exited {code} and {codes[name]}")
            golden_path(command, family, fmt).write_bytes(report)
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    regenerate()

"""Byte-for-byte gate on the `ortho` reports.

The files under tests/golden/ are the reports of `casolag ortho --nmax 16`
in every output format on five families: the three conftest families, a
krall preset and a degenerate preset.  Refactors of the pairing path must
reproduce them exactly.  To rewrite them from the current code (only after
an intended change of report content), run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NMAX = 16
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

CASES = [(fam, fmt) for fam in FAMILIES for fmt in FORMATS]


def golden_path(family: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"ortho_{family}.{fmt}"


def render_report(family: str, fmt: str, workdir: pathlib.Path):
    """(exit code, report bytes) of `ortho --nmax 16` on one family."""
    from casolag.cli import main

    config = workdir / f"{family}.json"
    config.write_text(json.dumps(FAMILIES[family]), encoding="utf-8")
    out = workdir / f"{family}.{fmt}.out"
    code = main(["ortho", "--config", str(config), "--nmax", str(NMAX),
                 "--format", fmt, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("family,fmt", CASES)
def test_ortho_report_matches_golden(family, fmt, tmp_path):
    code, report = render_report(family, fmt, tmp_path)
    assert code == 0
    assert report == golden_path(family, fmt).read_bytes()


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for family, fmt in CASES:
            code, report = render_report(family, fmt, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"ortho on {family} exited {code}")
            golden_path(family, fmt).write_bytes(report)


if __name__ == "__main__":
    regenerate()

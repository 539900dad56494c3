"""Byte-for-byte gate on the demo scripts, and README's quick start.

Each script under demos/ runs in a fresh interpreter with src/ on its path;
it must exit 0 and print exactly the bytes frozen in
tests/golden/demos/<script>.out.  To rewrite them from the current code
(only after an intended change of what a demo prints), run from the
repository root:

    python3 tests/test_demos.py

Each ```python block of README.md runs too, and each of its print lines
must print what the comment at the end of that line says.
"""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def run_demo(script: pathlib.Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def golden_path(script: pathlib.Path) -> pathlib.Path:
    return GOLDEN / f"{script.stem}.out"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.iterdir()) == [golden_path(s).name for s in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden(script):
    assert run_demo(script) == golden_path(script).read_bytes()


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_prints_its_comments(block):
    # each print line ends in "# <what it prints>"
    expected = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for script in DEMOS:
        golden_path(script).write_bytes(run_demo(script))

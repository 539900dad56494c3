"""The report writer, cli._lines, against whole-string references.

JSON must equal json.dumps(payload, sort_keys=True, indent=2) + "\\n" with
the Table value's rows as dicts; CSV and LaTeX must equal the joined
writers below, which built each report as one string before the writer
streamed it.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from casolag import Poly
from casolag.cli import Table, _csv_cell, _latex_cell, _lines, main

FORMATS = ("json", "csv", "latex")


def reference_csv(table: Table) -> str:
    lines = [",".join(table.names)]
    lines += [",".join(map(_csv_cell, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def reference_latex(table: Table) -> str:
    """Standalone LaTeX document holding the table."""
    title = [] if table.title is None else [rf"\section*{{{table.title}}}"]
    note = [] if table.note is None else [f"% {table.note}"]
    lines = [r"\documentclass{article}", r"\begin{document}", *title,
             rf"\begin{{tabular}}{{{table.colspec or 'l' * len(table.names)}}}",
             " & ".join(table.heads or table.names) + r" \\", r"\hline",
             *(" & ".join(map(_latex_cell, row)) + r" \\" for row in table.rows),
             r"\end{tabular}", *note, r"\end{document}"]
    return "\n".join(lines) + "\n"


def reference_json(payload: dict) -> str:
    rows = {k: [v.json_row(row) for row in v.rows]
            for k, v in payload.items() if isinstance(v, Table)}
    return json.dumps({**payload, **rows}, sort_keys=True, indent=2) + "\n"


def written(fmt, payload, table=None):
    return "".join(_lines(fmt, payload, table))


# names and strings that need escapes or are not ASCII, plus plain ones
text = st.one_of(st.text(max_size=6), st.sampled_from(["n", "rows", "a\"b", "\\", "\n", "é", " "]))
rats = st.fractions(max_denominator=10**30).map(lambda v: v * 10**40)
cells = st.one_of(st.none(), st.booleans(), st.integers(-10**60, 10**60), text, rats,
                  st.lists(rats, max_size=4).map(Poly))
values = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), text),
                      lambda inner: st.one_of(st.lists(inner, max_size=3),
                                              st.dictionaries(text, inner, max_size=3)),
                      max_leaves=8)


@st.composite
def tables(draw):
    names = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[cells] * len(names)), max_size=4))
    optional = st.one_of(st.none(), text)
    return Table(names, rows, title=draw(optional), colspec=draw(optional),
                 heads=draw(st.one_of(st.none(), st.lists(text, min_size=len(names),
                                                          max_size=len(names)))),
                 note=draw(optional))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(text, values, max_size=5), text, tables())
# keys sorting before and after the table's, the table's key nested in a
# value written before it, and an empty table
@example({"a": {"rows": []}, "z": 1, "rows0": [0]}, "rows", Table(("n",), [(0,), (F(1, 2),)]))
@example({"a": None, "z": True}, "rows", Table(("n", "j"), []))
def test_json_writer_matches_json_dumps(payload, key, table):
    payload = {**payload, key: table}
    assert written("json", payload) == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(text, values, max_size=5))
def test_json_writer_without_a_table_is_one_dumps(payload):
    assert list(_lines("json", payload, None)) == [
        json.dumps(payload, sort_keys=True, indent=2) + "\n"]


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_and_latex_writers_match_joined_references(table):
    assert written("csv", {}, table) == reference_csv(table)
    assert written("latex", {}, table) == reference_latex(table)


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_equals_stdout(tmp_path, capsys, fmt):
    config = tmp_path / "family.json"
    config.write_text(json.dumps({"alpha": 7, "G": [1, 2, 5],
                                  "R": {"1": "x-1", "2": "x^2+1", "5": "x^5+x^4+x^3+1"}}))
    argv = ["recur", "--config", str(config), "--Q", "x^4+16*x^3", "--nmax", "60",
            "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    dest = tmp_path / f"report.{fmt}"
    assert main(argv + ["--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text(encoding="utf-8") == out
    assert out.count("\n") > 500

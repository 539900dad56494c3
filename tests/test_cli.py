import json
import pathlib
import re
import shlex
import sys
from importlib import resources

import jsonschema
import pytest

import casolag.cli
import casolag.family
from casolag import Poly, render
from casolag.cli import main
from casolag.parsing import MAX_DEGREE

from test_parsing import refuse_large_products

REMARK = {"alpha": 7, "G": [1, 2, 5],
          "R": {"1": "x-1", "2": "x^2+1", "5": "x^5+x^4+x^3+1"}}
CLOSING = {"alpha": 1, "G": [1, 2, 4],
           "R": {"1": "x+2", "2": "x^2", "4": "x^4+1"}}
KRALL = {"preset": "krall", "alpha": 2, "m": 2, "a": [1, 1]}
# Omega(1) = 0
INADMISSIBLE = {"alpha": "22/7", "G": [2, 3], "R": {"2": "x^2", "3": "x^3"}}


@pytest.fixture
def cfg(tmp_path):
    def write(obj, name="family.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def load_schema(name):
    text = resources.files("casolag").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def report_schema(command):
    schema = load_schema("reports.json")
    return {"definitions": schema["definitions"],
            "$ref": f"#/definitions/{command}"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_schema_accepts_both_forms():
    schema = load_schema("family.json")
    jsonschema.validate(REMARK, schema)
    jsonschema.validate(KRALL, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"alpha": 7}, schema)


def test_check_pass(cfg, capsys):
    code, out, _ = run(capsys, "check", "--config", cfg(REMARK))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("check"))
    assert payload["admissible"] is True
    assert payload["omega"] == "-12*x^5+144*x^4-628*x^3+1296*x^2-1280*x+476"


def test_check_fail_exit_code(cfg, capsys):
    bad = {"alpha": "22/7", "G": [2, 3], "R": {"2": "x^2", "3": "x^3"}}
    code, out, _ = run(capsys, "check", "--config", cfg(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["fail_n"] == 1


def test_check_fail_far_root(cfg, capsys):
    # a root near 10^9 is isolated, not reached by a scan
    far = {"alpha": 7, "G": [1], "R": {"1": "x-1000000000"}}
    code, out, err = run(capsys, "check", "--config", cfg(far))
    assert (code, err) == (2, "")
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("check"))
    assert payload["omega"] == "x-1000000001"
    assert (payload["admissible"], payload["fail_n"], payload["scan_bound"]) == \
        (False, 1000000001, 1000000002)


def test_qpoly(cfg, capsys):
    code, out, _ = run(capsys, "qpoly", "--config", cfg(REMARK), "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("qpoly"))
    assert payload["polys"][0]["q"] == "476"
    assert len(payload["polys"]) == 4


def test_qpoly_csv(cfg, capsys):
    code, out, _ = run(capsys, "qpoly", "--config", cfg(REMARK),
                       "--nmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q"
    assert lines[1] == "0,476"


def test_ortho_variant_selection(cfg, capsys):
    code, out, _ = run(capsys, "ortho", "--config", cfg(REMARK), "--nmax", "5")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("ortho"))
    assert payload["variant"] == "generic"
    code, out, _ = run(capsys, "ortho", "--config", cfg(CLOSING), "--nmax", "5")
    payload = json.loads(out)
    assert payload["variant"] == "xi"
    assert payload["passed"] is True


def test_ortho_rejects_unusable_alpha(cfg, capsys):
    bad = {"alpha": -1, "G": [1], "R": {"1": "x+3"}}
    code, out, err = run(capsys, "ortho", "--config", cfg(bad))
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_ortho_variant_error_is_reported(cfg, capsys, monkeypatch):
    # _pick_variant never picks a variant the form refuses; force one so the
    # form's VariantError reaches the CLI
    monkeypatch.setattr(casolag.cli, "_pick_variant", lambda spec: "xi")
    code, out, err = run(capsys, "ortho", "--config", cfg(REMARK))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "variant"
    assert "xi variant needs integer alpha" in json.loads(err)["error"]["message"]


def test_recur(cfg, capsys):
    code, out, _ = run(capsys, "recur", "--config", cfg(REMARK),
                       "--Q", "x^4+16*x^3", "--nmax", "8")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("recur"))
    assert payload["band"] == 4
    assert payload["band_ok"] is True



def test_recur_table_exports(cfg, capsys):
    argv = ("recur", "--config", cfg(REMARK), "--Q", "x^4+16*x^3", "--nmax", "5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == sorted(rows, key=lambda r: (r["n"], r["j"]))
    assert all(set(r) == {"n", "j", "gamma"} for r in rows)
    _, csv_text, _ = run(capsys, *argv, "--format", "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,j,gamma"
    assert len(lines) == len(rows) + 1
    _, tex, _ = run(capsys, *argv, "--format", "latex")
    assert tex.startswith("\\documentclass")
    assert "\\begin{tabular}" in tex and "\\end{document}" in tex
    assert tex.count("&") >= len(rows)


def test_recur_band_override_fails(cfg, capsys):
    code, out, _ = run(capsys, "recur", "--config", cfg(REMARK),
                       "--Q", "x^4+16*x^3", "--nmax", "8", "--band", "3")
    assert code == 2
    assert json.loads(out)["band_ok"] is False


def test_recur_requires_q(cfg, capsys):
    code, _, err = run(capsys, "recur", "--config", cfg(REMARK))
    assert code == 1
    assert "Q" in json.loads(err)["error"]["message"]


def test_three_term(cfg, capsys):
    code, out, _ = run(capsys, "three-term", "--config", cfg(KRALL),
                       "--nmax", "10")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("three-term"))
    assert payload["passed"] is True
    code, out, _ = run(capsys, "three-term", "--config", cfg(REMARK),
                       "--nmax", "10")
    assert code == 2


@pytest.mark.parametrize("nmax", ["0", "1"])
@pytest.mark.parametrize("family", [KRALL, REMARK, CLOSING])
def test_three_term_below_two_rows_fails(nmax, family, cfg, capsys):
    code, out, _ = run(capsys, "three-term", "--config", cfg(family),
                       "--nmax", nmax)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("three-term"))
    assert payload["passed"] is False
    assert payload["failure"] == "nothing certified: needs nmax >= 2"
    assert len(payload["coeffs"]) == int(nmax) + 1


def test_probe(cfg, capsys):
    code, out, _ = run(capsys, "probe", "--config", cfg(CLOSING), "--deg", "3")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("probe"))
    assert payload["basis"] == ["1", "x^3+6/7*x^2"]
    assert payload["reverified"] is True


def test_probe_with_no_row_past_the_band_fails(cfg, capsys):
    # re-verification reaches row n_max + 10 = 10 <= band: nothing is checked
    code, out, _ = run(capsys, "probe", "--config", cfg(REMARK), "--deg", "4",
                       "--band", "20", "--nmax", "0")
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("probe"))
    assert payload["basis"] == ["1", "x", "x^2", "x^3", "x^4"]
    assert payload["reverified"] is False


def test_probe_computes_each_beta_row_at_most_twice(cfg, capsys, monkeypatch):
    # probe --deg 8 on REMARK (the benchmark's generic family) needs
    # q_0..q_39 for the probe and q_0..q_49 for its re-verification
    calls = []
    beta = casolag.family.beta

    def counted(spec, n):
        calls.append(n)
        return beta(spec, n)

    monkeypatch.setattr(casolag.family, "beta", counted)
    code, out, _ = run(capsys, "probe", "--config", cfg(REMARK), "--deg", "8")
    assert code == 0
    assert json.loads(out)["reverified"] is True
    assert len(calls) <= 90


def test_preset_expansion(cfg, capsys):
    code, out, _ = run(capsys, "preset", "--config", cfg(KRALL))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report_schema("preset"))
    assert payload["family"]["R"]["2"] == "1/2*x^2+3/2*x+2"


def test_output_deterministic(cfg, capsys):
    path = cfg(REMARK)
    _, out1, _ = run(capsys, "qpoly", "--config", path, "--nmax", "6")
    _, out2, _ = run(capsys, "qpoly", "--config", path, "--nmax", "6")
    assert out1 == out2


def test_out_flag_writes_file(cfg, capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--config", cfg(REMARK),
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["admissible"] is True


def test_latex_emitter_structure(cfg, capsys):
    code, out, _ = run(capsys, "three-term", "--config", cfg(KRALL),
                       "--nmax", "4", "--format", "latex")
    assert code == 0
    assert out.startswith("\\documentclass")
    assert out.rstrip().endswith("\\end{document}")
    assert out.count("\\begin{tabular}") == 1


def test_missing_config(capsys):
    code, out, err = run(capsys, "check", "--config", "/nope/missing.json")
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "config"


def test_malformed_config(cfg, capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "config"


def test_config_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"alpha": 7, "G": [1], "R": {"1": "x-1\xff"}}')
    code, out, err = run(capsys, "check", "--config", str(path))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and "UTF-8" in error["message"]


# far deeper than the recursion limit: parentheses and unary signs
DEEP = ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"]


@pytest.mark.parametrize("text", DEEP, ids=["parens", "signs"])
def test_deep_nesting_in_config(cfg, capsys, text):
    code, out, err = run(capsys, "check", "--config",
                         cfg({"alpha": 7, "G": [1], "R": {"1": text}}))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and "nesting deeper" in error["message"]


@pytest.mark.parametrize("text", DEEP, ids=["parens", "signs"])
def test_deep_nesting_in_q_flag(cfg, capsys, text):
    code, out, err = run(capsys, "recur", "--config", cfg(REMARK), f"--Q={text}")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "usage" and error["message"].startswith("bad --Q: nesting deeper")


@pytest.mark.parametrize("nested", ["[" * 100000 + "]" * 100000,
                                    '{"a": ' * 100000 + "1" + "}" * 100000],
                         ids=["arrays", "objects"])
def test_config_nested_too_deeply(capsys, tmp_path, nested):
    # json's decoder raises RecursionError, which used to end in a traceback
    path = tmp_path / "deep.json"
    path.write_text('{"alpha": ' + nested + ', "G": [1], "R": {"1": "x"}}')
    code, out, err = run(capsys, "check", "--config", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": {
        "kind": "config",
        "message": "invalid family config: arrays or objects nested too deeply to decode"}}


def test_bad_polynomial_in_config(cfg, capsys):
    bad = {"alpha": 7, "G": [1], "R": {"1": "x/2"}}
    code, _, err = run(capsys, "check", "--config", cfg(bad))
    assert code == 1


def test_bad_q_flag(cfg, capsys):
    code, _, err = run(capsys, "recur", "--config", cfg(REMARK), "--Q", "x^^2")
    assert code == 1
    assert "Q" in json.loads(err)["error"]["message"]


def refuse_large_powers(monkeypatch):
    build = Poly.__pow__

    def guarded(self, n):
        assert n <= MAX_DEGREE, f"built a power with exponent {n}"
        return build(self, n)
    monkeypatch.setattr(Poly, "__pow__", guarded)


def test_huge_power_in_q_flag(cfg, capsys, monkeypatch):
    path = cfg(REMARK)
    refuse_large_powers(monkeypatch)
    code, _, err = run(capsys, "recur", "--config", path, "--Q", "x^100000000")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert error["message"].startswith("bad --Q: power too large")


def test_huge_product_in_q_flag(cfg, capsys, monkeypatch):
    path = cfg(REMARK)
    refuse_large_products(monkeypatch)
    code, out, err = run(capsys, "recur", "--config", path,
                         "--Q", "x^1000*x^1000*x^1000*x^1000+1")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": {"kind": "usage", "message": (
        "bad --Q: product too large: degrees 1000 and 1000 add up past 1000 at position 6")}}


def test_preset_seed_past_max_degree(cfg, capsys):
    # the seeds of a preset reach degree alpha+m-1, held to the parser's cap
    config = {"preset": "krall", "alpha": MAX_DEGREE + 1, "m": 1, "a": ["1"]}
    code, out, err = run(capsys, "preset", "--config", cfg(config))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": {"kind": "config", "message": (
        "invalid family config: seed degree alpha+m-1 = 1001 exceeds 1000")}}


def test_preset_seed_at_max_degree(cfg, capsys):
    config = {"preset": "krall", "alpha": MAX_DEGREE, "m": 1, "a": ["1"]}
    code, out, _ = run(capsys, "preset", "--config", cfg(config))
    assert code == 0
    assert json.loads(out)["family"]["G"] == [MAX_DEGREE]


def test_huge_power_in_seed(cfg, capsys, monkeypatch):
    path = cfg({"alpha": 7, "G": [1], "R": {"1": "(x+1)^100000"}})
    refuse_large_powers(monkeypatch)
    code, _, err = run(capsys, "check", "--config", path)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "power too large" in error["message"]


def test_unknown_command_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 1


# argparse's own errors; CONFIG stands for a valid config path
@pytest.mark.parametrize("argv", [
    ("ortho", "--config", "CONFIG", "--nmax", "abc"),
    ("ortho", "--nmax", "3"),
    ("check", "--config", "CONFIG", "--bogus", "1"),
    ("check", "--config", "CONFIG", "--format", "xml"),
    ("frobnicate", "--config", "CONFIG"),
    (),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_errors_are_json_usage_errors(cfg, capsys, argv):
    path = cfg(REMARK)
    code, out, err = run(capsys, *(path if a == "CONFIG" else a for a in argv))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv", [("--help",), ("ortho", "--help")], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.startswith("usage: casolag")


# check and preset read no size flag, so their cases are unknown flags
@pytest.mark.parametrize("argv", [
    ("check", "--nmax", "-1"),
    ("qpoly", "--nmax", "-3"),
    ("ortho", "--nmax", "-1"),
    ("recur", "--Q", "0"),
    ("recur", "--Q", "x", "--nmax", "-2"),
    ("recur", "--Q", "x", "--band", "-1"),
    ("three-term", "--nmax", "-1"),
    ("probe", "--deg", "-1"),
    ("probe", "--deg", "2", "--band", "-1"),
    ("probe", "--deg", "2", "--nmax", "-1"),
    ("preset", "--deg", "-1"),
], ids=" ".join)
def test_out_of_domain_flags_are_usage_errors(cfg, capsys, argv):
    code, out, err = run(capsys, argv[0], "--config", cfg(REMARK), *argv[1:])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["kind"] == "usage"


# the flags each subcommand reads besides --config, --format and --out;
# recur and probe also need their required flag when another is tested
READS = {"check": (), "preset": (), "qpoly": ("--nmax",), "ortho": ("--nmax",),
         "three-term": ("--nmax",), "recur": ("--Q", "--nmax", "--band"),
         "probe": ("--deg", "--band", "--nmax")}
REQUIRED = {"recur": ("--Q", "x"), "probe": ("--deg", "2")}
VALUES = {"--nmax": "3", "--Q": "x^2", "--deg": "2", "--band": "2"}
UNREAD = [(command, flag) for command, flags in READS.items()
          for flag in VALUES if flag not in flags]


def test_subcommands_take_only_the_flags_they_read(capsys):
    settable = 0
    for command, flags in READS.items():
        _, out, _ = run(capsys, command, "--help")
        usage = re.findall(r"--\w+", out.split("\n\n")[0])
        assert usage == ["--config", *flags, "--format", "--out"]
        settable += len(usage)
    assert (settable, len(UNREAD)) == (30, 19)


@pytest.mark.parametrize("command,flag", UNREAD,
                         ids=[f"{c} {f} {VALUES[f]}" for c, f in UNREAD])
def test_unread_flag_is_usage_error(cfg, capsys, command, flag):
    code, out, err = run(capsys, command, "--config", cfg(REMARK),
                         *REQUIRED.get(command, ()), flag, VALUES[flag])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert error["message"] == f"casolag: unrecognized arguments: {flag} {VALUES[flag]}"


@pytest.mark.parametrize("argv,key,value", [
    (("qpoly",), "nmax", 8),
    (("ortho",), "nmax", 10),
    (("three-term",), "nmax", 20),
    (("recur", "--Q", "x^4+16*x^3"), "nmax", 20),
    (("recur", "--Q", "x^4+16*x^3"), "band", 4),  # deg Q
    (("probe", "--deg", "3"), "band", 3),  # the degree cap
    (("probe", "--deg", "3"), "nmax", 2 * 3 + 5 + 10),  # 2*deg+maxG+10
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_flag_defaults(cfg, capsys, argv, key, value):
    family = KRALL if argv[0] == "three-term" else REMARK
    code, out, err = run(capsys, argv[0], "--config", cfg(family), *argv[1:])
    assert code in (0, 2) and err == ""
    assert json.loads(out)[key] == value


def test_help_shows_defaults(capsys):
    for command, defaults in [("qpoly", ["8"]), ("ortho", ["10"]),
                              ("three-term", ["20"]), ("recur", ["20", "deg Q"]),
                              ("probe", ["--deg", "2*deg+maxG+10"])]:
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        for default in defaults + ["json"]:
            assert f"(default: {default})" in out


# int() would read the last four as numbers ("1_0" as 10): sizes take ASCII digits
@pytest.mark.parametrize("value,message", [
    ("abc", "invalid int value: 'abc'"),
    ("-1", "must be >= 0, got -1"),
    *((v, f"invalid int value: {v!r}") for v in ("1_0", "+3", " 4", "\u0663")),
])
def test_size_flag_messages(cfg, capsys, value, message):
    code, _, err = run(capsys, "ortho", "--config", cfg(REMARK), "--nmax", value)
    assert code == 1
    assert json.loads(err)["error"]["message"] == f"casolag ortho: argument --nmax: {message}"


def test_digit_other_than_ascii_in_seed_or_q(cfg, capsys):
    code, out, err = run(capsys, "check", "--config",
                         cfg({"alpha": 7, "G": [1], "R": {"1": "\u0663*x+1"}}))
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "config"
    assert "unexpected character '\u0663' at position 0" in error["message"]
    code, out, err = run(capsys, "recur", "--config", cfg(REMARK), "--Q", "x^\u0662")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {
        "kind": "usage", "message": "bad --Q: unexpected character '\u0662' at position 2"}}


def usage_message(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    return error["message"]


def test_flag_equals_value_and_repeated_flag(cfg, capsys):
    path = cfg(REMARK)
    _, spaced, _ = run(capsys, "qpoly", "--config", path, "--nmax", "3")
    _, joined, _ = run(capsys, "qpoly", f"--config={path}", "--nmax=3")
    # the last of a repeated flag wins
    _, repeated, _ = run(capsys, "qpoly", "--config", path, "--nmax", "7", "--nmax", "3")
    assert json.loads(spaced)["nmax"] == 3
    assert spaced == joined == repeated


def test_flag_without_value(cfg, capsys):
    path = cfg(REMARK)
    assert usage_message(capsys, "qpoly", "--config", path, "--nmax") == \
        "casolag qpoly: argument --nmax: expected one argument"
    # a word that starts with "--" is never a value
    assert usage_message(capsys, "qpoly", "--config", "--nmax", "3") == \
        "casolag qpoly: argument --config: expected one argument"
    assert usage_message(capsys, "qpoly", "--config", path, "--nmax=") == \
        "casolag qpoly: argument --nmax: invalid int value: ''"


def test_flags_are_spelled_in_full(cfg, capsys):
    path = cfg(REMARK)
    assert usage_message(capsys, "ortho", "--config", path, "--nm", "3") == \
        "casolag: unrecognized arguments: --nm 3"
    # a missing required flag is reported before an unknown word
    assert usage_message(capsys, "ortho", "--conf", path) == \
        "casolag ortho: the following arguments are required: --config"
    assert usage_message(capsys, "probe", "--config", path, "--bogus", "1") == \
        "casolag probe: the following arguments are required: --deg"


def test_value_starting_with_a_dash(cfg, capsys):
    code, out, err = run(capsys, "recur", "--config", cfg(REMARK), "--Q", "-x^2", "--nmax", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["Q"] == "-x^2"


def test_main_reads_sys_argv_by_default(cfg, capsys, monkeypatch):
    # the casolag console script calls main() with no arguments
    path = cfg(REMARK)
    monkeypatch.setattr(sys, "argv", ["casolag", "qpoly", "--config", path, "--nmax", "1"])
    code, out, err = run(capsys)  # main([]) would be a usage error
    assert (code, err) == (1, json.dumps({"error": {
        "kind": "usage", "message": "casolag: the following arguments are required: command"}},
        sort_keys=True) + "\n")
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["nmax"] == 1


def test_readme_command_lines_run(cfg, capsys):
    # every `casolag ...` line of README's "Command line" block, on test
    # configs; exit 1 means a stale flag or subcommand
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    paths = {"family.json": cfg(REMARK), "preset.json": cfg(KRALL, "preset.json")}
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("casolag ")]
    assert {argv[1] for argv in lines} == set(READS)
    for argv in lines:
        code, _, err = run(capsys, *(paths.get(a, a) for a in argv[1:]))
        assert code != 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ("recur", "--Q", "x^4+16*x^3", "--nmax", "8"),
    ("three-term", "--nmax", "6"),
    ("probe", "--deg", "3"),
], ids=" ".join)
def test_degenerate_family_is_reported(cfg, capsys, argv):
    code, out, err = run(capsys, argv[0], "--config", cfg(INADMISSIBLE), *argv[1:])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": {
        "kind": "degenerate", "message": "Omega(1) = 0: q_1 would lose degree"}}


# configs that schemas/family.json rejects, or that divide by zero
@pytest.mark.parametrize("config", [
    {"preset": "krall", "alpha": 3.9, "m": 3, "a": ["1", "1/2", "2"]},
    {"preset": "krall", "alpha": True, "m": 1, "a": ["1"]},
    {"preset": "krall", "alpha": 2, "m": True, "a": ["1"]},
    {"preset": "krall", "alpha": 1, "m": 1, "a": [True]},
    {"preset": "krall", "alpha": 2, "m": 2, "a": ["1", "1/0"]},
    {"preset": "krall", "alpha": 2, "m": 2, "a": "12"},
    {"preset": "krall", "alpha": 2, "m": 2, "a": [1, 1], "G": [1]},
    {"alpha": 7, "G": [1.7], "R": {"1": "x-1"}},
    {"alpha": 7, "G": [True], "R": {"1": "x-1"}},
    {"alpha": True, "G": [1], "R": {"1": "x-1"}},
    {"alpha": "1/0", "G": [1], "R": {"1": "x-1"}},
    {"alpha": "3.5", "G": [1], "R": {"1": "x-1"}},
    {"alpha": 7, "G": [1], "R": {"1": 5}},
    {"alpha": 7, "G": [1], "R": ["x-1"]},
    {"alpha": 7, "G": [1], "R": {"1": "x-1"}, "m": 1},
], ids=json.dumps)
def test_config_rejected(cfg, capsys, config):
    if "1/0" not in json.dumps(config):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(config, load_schema("family.json"))
    code, out, err = run(capsys, "check", "--config", cfg(config))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


# configs that the schema accepts but that name one seed, or one key, twice:
# json and int(g) would otherwise keep the last value without a word
@pytest.mark.parametrize("text,message", [
    ('{"alpha": "7", "G": [1], "R": {"1": "x+3", "01": "x+5"}}',
     'R names one seed twice, keys ["1", "01"]'),
    ('{"alpha": "7", "G": [1], "R": {"1": "x+3", "1": "x+5"}}', 'key "1" given twice'),
    ('{"alpha": "7", "alpha": "7", "G": [1], "R": {"1": "x+3"}}', 'key "alpha" given twice'),
    ('{"preset": "krall", "alpha": 3, "m": 3, "m": 3, "a": ["1", "1/2", "2"]}',
     'key "m" given twice'),
], ids=["R-1-and-01", "R-1-twice", "alpha-twice", "preset-m-twice"])
def test_config_naming_a_seed_twice_rejected(tmp_path, capsys, text, message):
    jsonschema.validate(json.loads(text), load_schema("family.json"))
    path = tmp_path / "family.json"
    path.write_text(text)
    for argv in (("check",), ("qpoly", "--nmax", "2")):
        code, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": {
            "kind": "config", "message": f"invalid family config: {message}"}}
    with pytest.raises(ValueError, match=re.escape(message)):
        casolag.family.spec_from_json(text)


# R keys that int() reads as numbers: "1_0" as 10, the others as 1
@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "1 ", "\u0661"])
def test_config_r_key_other_than_ascii_digits_rejected(cfg, capsys, key):
    degree = 10 if key == "1_0" else 1
    config = {"alpha": 7, "G": [degree], "R": {key: f"x^{degree}+1"}}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(config, load_schema("family.json"))
    message = f"G entries and R keys must be integers, got {key!r}"
    for command in ("preset", "check"):
        code, out, err = run(capsys, command, "--config", cfg(config))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": {
            "kind": "config", "message": f"invalid family config: {message}"}}
    with pytest.raises(ValueError, match=re.escape(message)):
        casolag.family.spec_from_json_dict(config)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
def test_config_integer_beyond_digit_limit_rejected(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer literal longer than
    # the interpreter's digit limit
    path = tmp_path / "family.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text('{"alpha": ' + digits + ', "G": [1], "R": {"1": "x-1"}}')
    code, out, err = run(capsys, "check", "--config", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "config"


def test_config_integral_float_is_an_integer(cfg, capsys):
    # the schema reads 2.0 as the integer 2
    config = dict(KRALL, alpha=2.0)
    jsonschema.validate(config, load_schema("family.json"))
    code, out, _ = run(capsys, "preset", "--config", cfg(config))
    assert code == 0
    assert json.loads(out)["family"]["alpha"] == "2"


# numbers longer than the digit limit: Omega's coefficients in both cases;
# with R_2 = (x+c)^2 also the seed's and the scan bound (~c^2 over lead 1)
@pytest.mark.parametrize("config,long_bound", [
    ({"alpha": "7", "G": [1, 2], "R": {"1": "7" * 400 + "*x+1", "2": "7" * 400 + "*x^2+1"}},
     False),
    ({"alpha": "7", "G": [2], "R": {"2": f"(x+{'7' * 400})^2"}}, True),
], ids=["two-seeds", "square"])
@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_numbers_past_the_digit_limit_are_printed(cfg, capsys, digit_limit, config, long_bound,
                                                  fmt):
    spec = casolag.family.spec_from_json_dict(config)
    cert = casolag.family.certify_admissible(spec)
    path = cfg(config)
    with digit_limit(640):
        code, out, err = run(capsys, "check", "--config", path, "--format", fmt)
        assert sys.get_int_max_str_digits() == 640
    assert (code, err) == (0 if cert.passed else 2, "")
    assert len(str(max(abs(c) for c in cert.omega.coeffs))) > 640
    assert (len(str(cert.integer_scan_bound)) > 640) == long_bound
    assert render(cert.omega) in out
    assert str(cert.integer_scan_bound) in out
    if fmt == "json":
        assert json.loads(out)["family"] == spec.to_json_dict()


def test_integer_literal_past_the_digit_limit(cfg, capsys, digit_limit):
    digits = "7" * 641
    message = "integer literal of 641 digits exceeds the interpreter's digit limit at position"
    with digit_limit(640):
        code, out, err = run(capsys, "check", "--config",
                             cfg({"alpha": 7, "G": [1], "R": {"1": f"x+{digits}"}}))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "config", "message": f"invalid family config: {message} 2"}}
        for q, position in ((f"{digits}*x", 0), (f"x^{digits}", 2)):
            code, out, err = run(capsys, "recur", "--config", cfg(REMARK), "--Q", q)
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": {
                "kind": "usage", "message": f"bad --Q: {message} {position}"}}

"""casolag's result types: the import graph they keep small (with the lazy
modules forms, recurrence and krall, and the CLI's own argv parser), and the
record semantics of poly.record (construction, repr, ==, frozen, hash).

The pinned reprs are those the same instances had when the classes were
standard-library dataclasses; the field order and the fields left out of ==
(AlgebraProbeResult's _spec, _betas and _rows) are pinned the same way.
"""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import casolag
from casolag import (AdmissibilityCertificate, AlgebraProbeResult, BetaRow,
                     FamilySpec, KappaMatrix, LinearSolution, ObstructionResult,
                     OrthoReport, Poly, RecurrenceTable, RhoRecurrenceResult,
                     ThreeTermResult)
from casolag.cli import Table

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_imports_no_heavy_modules():
    code = f"import casolag.cli, sys; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


LAZY = ("casolag.forms", "casolag.recurrence", "casolag.krall")
# the nonsegment golden family, and the krall golden preset
NONSEGMENT = {"alpha": "7", "G": [1, 2, 5],
              "R": {"1": "x-1", "2": "x^2+1", "5": "x^5+x^4+x^3+1"}}
KRALL = {"preset": "krall", "alpha": 3, "m": 3, "a": ["1", "1/2", "2"]}


def run_cli(argv, modules):
    """(exit code, the modules of `modules` that ran or were imported) of
    main(argv) in a fresh -S interpreter, read from the last line of its
    stdout; a lazy module that ran has its LazyLoader class swapped for
    ModuleType."""
    code = ("import sys, types; from casolag.cli import main; code = main(%r); "
            "print(code, *(m for m in %r if type(sys.modules.get(m)) is types.ModuleType))"
            % (argv, modules))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()[-1].split()
    return out[0], out[1:]


# subcommand -> (its golden flags, the lazy modules it runs)
RUNS = {
    "check": ([], []),
    "qpoly": (["--nmax", "6"], []),
    "preset": ([], []),
    "ortho": (["--nmax", "16"], ["casolag.forms"]),
    "recur": (["--Q", "x^4+16*x^3", "--nmax", "8"], ["casolag.recurrence"]),
    "three-term": (["--nmax", "6"], ["casolag.recurrence"]),
    "probe": (["--deg", "3"], ["casolag.recurrence"]),
}


@pytest.mark.parametrize("command", RUNS)
def test_subcommand_runs_only_the_lazy_modules_it_needs(command, tmp_path):
    # an explicit config leaves krall unloaded
    flags, ran = RUNS[command]
    config = tmp_path / "family.json"
    config.write_text(json.dumps(NONSEGMENT))
    argv = [command, *flags, "--config", str(config), "--out", str(tmp_path / "report")]
    code, loaded = run_cli(argv, LAZY)
    assert code in ("0", "2")  # the subcommand ran to a verdict
    assert loaded == ran


@pytest.mark.parametrize("command", ["preset", "check"])
def test_preset_config_runs_krall(command, tmp_path):
    config = tmp_path / "preset.json"
    config.write_text(json.dumps(KRALL))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "report")]
    assert run_cli(argv, LAZY) == ("0", ["casolag.krall"])


# the parser is the CLI's own: no run imports argparse or what it pulls in
@pytest.mark.parametrize("argv,exit_code", [
    (["check", "--config", "CONFIG", "--out", "REPORT"], "0"),
    (["--help"], "0"),
    (["probe", "--help"], "0"),
    (["ortho", "--config", "CONFIG", "--nmax", "abc"], "1"),
    (["check", "--config", "CONFIG", "--bogus", "1"], "1"),
], ids=" ".join)
def test_cli_run_imports_no_argparse(argv, exit_code, tmp_path):
    config = tmp_path / "family.json"
    config.write_text(json.dumps(NONSEGMENT))
    paths = {"CONFIG": str(config), "REPORT": str(tmp_path / "report")}
    argv = [paths.get(a, a) for a in argv]
    assert run_cli(argv, ("argparse", "gettext", "locale")) == (exit_code, [])


def test_public_names_resolve_through_the_package(monkeypatch):
    for name in casolag.__all__:
        getattr(casolag, name)
    namespace = {}
    exec("from casolag import *", namespace)
    assert set(casolag.__all__) <= namespace.keys()
    assert namespace["ortho_check"] is casolag.forms.ortho_check
    assert namespace["algebra_probe"] is casolag.recurrence.algebra_probe
    with pytest.raises(AttributeError, match="no_such_name"):
        casolag.no_such_name
    # nothing is cached in the package: a rebinding in the module (as a
    # tracer makes and undoes) shows through, and so does its undoing
    assert "ortho_check" not in vars(casolag)
    original = casolag.forms.ortho_check
    monkeypatch.setattr(casolag.forms, "ortho_check", len)
    assert casolag.ortho_check is len
    monkeypatch.undo()
    assert casolag.ortho_check is original


X1 = Poly((-1, 1))
TABLE = RecurrenceTable(Poly.x(), range(3), {0: {1: F(1)}, 1: {-1: F(-1, 2)}})

# (class, field names, positional values, defaults, repr as a dataclass)
CASES = [
    (Table, ("names", "rows", "title", "colspec", "heads", "note"),
     (("n", "q"), [(0, X1)], "T", "ll", ("$n$", "$q$"), "c"),
     {"title": None, "colspec": None, "heads": None, "note": None},
     "Table(names=('n', 'q'), rows=[(0, Poly(x-1))], title='T', colspec='ll', "
     "heads=('$n$', '$q$'), note='c')"),
    (FamilySpec, ("alpha", "G", "R"), (F(7), (1,), {1: X1}), {},
     "FamilySpec(alpha=Fraction(7, 1), G=(1,), R={1: Poly(x-1)})"),
    (BetaRow, ("n", "values"), (3, (F(1), F(-2, 3))), {},
     "BetaRow(n=3, values=(Fraction(1, 1), Fraction(-2, 3)))"),
    (AdmissibilityCertificate, ("omega", "integer_scan_bound", "verdict", "fail_n"),
     (X1, 3, "fail", 1), {"fail_n": None},
     "AdmissibilityCertificate(omega=Poly(x-1), integer_scan_bound=3, "
     "verdict='fail', fail_n=1)"),
    (KappaMatrix, ("rows",), (((F(1), F(0)), (F(-1, 2), F(1))),), {},
     "KappaMatrix(rows=((Fraction(1, 1), Fraction(0, 1)), "
     "(Fraction(-1, 2), Fraction(1, 1))))"),
    (OrthoReport, ("nmax", "variant", "passed", "entries", "first_violation"),
     (1, "generic", False, [(0, 0, F(1)), (1, 0, F(2))], (1, 0, F(2))),
     {"first_violation": None},
     "OrthoReport(nmax=1, variant='generic', passed=False, entries=[(0, 0, "
     "Fraction(1, 1)), (1, 0, Fraction(2, 1))], first_violation=(1, 0, Fraction(2, 1)))"),
    (LinearSolution, ("particular", "nullspace", "pivot_columns"),
     ([F(1), F(0)], [[F(-2), F(1)]], [0]), {},
     "LinearSolution(particular=[Fraction(1, 1), Fraction(0, 1)], "
     "nullspace=[[Fraction(-2, 1), Fraction(1, 1)]], pivot_columns=[0])"),
    (RecurrenceTable, ("Q", "n_range", "rows"), (TABLE.Q, TABLE.n_range, TABLE.rows), {},
     "RecurrenceTable(Q=Poly(x), n_range=range(0, 3), rows={0: {1: Fraction(1, 1)}, "
     "1: {-1: Fraction(-1, 2)}})"),
    (ThreeTermResult, ("nmax", "passed", "a", "b", "c", "failure"),
     (1, False, [F(1)], [F(0)], [F(0)], "c_1 = 0"), {"failure": None},
     "ThreeTermResult(nmax=1, passed=False, a=[Fraction(1, 1)], b=[Fraction(0, 1)], "
     "c=[Fraction(0, 1)], failure='c_1 = 0')"),
    (ObstructionResult, ("obstructed", "witness", "bands_refuted_up_to"), (True, 2, 20),
     {"witness": None, "bands_refuted_up_to": None},
     "ObstructionResult(obstructed=True, witness=2, bands_refuted_up_to=20)"),
    (AlgebraProbeResult,
     ("degree_cap", "band", "n_max", "basis", "_spec", "_betas", "_rows"),
     (2, 2, 16, [Poly.one(), Poly((0, 0, 1))], FamilySpec(7, (1,), {1: X1}), [], []), {},
     "AlgebraProbeResult(degree_cap=2, band=2, n_max=16, basis=[Poly(1), Poly(x^2)])"),
    (RhoRecurrenceResult, ("rho", "band", "table", "band_ok", "extremes_from", "passed"),
     (3, 4, TABLE, True, 4, True), {},
     "RhoRecurrenceResult(rho=3, band=4, table=RecurrenceTable(Q=Poly(x), "
     "n_range=range(0, 3), rows={0: {1: Fraction(1, 1)}, 1: {-1: Fraction(-1, 2)}}), "
     "band_ok=True, extremes_from=4, passed=True)"),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = (FamilySpec, KappaMatrix)


@pytest.mark.parametrize("cls,names,args,defaults,text", CASES, ids=IDS)
def test_construction_and_repr(cls, names, args, defaults, text):
    obj = cls(*args)
    assert repr(obj) == text
    assert cls(**dict(zip(names, args))) == obj
    assert [getattr(obj, n) for n in names] == list(args)
    required = [v for n, v in zip(names, args) if n not in defaults]
    bare = cls(*required)
    assert {n: getattr(bare, n) for n in defaults} == defaults
    with pytest.raises(TypeError, match="missing"):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:1], **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, bogus=1)


@pytest.mark.parametrize("cls,names,args,defaults,text", CASES, ids=IDS)
def test_equality_and_hashing(cls, names, args, defaults, text):
    obj = cls(*args)
    assert obj == cls(*args)
    assert obj != object()
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(obj, names[0], args[0])
        with pytest.raises(AttributeError):
            delattr(obj, names[0])
    else:
        with pytest.raises(TypeError):
            hash(obj)
        setattr(obj, names[0], None)
        assert obj != cls(*args)


def test_kappa_matrix_hashes_by_value():
    rows = ((F(1), F(0)), (F(-1, 2), F(1)))
    a, b = KappaMatrix(rows), KappaMatrix(tuple(map(tuple, rows)))
    assert a is not b and hash(a) == hash(b)
    assert {a: "kappa"}[b] == "kappa"
    assert KappaMatrix(((F(2),),)) != a


def test_family_spec_hashes_by_value():
    # R is a dict: the hash reads its items whatever their order, as == does
    R = {1: X1, 2: Poly((1, 0, 1))}
    a = FamilySpec(7, (1, 2), R)
    b = FamilySpec(F(7), [1, 2], {2: Poly((1, 0, 1)), "1": Poly(X1.coeffs)})
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: "spec"}[b] == "spec"
    others = [FamilySpec(F(15, 2), (1, 2), R),
              FamilySpec(7, (1, 3), {1: X1, 3: Poly((0, 0, 0, 1))}),
              FamilySpec(7, (1, 2), {1: X1, 2: Poly((2, 0, 1))})]
    assert len({a, *others}) == 4
    assert all(o not in {a: 0} for o in others)


def test_probe_result_equality_ignores_engine_state():
    basis = [Poly.one()]
    a = AlgebraProbeResult(1, 1, 12, basis, _spec=FamilySpec(7, (1,), {1: X1}),
                           _betas=[((1,), F(1))], _rows=[[1]])
    b = AlgebraProbeResult(1, 1, 12, basis, _spec=None, _betas=[], _rows=[])
    assert a == b
    assert a != AlgebraProbeResult(1, 1, 13, basis, None, [], [])


def test_family_spec_post_init_still_validates():
    spec = FamilySpec(7, [1, 2], {"1": X1, 2: Poly((1, 0, 1))})
    assert spec.alpha == F(7) and isinstance(spec.alpha, F)
    assert spec.G == (1, 2) and set(spec.R) == {1, 2}
    for G, R in [((2, 1), {1: X1, 2: Poly((1, 0, 1))}), ((), {}), ((1,), {1: Poly((1, 0, 1))}),
                 ((1, 2), {1: X1})]:
        with pytest.raises(ValueError):
            FamilySpec(7, G, R)

"""casolag benchmark: CLI job time end to end, and a traced per-layer breakdown.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ortho --seed 0 --seconds 25 --trace 0

Untraced (--trace 0): one client in a closed loop runs whole jobs, each a
fixed list of `casolag` CLI invocations in fresh interpreters, one child at
a time, for --seconds, each job followed by one fixed reference run.
Set-up time is measured first, as fresh `casolag preset` runs on every
config the job reads.  Reports job_rel (the fastest job over the fastest
reference run; see REFERENCE and README.md), job_s (the fastest job),
setup_s (median set-up run), peak_rss_mib (median over jobs of the largest
child max RSS) and fail_share.

Traced (--trace 1): the same invocations run in this process through
`casolag.cli.main(argv)`, with timing wrappers around the public functions
of every casolag module (see tracer.py).  Reports the per-layer metrics of
PER_LAYER, the tracing overhead, and log-log scaling slopes over the
workload's size ladder.

Every report is checked: exit code, no traceback, byte-identical output
across jobs and between traced and untraced runs, the recorded SHA-256
digests for the default seed, and mathematical facts that hold for every
admissible draw (workloads.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from tracer import LAYERS, Tracer
from workloads import DEFAULT_SEED, JOB_SIZE, LADDER, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

CLI = "import sys; from casolag.cli import main; sys.exit(main())"
# Reference run: a fresh interpreter doing fixed exact-rational arithmetic,
# about 0.2 s.  Co-tenant load on a shared host slows every CPU-bound
# Python process alike, for minutes at a time; the ratio of the fastest job
# to the fastest reference run of the same run cancels that, where the
# fastest job alone moved by up to 25% between runs.
REFERENCE = ("from fractions import Fraction as F; "
             "s = sum(F(1, i) * F(i + 1, i + 2) for i in range(1, 10000))")
SETUP_SAMPLES = 20
MIN_JOBS = 3
INVOCATION_CAP_S = 60.0

END_TO_END = {"job_rel": "ratio", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "forms.BilinearForm.inner.calls": "count",
    "forms.BilinearForm.inner.self_s": "s",
    "forms.BilinearForm.corrections.s": "s",
    "forms.kappa_matrix.s": "s",
    "forms.ortho_check.s": "s",
    "special.poch.calls": "count",
    "special.poch.self_s": "s",
    "special.gamma_ratio.calls": "count",
    "special.gamma_ratio.distinct_ratio": "ratio",
    "special.to_binomial_basis.calls": "count",
    "special.to_binomial_basis.self_s": "s",
    "special.casoratian.s": "s",
    "laguerre.laguerre.calls": "count",
    "laguerre.laguerre.s": "s",
    "laguerre.laguerre.self_s": "s",
    "laguerre.laguerre.distinct_ratio": "ratio",
    "family.q_poly.calls": "count",
    "family.q_poly.s": "s",
    "family.q_poly.self_s": "s",
    "family.q_poly.distinct_ratio": "ratio",
    "family.beta.calls": "count",
    "family.beta.self_s": "s",
    "family.omega.s": "s",
    "family.certify_admissible.self_s": "s",
    "family.certify_admissible.scan_points": "count",
    "linalg.solve_linear.calls": "count",
    "linalg.solve_linear.self_s": "s",
    "linalg.solve_linear.max_cells": "count",
    "linalg.det_rat.calls": "count",
    "linalg.det_rat.self_s": "s",
    "linalg.det_poly.s": "s",
    "recurrence.expand_in_q.calls": "count",
    "recurrence.expand_in_q.s": "s",
    "recurrence.expand_in_q.self_s": "s",
    "recurrence.recurrence_table.calls": "count",
    "recurrence.recurrence_table.self_s": "s",
    "recurrence.algebra_probe.s": "s",
    "recurrence.reverify_probe.s": "s",
    "recurrence.three_term_test.s": "s",
    "poly.Poly.mul.calls": "count",
    "poly.Poly.mul.self_s": "s",
    "poly.Poly.add_sub.calls": "count",
    "poly.Poly.add_sub.self_s": "s",
    "poly.LaurentPoly.mul.self_s": "s",
    "poly.render.self_s": "s",
    "poly.max_coeff_bits": "bits",
    "cli.cmd.self_s": "s",
    "cli.report_bytes": "bytes",
    "parsing.parse_poly.calls": "count",
    "parsing.parse_poly.s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "scale.job_exp": "exponent",
}

for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
    PER_LAYER[f"scale.{_layer}.self_exp"] = "exponent"


# -- environment ---------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": [round(v, 2) for v in os.getloadavg()]}


# -- running one invocation ------------------------------------------------


@dataclass
class Outcome:
    """What one CLI invocation did."""

    key: str
    code: Optional[int]
    out: bytes
    err: bytes
    wall: float
    maxrss_kib: int = 0
    timed_out: bool = False

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


# Runs CLI children for the benchmark process.  A child's ru_maxrss counts
# the memory of the process that spawned it (its address space until exec),
# so children are spawned from this small interpreter (python -S, ~10 MiB)
# rather than from the benchmark process (~20 MiB), which would hide them.
SPAWNER = r"""
import os, signal, sys, time
child = 0
def on_alarm(signum, frame):
    try:
        os.kill(child, signal.SIGKILL)
    except ProcessLookupError:
        pass
signal.signal(signal.SIGALRM, on_alarm)
for line in sys.stdin:
    out, err, cap, *argv = line.rstrip("\n").split("\0")
    fo = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    fe = os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    child = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, fo, 1), (os.POSIX_SPAWN_DUP2, fe, 2)])
    signal.setitimer(signal.ITIMER_REAL, float(cap))
    _, status, usage = os.wait4(child, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    os.close(fo)
    os.close(fe)
    print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss, flush=True)
"""


class Spawner:
    """Runs `casolag <argv>` in fresh interpreters, one at a time, and reaps
    each with wait4.  A context manager: leaving it ends the spawner."""

    def __init__(self, cap: float = INVOCATION_CAP_S):
        self.cap = cap
        OUT.mkdir(exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-c", SPAWNER], cwd=ROOT, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __call__(self, key: str, argv: list, code: str = CLI) -> Outcome:
        out, err = OUT / "stdout", OUT / "stderr"
        fields = [str(out), str(err), repr(self.cap), sys.executable, "-c", code, *argv]
        if any("\0" in f or "\n" in f for f in fields):
            raise ValueError(f"argument with a NUL or newline: {argv!r}")
        self._proc.stdin.write("\0".join(fields) + "\n")
        self._proc.stdin.flush()
        code, wall, maxrss = self._proc.stdout.readline().split()
        wall = float(wall)
        return Outcome(key, int(code), out.read_bytes(), err.read_bytes(), wall,
                       int(maxrss), wall >= self.cap)


def clear_caches() -> None:
    """Empty casolag's memo tables, so each in-process invocation starts as
    cold as a fresh interpreter."""
    for name, mod in list(sys.modules.items()):
        if name == "casolag" or name.startswith("casolag."):
            for val in vars(mod).values():
                if hasattr(val, "cache_clear"):
                    val.cache_clear()


def run_inprocess(key: str, argv: list) -> Outcome:
    clear_caches()
    cli = sys.modules["casolag.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed invocation, not a crashed run
            traceback.print_exc()
            code = None
    wall = perf_counter() - start
    return Outcome(key, code, out.getvalue().encode(), err.getvalue().encode(), wall)


# -- checking --------------------------------------------------------------


class Tally:
    """Attempted and failed invocations, with the reasons for each failure."""

    def __init__(self, expected=None, strict=False):
        self.expected = expected or {}
        self.strict = strict
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # key -> bytes of the first report seen

    def check(self, outcome: Outcome, facts=()) -> None:
        problems = self._problems(outcome, facts)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((outcome.key, problems))

    def _problems(self, o: Outcome, facts) -> list:
        problems = []
        if o.timed_out:
            problems.append(f"exceeded the {INVOCATION_CAP_S:g} s cap")
        if b"Traceback" in o.err:
            problems.append("traceback on stderr")
        if o.code not in (0, 2):
            problems.append(f"exit code {o.code}")
        want = self.expected.get(o.key)
        if want is not None and (want["exit"] != o.code or want["sha256"] != o.digest):
            problems.append("exit code or report digest differs from the recorded one")
        ref = self.reference.setdefault(o.key, o.out)
        if ref != o.out:
            problems.append("report bytes differ from the first report of this key")
        try:
            report = json.loads(o.out)
        except ValueError:
            return problems + ["report is not JSON"]
        for fact in facts:
            if fact.strict and not self.strict:
                continue
            problem = fact(report)
            if problem:
                problems.append(problem)
        return problems

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_expected(workload) -> dict:
    if workload.seed != DEFAULT_SEED or not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def preset_facts(workload, family: str) -> list:
    """The preset report of an explicit config repeats it verbatim; a preset
    descriptor expands to G = alpha..alpha+m-1."""
    cfg = workload.configs[family]

    def check(report):
        fam = report.get("family", {})
        if "preset" in cfg:
            want_G = list(range(cfg["alpha"], cfg["alpha"] + cfg["m"]))
            if fam.get("G") != want_G or fam.get("alpha") != str(cfg["alpha"]):
                return f"preset expanded to G = {fam.get('G')}"
        elif fam != cfg:
            return "preset report does not repeat the config"
    check.strict = False
    return [check]


# -- untraced run --------------------------------------------------------


def run_job(workload, config_dir: str, tally: Tally, runner, size=None):
    """One job: every invocation of the workload, one after another.
    Returns (wall seconds, largest child max RSS in KiB, outcomes)."""
    wall, rss, outcomes = 0.0, 0, []
    for inv in workload.invocations(size):
        o = runner(inv.key, inv.argv(config_dir))
        tally.check(o, inv.facts)
        wall += o.wall
        rss = max(rss, o.maxrss_kib)
        outcomes.append(o)
    return wall, rss, outcomes


def preset_argv(config_dir: str, family: str) -> list:
    return ["preset", "--config", os.path.join(config_dir, family + ".json")]


def measure_setup(workload, config_dir: str, tally: Tally, spawn: Spawner) -> list:
    fams = workload.setup_families()
    for fam in fams:
        # warm-up: the first run writes src/ bytecode; not a sample
        spawn("warm-up", preset_argv(config_dir, fam))
    samples = []
    for i in range(SETUP_SAMPLES):
        fam = fams[i % len(fams)]
        o = spawn(f"preset --config {fam}", preset_argv(config_dir, fam))
        tally.check(o, preset_facts(workload, fam))
        samples.append(o.wall)
    return samples


def untraced_run(workload, config_dir: str, seconds: float, tally: Tally, spawn: Spawner):
    setup = measure_setup(workload, config_dir, tally, spawn)
    jobs, refs, rss = [], [], []
    start = perf_counter()
    while len(jobs) < MIN_JOBS or perf_counter() - start < seconds:
        wall, peak, _ = run_job(workload, config_dir, tally, spawn)
        jobs.append(wall)
        rss.append(peak / 1024)
        ref = spawn("reference", [], REFERENCE)
        if ref.code != 0:
            raise RuntimeError(f"reference run failed: {ref.err.decode()}")
        refs.append(ref.wall)
    metrics = {"job_rel": min(jobs) / min(refs),
               "setup_s": statistics.median(setup),
               "peak_rss_mib": statistics.median(rss)}
    lines = [
        f"job_rel       {metrics['job_rel']:.4f} ratio  fastest job / fastest reference run",
        f"job_s         {min(jobs):.4f} s    fastest of {len(jobs)} jobs "
        f"(median {statistics.median(jobs):.4f}, max {max(jobs):.4f})",
        f"reference     {min(refs):.4f} s    fastest of {len(refs)} reference runs "
        f"(median {statistics.median(refs):.4f})",
        f"setup_s       {metrics['setup_s']:.4f} s    median of {len(setup)} preset runs "
        f"(min {min(setup):.4f}, max {max(setup):.4f})",
        f"peak_rss_mib  {metrics['peak_rss_mib']:.3f} MiB  median of {len(rss)} jobs",
        "job samples   " + " ".join(f"{t:.4f}" for t in jobs),
    ]
    return metrics, lines


# -- traced run ------------------------------------------------------------


def _bits(v) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def report_bits(out: bytes) -> int:
    return max((int(t).bit_length() for t in re.findall(rb"\d+", out)), default=0)


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x (0 when any y is 0)."""
    if any(y <= 0 for y in ys):
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def traced_job(tracer, workload, config_dir, tally, size=None):
    tracer.begin_job()
    tracer.install()
    try:
        wall, _, outcomes = run_job(workload, config_dir, tally, run_inprocess, size)
    finally:
        tracer.restore()
    return wall, outcomes


def layer_metrics(tracer, job: int, outcomes) -> dict:
    stats = tracer.job_stats(job)
    counters = tracer.counters[job]
    out = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "s", "self_s"):
            out[name] = stats.get(span, {}).get(stat, 0)
    for span, seen in counters["distinct"].items():
        calls = stats.get(span, {}).get("calls", 0)
        out[f"{span}.distinct_ratio"] = len(seen) / calls if calls else 0.0
    out["linalg.solve_linear.max_cells"] = counters["max_cells"]
    out["family.certify_admissible.scan_points"] = counters["scan_points"]
    q_bits = max((_bits(c) for q in counters["q_values"] for c in q.coeffs), default=0)
    out["poly.max_coeff_bits"] = max([q_bits] + [report_bits(o.out) for o in outcomes])
    out["cli.report_bytes"] = sum(len(o.out) for o in outcomes)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            st["self_s"] for span, st in stats.items() if span.startswith(layer + "."))
    return out


def shares(title: str, job_s: float, stats: dict, count: int = 6) -> list:
    """The spans with the largest inclusive time, as shares of a traced job
    (cli.* spans wrap everything and are left out)."""
    ranked = sorted(((st["s"], name) for name, st in stats.items()
                     if not name.startswith("cli.")), reverse=True)[:count]
    return [f"share at {title}: " + ", ".join(
        f"{name} {s / job_s:.0%}" for s, name in ranked)]


def traced_run(workload, config_dir: str, seconds: float, tally: Tally, spawn: Spawner):
    import casolag.cli  # noqa: F401  (run_inprocess finds it in sys.modules)

    # The tally compares every report with the first one of its key: for
    # the job size that comes from real CLI processes, for the ladder sizes
    # from the untraced in-process job.
    run_job(workload, config_dir, tally, spawn)
    tracer = Tracer()
    plain, traced, per_job = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_job(workload, config_dir, tally, run_inprocess)[0])
        wall, outcomes = traced_job(tracer, workload, config_dir, tally)
        traced.append(wall)
        per_job.append(layer_metrics(tracer, tracer.job, outcomes))
    last_job = tracer.job

    metrics = {name: statistics.median(job[name] for job in per_job)
               for name in per_job[0]}
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))

    # size ladder: one untraced and one traced in-process job per size
    sizes = LADDER[workload.name]
    job_times, layer_self = [], {layer: [] for layer in LAYERS}
    for size in sizes:
        job_times.append(run_job(workload, config_dir, tally, run_inprocess, size)[0])
        top_wall, outcomes = traced_job(tracer, workload, config_dir, tally, size)
        m = layer_metrics(tracer, tracer.job, outcomes)
        for layer in layer_self:
            layer_self[layer].append(m[f"layer.{layer}.self_s"])
    metrics["scale.job_exp"] = slope(sizes, job_times)
    for layer, ys in layer_self.items():
        metrics[f"scale.{layer}.self_exp"] = slope(sizes, ys)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.tsv"
    tracer.write_spans(str(spans_path))

    lines = [f"traced {len(traced)} jobs (median {metrics['trace.job_s']:.4f} s), "
             f"untraced in-process median {statistics.median(plain):.4f} s; "
             f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.starts)} spans)"]
    lines += [f"{name:42s} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"ladder {list(sizes)}: in-process job s "
                 + " ".join(f"{t:.4f}" for t in job_times))
    lines += shares(f"job size {JOB_SIZE[workload.name]}", traced[-1], tracer.job_stats(last_job))
    lines += shares(f"ladder top {sizes[-1]}", top_wall, tracer.job_stats(tracer.job))
    return {name: metrics[name] for name in PER_LAYER}, lines


def workload_dir(name: str, seed: int) -> str:
    return os.path.relpath(OUT / f"{name}-{seed}", ROOT)


# -- recording digests ---------------------------------------------------


def record(spawn: Spawner) -> int:
    """Write expected.json: exit code and stdout SHA-256 of every
    invocation of every workload (job size) and of its set-up, for the
    default seed."""
    expected = {}
    for name in WORKLOADS:
        wl = Workload(name)
        config_dir = workload_dir(name, DEFAULT_SEED)
        wl.write_configs(config_dir)
        runs = [(inv.key, inv.argv(config_dir)) for inv in wl.invocations()]
        runs += [(f"preset --config {fam}", preset_argv(config_dir, fam))
                 for fam in wl.setup_families()]
        for key, argv in runs:
            o = spawn(key, argv)
            expected[key] = {"exit": o.code, "sha256": o.digest}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# -- entry point -----------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("ortho", "recur", "probe", "admit"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the default seed and exit")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casolag" / "cli.py").is_file():
        print(f"no casolag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # drawing seeds and --trace 1 import casolag
    os.chdir(ROOT)
    env = environment()
    with Spawner() as spawn:
        if args.record:
            return record(spawn)
        workload = Workload(args.workload, args.seed)
        config_dir = workload_dir(workload.name, workload.seed)
        workload.write_configs(config_dir)
        tally = Tally(load_expected(workload), strict=workload.seed == DEFAULT_SEED)
        if args.trace:
            metrics, lines = traced_run(workload, config_dir, args.seconds, tally, spawn)
            units = PER_LAYER
        else:
            metrics, lines = untraced_run(workload, config_dir, args.seconds, tally, spawn)
            units = END_TO_END
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"loadavg at start {env['loadavg']}")
    print(f"workload {workload.name}, seed {workload.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"fail_share    {tally.fail_share:.6g} ratio  {tally.failed} failed of {tally.attempted} invocations")
    for key, problems in tally.problems:
        print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

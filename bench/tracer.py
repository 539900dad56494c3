"""In-process span tracing of casolag, installed from outside the package.

`Tracer.install()` replaces the public functions of every casolag module,
and the arithmetic and form methods listed in METHODS, with timing wrappers.
casolag modules import names with ``from .x import y``, so each wrapper is
bound into every ``casolag.*`` module attribute (and module-level dict, such
as the CLI's command table) that refers to the original; `restore()` puts
every original back.

A span is (name, start, end, parent span, job).  Spans stay in memory until
`write_spans`.  Per-job statistics are derived from them: inclusive time of
a name counts only spans with no ancestor of the same name, and self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("poly", "parsing", "linalg", "special", "laguerre", "family",
          "forms", "recurrence", "cli")

# scalar coercions called once per coefficient: a wrapper would cost more
# than the work it times, which stays in the caller's self time
SKIP = {"poly.as_rat", "poly.rat_str"}

# (layer, class, method names) -> span name
METHODS = {
    "poly.Poly.mul": ("poly", "Poly", ("__mul__", "__rmul__")),
    "poly.Poly.add_sub": ("poly", "Poly", ("__add__", "__radd__", "__sub__", "__rsub__")),
    "poly.LaurentPoly.mul": ("poly", "LaurentPoly", ("__mul__", "__rmul__")),
    "forms.BilinearForm.inner": ("forms", "BilinearForm", ("inner",)),
    "forms.BilinearForm.corrections": ("forms", "BilinearForm", ("corrections",)),
}

# names whose distinct argument tuples are counted (useful / attempted)
DISTINCT = ("special.gamma_ratio", "laguerre.laguerre", "family.q_poly")


def span_name(layer: str, func: str) -> str:
    if layer == "cli" and func.startswith("cmd_"):
        return "cli.cmd"
    return f"{layer}.{func}"


def _arg_key(args):
    key = []
    for a in args:
        try:
            hash(a)
            key.append(a)
        except TypeError:
            key.append(id(a))
    return tuple(key)


class Tracer:
    """Spans and per-job counters of one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.jobs = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.job = -1
        self.job_first_span = []
        self.counters = []
        self._restore = []

    # -- jobs -----------------------------------------------------------

    def begin_job(self) -> None:
        self.job += 1
        self.job_first_span.append(len(self.starts))
        self.counters.append({"distinct": {n: set() for n in DISTINCT},
                              "q_values": [], "max_cells": 0, "scan_points": 0})

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _hook(self, name: str):
        if name in DISTINCT:
            return lambda args, result: self.counters[-1]["distinct"][name].add(_arg_key(args))
        if name == "linalg.solve_linear":
            def cells(args, result):
                A = args[0]
                c = self.counters[-1]
                c["max_cells"] = max(c["max_cells"], len(A) * (len(A[0]) if A else 0))
            return cells
        if name == "family.certify_admissible":
            def scan(args, result):
                self.counters[-1]["scan_points"] += (
                    result.integer_scan_bound + 1 if result.passed else result.fail_n + 1)
            return scan
        return None

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hook(name)
        collect_q = name == "family.q_poly"
        stack = self._stack
        name_ids, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends = self.starts, self.ends
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            if collect_q:
                tracer.counters[-1]["q_values"].append(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _targets(self):
        """casolag's modules, its public functions as (span name, function),
        and the METHODS to wrap as (span name, class, attribute)."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "casolag" or n.startswith("casolag.")}
        originals = []
        for layer in LAYERS:
            mod = mods[f"casolag.{layer}"]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = span_name(layer, attr)
                    if name not in SKIP:
                        originals.append((name, val))
        methods = []
        for name, (layer, cls_name, attrs) in METHODS.items():
            cls = getattr(mods[f"casolag.{layer}"], cls_name)
            for attr in attrs:
                methods.append((name, cls, attr))
        return mods, originals, methods

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods, originals, methods = self._targets()
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in originals}
        by_id = {id(fn): fn for _, fn in originals}
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is by_id[id(val)]:
                    self._restore.append((mod, attr, val, False))
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if id(item) in wrappers and item is by_id[id(item)]:
                            self._restore.append((val, key, item, True))
                            val[key] = wrappers[id(item)]
        for name, cls, attr in methods:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig, False))
            setattr(cls, attr, self.wrap(name, orig))

    def restore(self) -> None:
        for holder, key, orig, is_item in reversed(self._restore):
            if is_item:
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._restore = []

    # -- statistics -----------------------------------------------------

    def job_stats(self, job: int) -> dict:
        """{span name: {"calls", "s", "self_s"}} for one job."""
        lo = self.job_first_span[job]
        hi = self.job_first_span[job + 1] if job + 1 < len(self.job_first_span) else len(self.starts)
        child = {}
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.ends[i] - self.starts[i]
        stats = {}
        for i in range(lo, hi):
            nid = self.name_ids[i]
            dur = self.ends[i] - self.starts[i]
            st = stats.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += dur - child.get(i, 0.0)
            if not self._has_ancestor(i, nid):
                st["s"] += dur
        return stats

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.name_ids[p] == nid:
                return True
            p = self.parents[p]
        return False

    def write_spans(self, path: str) -> None:
        """Tab-separated spans, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tjob\tparent\tname\tstart\tend\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.jobs[i]}\t{self.parents[i]}\t"
                         f"{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")

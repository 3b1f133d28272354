"""Traced in-process run of one workload pass, for per-layer metrics.

The benchmark starts this script as its own process so that importing
`ctl_lint.cli` is timed from a fresh interpreter.  It then alternates
untraced and traced passes of the workload, each calling `cli.main`
in-process with `--jobs 1` so every call runs in this thread.

Tracing wraps, from outside the program, the module-level names that
`cli`, `engine` and `refine` call (see LAYERS).  Each wrapper records a
span (name, start, end, parent span) in memory; the spans of the last
traced pass are written to a JSON file at the end.  A layer's time is its
self time: the span's duration minus the spans it directly encloses.  A
wrapped name that no longer exists is reported as absent, not as an
error.

Usage (the benchmark passes these):
    traced.py --workload W --corpus DIR --db PATH --pristine-db PATH
              --seed N --seconds S --spans OUT.json --result OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from collections.abc import Iterable

import corpus


def _count(name, fn):
    """A counter callback adding fn(result, args) to counts[name]."""
    def add(counts, result, args):
        counts[name] += fn(result, args)
    return add


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _refine_verdict(counts, result, args):
    counts[f"refine.{result[0]}"] += 1


def _cache_get(counts, result, args):
    counts["engine.cache_hits" if result is not None else "engine.cache_misses"] += 1


# (module, attribute, span name, counter callbacks).  Attributes given as
# "Class.method" wrap the method on the class.
LAYERS = [
    ("ctl_lint.cli", "parse_bytes", "frontend.parse",
     [_count("frontend.files", lambda r, a: 1)]),
    ("ctl_lint.engine", "check_well_formed", "frontend.well_formed", []),
    ("ctl_lint.engine", "build_cfg", "cfg.build",
     [_count("cfg.nodes", lambda r, a: len(r.nodes))]),
    ("ctl_lint.engine", "candidate_variables", "speclang.candidates",
     [_count("speclang.bindings", lambda r, a: len(r))]),
    ("ctl_lint.engine", "instantiate", "speclang.instantiate",
     [_count("speclang.tasks", lambda r, a: len(r))]),
    ("ctl_lint.engine", "check", "ctl.check", [_count("ctl.checks", lambda r, a: 1)]),
    ("ctl_lint.refine", "check", "ctl.check", [_count("ctl.checks", lambda r, a: 1)]),
    ("ctl_lint.engine", "witness", "ctl.witness", []),
    ("ctl_lint.refine", "witness", "ctl.witness", []),
    ("ctl_lint.engine", "refine_diagnostic", "refine.diagnostic", [_refine_verdict]),
    ("ctl_lint.refine", "enumerate_witnesses", "refine.enumerate",
     [_count("refine.witnesses", lambda r, a: len(r[0]))]),
    ("ctl_lint.refine", "path_constraints", "refine.path_constraints", []),
    ("ctl_lint.refine", "feasible", "refine.fm", [_count("refine.fm_calls", lambda r, a: 1)]),
    ("ctl_lint.engine", "interval_analyze", "intervals.analyze",
     [_count("intervals.iterations", lambda r, a: r.iterations)]),
    ("ctl_lint.engine", "interval_checks", "intervals.checks", []),
    ("ctl_lint.engine", "compute_summary", "engine.summary", []),
    ("ctl_lint.engine", "apply_summaries", "engine.apply_summaries", []),
    ("ctl_lint.engine", "call_order", "engine.call_order", []),
    ("ctl_lint.engine", "cache_key", "engine.cache_key", []),
    ("ctl_lint.engine", "_dead_code_diags", "engine.dead_code", []),
    ("ctl_lint.engine", "CacheDb._load", "engine.cache_load", []),
    ("ctl_lint.engine", "CacheDb.get", "engine.cache_get", [_cache_get]),
    ("ctl_lint.engine", "CacheDb.put", "engine.cache_put", []),
    ("ctl_lint.cli", "render_json", "cli.render", []),
]
# counter metric -> the span whose wrapper counts it; reported only if present
COUNTERS = {
    "frontend.files": "frontend.parse", "cfg.nodes": "cfg.build",
    "speclang.bindings": "speclang.candidates", "speclang.tasks": "speclang.instantiate",
    "ctl.checks": "ctl.check", "refine.witnesses": "refine.enumerate",
    "refine.fm_calls": "refine.fm", "refine.confirmed": "refine.diagnostic",
    "refine.unconfirmed": "refine.diagnostic", "refine.suppressed": "refine.diagnostic",
    "intervals.iterations": "intervals.analyze", "engine.cache_hits": "engine.cache_get",
    "engine.cache_misses": "engine.cache_get", "engine.cache_bytes_written": "engine.cache_put",
}


class Tracer:
    """Span recorder; install() wraps every present layer name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def _wrap(self, fn, name, counters):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            for add in counters:
                add(self.counts, result, args)
            return result

        return wrapper

    def _wrap_put(self, fn, name):
        inner = self._wrap(fn, name, [])

        def put(db, *args, **kwargs):
            before = _file_size(db.path)
            result = inner(db, *args, **kwargs)
            self.counts["engine.cache_bytes_written"] += _file_size(db.path) - before
            return result

        return put

    def install(self) -> None:
        for module_name, attr, name, counters in LAYERS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            self.present.add(name)
            wrapped = (self._wrap_put(fn, name) if name == "engine.cache_put"
                       else self._wrap(fn, name, counters))
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo = []

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name] += (end - start - inner) / 1e9
        return dict(out)


def _invoke(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _pass(cli, ns, names: list[str], edit_dir: str) -> tuple[float, list[tuple[int, str]]]:
    """Set up the workload's starting state and run one pass of it.
    Returns the wall seconds spent in `cli.main` and [(exit code, stdout)]."""
    if ns.workload == "cold-corpus":
        if os.path.exists(ns.db):
            os.remove(ns.db)
    else:
        shutil.copyfile(ns.pristine_db, ns.db)
    steps: Iterable = [None]
    if ns.workload == "edit-session":
        steps = corpus.session_steps(ns.corpus, edit_dir, names, ns.seed)
    argv = ["analyze", "--format", "json", "--db", ns.db, "--jobs", "1", *names]
    outputs = []
    wall = 0.0
    for _ in steps:
        os.chdir(edit_dir if ns.workload == "edit-session" else ns.corpus)
        t0 = time.perf_counter()
        outputs.append(_invoke(cli, argv))
        wall += time.perf_counter() - t0
    return wall, outputs


def main() -> int:
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--corpus", "--db", "--pristine-db", "--spans", "--result"):
        p.add_argument(flag, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    ns = p.parse_args()
    names = sorted(n for n in os.listdir(ns.corpus) if n.endswith(".c"))
    edit_dir = os.path.join(os.path.dirname(os.path.abspath(ns.db)), "traced-edit")

    t0 = time.perf_counter()
    from ctl_lint import cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict[str, float]] = []
    outputs = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < ns.seconds:
        wall, out = _pass(cli, ns, names, edit_dir)
        untraced.append(wall)
        outputs.append(out)
        tracer.reset()
        tracer.install()
        try:
            wall, out = _pass(cli, ns, names, edit_dir)
        finally:
            tracer.uninstall()
        traced.append(wall)
        outputs.append(out)
        calls = len(out)
        selfs = tracer.self_times()
        row = {f"{name}_s": selfs.get(name, 0.0) / calls for name in tracer.present}
        row.update({c: tracer.counts[c] / calls for c in COUNTERS
                    if COUNTERS[c] in tracer.present})
        row["trace.unattributed_s"] = (wall - sum(selfs.values())) / calls
        layer_runs.append(row)

    with open(ns.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    calls = len(outputs[-1])
    metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)) / calls
    with open(ns.result, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "absent": sorted(tracer.absent - tracer.present),
                   "passes": len(traced), "outputs": outputs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

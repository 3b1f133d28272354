"""ctl-lint benchmark: seeded MiniC corpus, CLI runs, output checks.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client; every `ctl-lint analyze`
invocation waits for the one before it):

  cold-corpus   every invocation analyzes the whole corpus against an
                empty cache file
  warm-corpus   the cache is primed during set-up, so every function hits
  edit-session  sessions of seeded one-function edits, each followed by a
                whole-corpus run on the same cache file; every session
                starts from the primed cache and a fresh corpus copy

With `--trace 0` the analyzer runs as a subprocess (`--jobs 2`) and the
end-to-end metrics are printed; with `--trace 1` a separate in-process run
(perfbench/traced.py, `--jobs 1`) gives the per-layer metrics.  Either way
every output is checked (perfbench/checks.py) and the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is run from source: `src/` of the checkout this file sits in.
Scratch files go to `.perfbench_work/` there and are removed at exit, except
the spans of the last traced pass (`spans-<workload>.json`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

import checks  # noqa: E402  (these sit next to this file)
import corpus  # noqa: E402

WORKLOADS = ("cold-corpus", "warm-corpus", "edit-session")
JOBS = 2  # the reference machine has 2 CPUs
SETUP_REPEATS = 3
# Cold set-up is only corpus generation, about 10 ms; repeating it for at
# least this long keeps its median from resting on a handful of samples.
SETUP_MIN_S = 1.0
DEADLINE_S = 170.0  # the whole run must end within 180 s
CATALOG = ("null-deref", "memory-leak", "use-after-free", "double-free", "uninit-read",
           "dead-code", "buffer-overrun", "div-by-zero")


@dataclass
class Call:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


class Bench:
    def __init__(self, ns):
        self.ns = ns
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{ns.workload}-{os.getpid()}"
        self.corpus_dir = self.work / "corpus"
        self.db = self.work / "cache.db"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.names: list[str] = []
        self.notes: list[str] = []
        self.prime: Call | None = None  # the priming run of set-up
        self.prime_report: dict | None = None

    # -- running the analyzer

    def timeout(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise TimeoutError(f"the run passed its {DEADLINE_S:.0f} s deadline")
        return left

    def cli(self, args: list[str], cwd: Path) -> Call:
        """One `ctl-lint` subprocess; rusage covers it and its children.
        The report comes through a pipe: truncating a file that holds the
        previous report took about 70 ms on the reference machine."""
        err_path = self.work / "stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ctl_lint.cli", *args],
                                    cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(self.timeout(), proc.kill)
            killer.start()
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.timeout()  # a killed invocation ends the run without a result
        return Call(proc.returncode, out.decode("utf-8"), err_path.read_text("utf-8"),
                    wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def analyze(self, cwd: Path, *flags: str, jobs: int = JOBS) -> Call:
        return self.cli(["analyze", "--format", "json", "--jobs", str(jobs), *flags,
                         *self.names], cwd)

    def record(self, what: str, problems: list[str]) -> None:
        """Count one checked invocation; it fails if any check failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def checked(self, what: str, call: Call, expect: str | None = None,
                extra: tuple[str, ...] = ()) -> dict | None:
        report, problems = checks.report_problems(call.code, call.stdout, call.stderr)
        if expect is not None and call.stdout != expect:
            problems.append("JSON differs from the --no-cache --jobs 1 report")
        self.record(what, problems + list(extra))
        return report

    # -- set-up

    def setup(self) -> float:
        """Generate the corpus (and prime the cache); the median of at
        least SETUP_REPEATS repeats spanning at least SETUP_MIN_S."""
        self.cli(["--list-checks"], ROOT)  # compile bytecode before timing
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            # deleting the previous repeat's files is left untimed: on the
            # reference machine an unlink of written-back data took ~10 ms
            shutil.rmtree(self.corpus_dir, ignore_errors=True)
            self.db.unlink(missing_ok=True)
            t0 = time.perf_counter()
            files = corpus.generate(self.ns.seed)
            corpus.write_corpus(files, str(self.corpus_dir))
            self.names = [name for name, _ in files]
            if self.ns.workload != "cold-corpus":
                self.prime = self.analyze(self.corpus_dir, "--db", str(self.db))
            times.append(time.perf_counter() - t0)
        lines = sum(text.count("\n") for _, text in files)
        self.notes.append(f"corpus seed {self.ns.seed}: md5 {corpus.corpus_md5(files)}, "
                          f"{len(files)} files, {lines} lines")
        if self.ns.workload != "cold-corpus":
            shutil.copyfile(self.db, self.work / "primed.db")
        return statistics.median(times)

    def reference(self) -> str:
        """Check the sources the workload ends with; returns the
        --no-cache --jobs 1 report every cached run must equal byte for
        byte.  For edit-session that is the corpus after the whole plan."""
        cwd = self.corpus_dir
        if self.ns.workload == "edit-session":
            cwd = self.work / "final"
            for _ in corpus.session_steps(str(self.corpus_dir), str(cwd), self.names,
                                          self.ns.seed):
                pass
        ref = self.analyze(cwd, "--no-cache", jobs=1)
        ref_report = self.checked("--no-cache --jobs 1 run", ref)
        unrefined = self.analyze(cwd, "--no-cache", "--max-witnesses", "0", jobs=1)
        unref_report, problems = checks.report_problems(
            unrefined.code, unrefined.stdout, unrefined.stderr)
        if ref_report is not None and unref_report is not None:
            problems += checks.monotonicity_problems(ref_report, unref_report)
            events, spans, errors = checks.observe(str(cwd), self.names, self.ns.seed)
            missed = checks.unmatched(events, spans, unref_report)
            problems += errors + missed
            dropped = checks.unmatched(events, spans, ref_report)
            self.notes.append(
                f"oracle: {len(events)} interpreter events; unmatched: {len(missed)} at "
                f"--max-witnesses 0, {len(dropped)} in the default run; findings: "
                f"{len(ref_report['diagnostics'])}, {len(unref_report['diagnostics'])} "
                f"at --max-witnesses 0")
            # the corpus plants every kind of finding and exclusive guards
            fired = {d["check"] for d in ref_report["diagnostics"]}
            missing = sorted(set(CATALOG) - fired)
            if missing:
                problems.append(f"planted findings never reported: {', '.join(missing)}")
            if len(unref_report["diagnostics"]) <= len(ref_report["diagnostics"]):
                problems.append("refinement suppressed no finding of the corpus")
        self.record("--max-witnesses 0 run", problems)
        if self.ns.workload == "warm-corpus":
            self.checked("priming run", self.prime, ref.stdout)
        elif self.ns.workload == "edit-session":
            self.prime_report = self.checked("priming run", self.prime)
        return ref.stdout

    # -- workloads

    def run_cold(self, ref: str) -> list[Call]:
        calls = []
        sizes = []
        end = time.perf_counter() + self.ns.seconds
        while not calls or time.perf_counter() < end:
            if self.db.exists():
                self.db.unlink()
            call = self.analyze(self.corpus_dir, "--db", str(self.db))
            sizes.append(self.db.stat().st_size)
            extra = () if sizes[-1] == sizes[0] else (
                f"cache file {sizes[-1]} bytes, the first run wrote {sizes[0]}",)
            self.checked("cold run", call, ref, extra)
            calls.append(call)
        self.cache_bytes = sizes[-1]
        return calls

    def run_warm(self, ref: str) -> list[Call]:
        calls = []
        end = time.perf_counter() + self.ns.seconds
        while not calls or time.perf_counter() < end:
            call = self.analyze(self.corpus_dir, "--db", str(self.db))
            self.checked("warm run", call, ref)
            calls.append(call)
        self.cache_bytes = self.db.stat().st_size
        return calls

    def run_edits(self, ref: str) -> list[Call]:
        edit_dir = self.work / "edit"
        plan_len = len(corpus.edit_plan(self.ns.seed))
        calls = []
        sessions: list[list[str]] = []
        sizes = []
        end = time.perf_counter() + self.ns.seconds
        while not sessions or time.perf_counter() < end:
            shutil.copyfile(self.work / "primed.db", self.db)
            before = checks.by_file(self.prime_report) if self.prime_report else {}
            outs = []
            for step, edited in corpus.session_steps(
                    str(self.corpus_dir), str(edit_dir), self.names, self.ns.seed):
                call = self.analyze(edit_dir, "--db", str(self.db))
                calls.append(call)
                outs.append(call.stdout)
                report, problems = checks.report_problems(call.code, call.stdout, call.stderr)
                if report is not None:
                    after = checks.by_file(report)
                    changed = [n for n in self.names
                               if n not in edited and after.get(n, []) != before.get(n, [])]
                    if changed:
                        problems.append(f"editing {', '.join(edited)} changed the findings "
                                        f"of {', '.join(changed[:3])}")
                    before = after
                if sessions and call.stdout != sessions[0][step]:
                    problems.append("differs from the same edit in the first session")
                if step == plan_len - 1:
                    if call.stdout != ref:
                        problems.append("JSON differs from the --no-cache --jobs 1 report")
                    sizes.append(self.db.stat().st_size)
                    if sizes[-1] != sizes[0]:
                        problems.append(f"session ended with a {sizes[-1]}-byte cache, "
                                        f"the first with {sizes[0]}")
                self.record(f"edit step {step}", problems)
            sessions.append(outs)
        self.cache_bytes = sizes[-1]
        self.notes.append(f"{len(sessions)} sessions of {plan_len} steps, each editing "
                          f"{len(corpus.STEP_MIX)} files ({', '.join(corpus.STEP_MIX)})")
        return calls

    # -- traced run

    def run_traced(self, ref: str) -> dict:
        """Per-layer metrics from perfbench/traced.py; its outputs are
        checked here like any other invocation's."""
        result_path = self.work / "traced.json"
        spans_path = ROOT / ".perfbench_work" / f"spans-{self.ns.workload}.json"
        cmd = [sys.executable, str(HERE / "traced.py"), "--workload", self.ns.workload,
               "--corpus", str(self.corpus_dir), "--db", str(self.work / "traced.db"),
               "--pristine-db", str(self.work / "primed.db"), "--seed", str(self.ns.seed),
               "--seconds", str(self.ns.seconds), "--spans", str(spans_path),
               "--result", str(result_path)]
        subprocess.run(cmd, cwd=ROOT, env=self.env, check=True, timeout=self.timeout())
        result = json.loads(result_path.read_text("utf-8"))
        passes = result["outputs"]
        for p, outputs in enumerate(passes):
            for i, (code, stdout) in enumerate(outputs):
                _, problems = checks.report_problems(code, stdout, "")
                if stdout != passes[0][i][1]:
                    problems.append("differs from the first (untraced) in-process pass")
                if i == len(outputs) - 1 and stdout != ref:
                    problems.append("JSON differs from the --no-cache --jobs 1 report")
                self.record(f"in-process pass {p} call {i}", problems)
        for name in result["absent"]:
            self.notes.append(f"absent layer: {name} (wrapped name not found)")
        self.notes.append(f"traced run: {result['passes']} untraced/traced pass pairs")
        return result["metrics"]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="ctl-lint benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not (SRC / "ctl_lint" / "cli.py").is_file() or not (TESTS / "minic_interp.py").is_file():
        print(f"perfbench: no ctl-lint sources under {ROOT} (need src/ctl_lint and "
              f"tests/minic_interp.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]  # the oracle imports from the checkout

    bench = Bench(ns)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = bench.setup()
        ref = bench.reference()
        if ns.trace:
            layer = bench.run_traced(ref)
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in sorted(layer.items())}
        else:
            runner = {"cold-corpus": bench.run_cold, "warm-corpus": bench.run_warm,
                      "edit-session": bench.run_edits}[ns.workload]
            calls = runner(ref)
            walls = sorted(c.wall_s for c in calls)
            bench.notes.append(f"{len(calls)} measured invocations; wall s min {walls[0]:.4f}, "
                               f"median {statistics.median(walls):.4f}, max {walls[-1]:.4f}")
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "analyze_s": {"value": statistics.median(c.wall_s for c in calls), "unit": "s"},
                "cpu_s": {"value": statistics.median(c.cpu_s for c in calls), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(c.rss_mb for c in calls),
                                "unit": "MiB"},
                "cache_bytes": {"value": bench.cache_bytes, "unit": "bytes"},
            }
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for note in bench.notes:
        print(note)
    for problem in bench.problems[:20]:
        print("FAIL", problem, file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

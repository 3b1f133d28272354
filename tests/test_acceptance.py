"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with `pytest -s` or `-rA`)
and enforces its stated tolerance; timing limits are asserted, not
advisory.  Criterion 8's scaling half needs at least 4 CPUs and is skipped
with an explicit reason on smaller machines; the functional equivalence of
the parallel path is asserted regardless.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from ctl_lint import frontend as F
from ctl_lint.cache import file_key
from ctl_lint.cfg import build_cfg
from ctl_lint.cli import _available_cpus, main as cli_main, pool_workers
from ctl_lint.ctl import EF, EU, EX, And, Not, Or, Prop, check, is_witnessable, witness
from ctl_lint.engine import CacheDb, Counters, EngineConfig, analyze_unit
from ctl_lint.intervals import analyze as interval_analyze, iteration_cap
from ctl_lint.speclang import CheckTask, load_checkset
from fixtures_bugs import ALIASING_SRC, FIXTURES
from minic_interp import Interpreter, StepBudgetExceeded
from oracle_ctl import (
    edge_valid, kripke, random_formula, random_kripke, sat_oracle, trace_demonstrates,
)
from program_gen import ProgramGen, generate_program
from syntax_helpers import parse_check
from unit_results import diagnostics_of

CHECKS, BUILTIN_TEXT = load_checkset()


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num} PASS: {label}")


def test_criterion_1_ctl_oracle_equivalence():
    with criterion(1, "CTL checker agrees with the brute-force oracle"):
        rng = random.Random(10_001)
        start = time.perf_counter()
        pairs = 0
        for _ in range(1000):
            k = random_kripke(rng, max_states=8)
            f = random_formula(rng, depth=3)
            sat = check(k, f)
            memo: dict = {}
            for s in range(k.n):
                assert sat.holds(f, s) == sat_oracle(k, f, s, memo), \
                    (f, s, k.succ, k.props)
                pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs > 1000
        assert elapsed < 60, f"corpus took {elapsed:.1f}s"


def test_criterion_2_witness_validity():
    with criterion(2, "every satisfied existential formula yields a valid witness"):
        rng = random.Random(10_001)  # the same corpus as criterion 1
        validated = 0
        for _ in range(1000):
            k = random_kripke(rng, max_states=8)
            f = random_formula(rng, depth=3)
            if not is_witnessable(f):
                continue
            sat = check(k, f)
            for s in range(k.n):
                if not sat.holds(f, s):
                    assert witness(k, f, s, sat) is None
                    continue
                w = witness(k, f, s, sat)
                assert w is not None and w[0] == s
                assert edge_valid(k, w), (f, w)
                assert trace_demonstrates(k, f, w), (f, w)
                validated += 1
        assert validated > 500


def _interval_corpus():
    for seed in range(500):
        yield seed, generate_program(seed)


def test_criterion_3_and_4_interval_soundness_and_termination():
    with criterion(3, "concrete runs stay inside computed intervals (500 programs)"):
        violations = []
        analysis_time = 0.0
        caps_ok = True
        for seed, src in _interval_corpus():
            tu = F.parse(src, f"s{seed}.c")
            assert F.check_well_formed(tu) == []
            cfgs = {f.name: build_cfg(f, tu.globals) for f in tu.functions}
            t0 = time.perf_counter()
            results = {}
            for name, cfg in cfgs.items():
                r = interval_analyze(cfg)  # raises on cap violation
                caps_ok &= r.iterations <= iteration_cap(
                    len(cfg.nodes), 64, len(cfg.loop_heads))
                results[name] = r
            analysis_time += time.perf_counter() - t0

            def observer(fn, node, snapshot):
                env = results[fn].at(node)
                if env.is_bottom:
                    violations.append((seed, fn, node, "unreachable-but-hit"))
                    return
                for var, val in snapshot.items():
                    if not env.get(var).contains(val):
                        violations.append((seed, fn, node, var, val))

            interp = Interpreter(tu, observer=observer)
            rng = random.Random(seed)
            for f in tu.functions:
                for _ in range(2):
                    interp.run(f.name, tuple(rng.randint(-8, 8) for _ in f.params))
        assert violations == [], violations[:5]
        assert analysis_time < 30, f"analysis took {analysis_time:.1f}s"
    with criterion(4, "widening reaches fixpoint within the iteration cap"):
        assert caps_ok


def _analyze_fixture(fixture, max_witnesses=5):
    tu = F.parse(fixture.source, f"{fixture.name}.c")
    config = EngineConfig(checkset_text="builtin", max_witnesses=max_witnesses)
    return diagnostics_of(tu, analyze_unit(tu, CHECKS, None, config))


def test_criterion_5_seeded_bug_corpus():
    with criterion(5, "seeded-bug corpus: full recall, no confirmed false positives"):
        assert len(FIXTURES) >= 36
        per_check_pos: dict[str, int] = {}
        per_check_neg: dict[str, int] = {}
        failures = []
        for fixture in FIXTURES:
            diags = _analyze_fixture(fixture)
            reported = {d.check_id for d in diags}
            confirmed = {d.check_id for d in diags if d.confidence == "confirmed"}
            for check_id in fixture.must:
                per_check_pos[check_id] = per_check_pos.get(check_id, 0) + 1
                if check_id not in reported:
                    failures.append((fixture.name, "missed", check_id))
            for check_id in fixture.clean:
                per_check_neg[check_id] = per_check_neg.get(check_id, 0) + 1
                if check_id in confirmed:
                    failures.append((fixture.name, "confirmed-false-positive", check_id))
        assert failures == [], failures
        for check_id in ("null-deref", "memory-leak", "use-after-free",
                         "double-free", "uninit-read", "dead-code",
                         "buffer-overrun", "div-by-zero"):
            assert per_check_pos.get(check_id, 0) >= 3, f"need 3 positives for {check_id}"
            assert per_check_neg.get(check_id, 0) >= 3, f"need 3 negatives for {check_id}"
        # the canonical infeasible-guard fixture yields nothing confirmed
        infeasible = next(f for f in FIXTURES if f.name == "df-infeasible-guards")
        diags = _analyze_fixture(infeasible)
        assert not [d for d in diags if d.check_id == "double-free"
                    and d.confidence == "confirmed"]


_EVENT_TO_CHECK = {
    "double-free": "double-free",
    "use-after-free": "use-after-free",
    "null-deref": "null-deref",
    "uninit-read": "uninit-read",
    "buffer-overrun": "buffer-overrun",
    "div-by-zero": "div-by-zero",
    "leak": "memory-leak",
}


def test_criterion_6_suppression_soundness():
    with criterion(6, "no runtime-realizable bug is suppressed by refinement"):
        checked_events = 0
        for fixture in [f for f in FIXTURES if f.oracle_args is not None]:
            diags = _analyze_fixture(fixture, max_witnesses=300)
            tu = F.parse(fixture.source, f"{fixture.name}.c")
            for args in fixture.oracle_args:
                interp = Interpreter(tu)
                interp.run(fixture.entry, args)
                for event in interp.events:
                    if event.kind not in _EVENT_TO_CHECK or event.function != fixture.entry:
                        continue
                    assert _matching(diags, event), (fixture.name, args, event)
                    checked_events += 1
        assert checked_events >= 5


def _matching(diags, event) -> list:
    """The findings that report `event`: same function and check, and the
    event's variable named in the message."""
    check_id = _EVENT_TO_CHECK[event.kind]
    matching = [d for d in diags if d.check_id == check_id and d.function == event.function]
    if event.var is not None:
        matching = [d for d in matching if f"'{event.var}'" in d.message
                    or d.check_id in ("buffer-overrun", "div-by-zero")]
    return matching


def test_default_budget_reports_every_observed_bug():
    # criterion 6 at the CLI's default witness budget: a finding whose
    # witness search was cut short by the budget is unconfirmed, never
    # suppressed, so every bug the interpreter observes is still reported
    sources = ([(f"{fx.name}.c", fx.source) for fx in FIXTURES]
               + [(f"gen{seed}.c", generate_program(seed)) for seed in range(50)])
    events, unmatched, looping = 0, [], set()
    for name, source in sources:
        tu = F.parse(source, name)
        diags = diagnostics_of(tu, analyze_unit(tu, CHECKS, None,
                                                EngineConfig(checkset_text="builtin")))
        for seed in (0, 1):
            rng = random.Random(f"{seed}:{name}")
            for f in [f for f in tu.functions if all(isinstance(p.type, F.Int) for p in f.params)]:
                for _ in range(4):
                    args = tuple(rng.randint(-8, 8) for _ in f.params)
                    # a run still going after 50,000 steps loops forever on these
                    # arguments and never reaches the events after its loop
                    interp = Interpreter(tu, step_budget=50_000)
                    try:
                        interp.run(f.name, args)
                    except StepBudgetExceeded:
                        looping.add((name, f.name))
                        continue
                    for event in interp.events:
                        if event.kind in _EVENT_TO_CHECK and event.function == f.name:
                            events += 1
                            if not _matching(diags, event):
                                unmatched.append((name, args, event))
    assert looping == {("dead-none-after-loop.c", "f")}
    assert events > 2000 and unmatched == []


def test_a_write_through_an_alias_keeps_its_bugs():
    # g(&x) and *q = 1 set x to 1, so p is freed twice; refinement must let
    # a call or a pointer write change x, or it suppresses both findings
    tu = F.parse(ALIASING_SRC, "alias.c")
    record = analyze_unit(tu, CHECKS, None, EngineConfig(checkset_text="builtin"))
    diags = diagnostics_of(tu, record)
    reported = {(d.function, d.check_id) for d in diags
                if "'p'" in d.message and d.confidence == "confirmed"}
    observed = set()
    for name in ("f", "h"):
        interp = Interpreter(tu)
        interp.run(name, ())
        for event in interp.events:
            assert event.var == "p" and _matching(diags, event), event
            observed.add((event.function, _EVENT_TO_CHECK[event.kind]))
    assert reported == observed == {(f, c) for f in ("f", "h")
                                    for c in ("double-free", "use-after-free")}


DETERMINISM_SRC = """\
int helper(int *q) { free(q); return 0; }

int compute(int n) {
  int total = 0;
  int i;
  for (i = 0; i < n; i++) { total = total + i; }
  return total;
}

int f(int c) {
  int *p = malloc(4);
  helper(p);
  free(p);
  int x;
  if (c) { x = compute(c); }
  return x;
}
"""


def test_criterion_7_determinism_and_cache_transparency(tmp_path, capsys):
    with criterion(7, "cold/warm/jobs runs produce byte-identical JSON"):
        src_path = tmp_path / "d.c"
        src_path.write_text(DETERMINISM_SRC)
        db = tmp_path / "d.db"

        def run_json(*extra):
            code = cli_main(["analyze", "--format", "json", "--db", str(db),
                             *extra, str(src_path)])
            out = capsys.readouterr().out
            return code, out

        code_cold, cold = run_json("--jobs", "1")
        code_warm, warm = run_json("--jobs", "1")
        code_j8, jobs8 = run_json("--jobs", "8")
        db_off = tmp_path / "off"
        code_nc = cli_main(["analyze", "--format", "json", "--no-cache",
                            "--jobs", "8", str(src_path)])
        nocache = capsys.readouterr().out
        assert cold == warm == jobs8 == nocache
        assert code_cold == code_warm == code_j8 == code_nc == 1
        json.loads(cold)  # must be strict JSON

        # warm text run reports 100% cache hits on stderr
        cli_main(["analyze", "--db", str(db), str(src_path)])
        err = capsys.readouterr().err
        assert "cache hits: 100%" in err

        # an edit re-analyzes only the edited function plus summary-dependent
        # callers; each call opens the store afresh, as a CLI run does
        config = EngineConfig(checkset_text=BUILTIN_TEXT, max_witnesses=5)

        def analyze_stored(src, counters=None):
            db2 = CacheDb(str(tmp_path / "e.db"))
            record = analyze_unit(F.parse(src, "d.c"), CHECKS, db2, config, counters)
            db2.put(file_key("d.c", config.checkset_text, config.max_witnesses), record)

        analyze_stored(DETERMINISM_SRC)
        edited = DETERMINISM_SRC.replace("total + i", "total + i + 0")
        c = Counters()
        analyze_stored(edited, c)
        assert c.cache_misses == 1 and c.cache_hits == 2  # compute only

        edited2 = DETERMINISM_SRC.replace("{ free(q); return 0; }", "{ return 0; }")
        c2 = Counters()
        analyze_stored(edited2, c2)
        # helper changed and f depends on helper's summary; compute stays cached
        assert c2.cache_misses == 2 and c2.cache_hits == 1


def _throughput_tasks() -> list[CheckTask]:
    rng = random.Random(880)
    spec = parse_check("""
check t { severity: info forall $v: any
  label p := use($v)
  label q := assign_to($v)
  label r := free_of($v)
  property: EF p
}""")
    props = ("p", "q", "r")

    def rand_kripke(n):
        succ = []
        for s in range(n):
            outs = sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))})
            succ.append(outs)
        labels = [frozenset(x for x in props if rng.random() < 0.25) for _ in range(n)]
        return kripke(succ, labels)

    P, Q, R = Prop("p"), Prop("q"), Prop("r")
    base_shapes = [
        lambda a, b, c: EF(And(a, EX(EU(Not(b), c)))),
        lambda a, b, c: EF(And(c, EX(EU(Not(Or(a, b)), c)))),
        lambda a, b, c: EU(Not(b), a),
        lambda a, b, c: EF(And(a, EX(EU(Not(b), And(c, EX(EU(Not(a), b))))))),
        lambda a, b, c: EF(Or(a, And(b, EX(c)))),
    ]
    specs = []
    import itertools
    for shape, (a, b, c) in itertools.product(base_shapes,
                                              itertools.permutations((P, Q, R))):
        specs.append(spec._replace(prop=shape(a, b, c)))
    kripkes = [rand_kripke(rng.randint(50, 200)) for _ in range(500)]
    tasks = []
    for i in range(10_000):
        tasks.append(CheckTask(specs[i % len(specs)], "x", kripkes[i % len(kripkes)]))
    return tasks


def test_criterion_8_many_small_tasks_throughput(tmp_path, capsys):
    with criterion(8, "10,000 small tasks complete in under 10s single-threaded"):
        tasks = _throughput_tasks()
        t0 = time.perf_counter()
        holding = sum(check(t.kripke, t.check.prop).holds(t.check.prop, 0) for t in tasks)
        single = time.perf_counter() - t0
        assert single < 10, f"single-threaded run took {single:.2f}s"
        assert 0 < holding < len(tasks)

    with criterion(8, "--jobs 4 reports what --jobs 1 reports"):
        paths = _write_corpus(tmp_path, 32)

        def run(jobs):
            capsys.readouterr()  # drop the PASS line printed above
            t0 = time.perf_counter()
            code = cli_main(["analyze", "--format", "json", "--no-cache",
                             "--jobs", jobs, *paths])
            return code, capsys.readouterr().out, time.perf_counter() - t0

        code1, out1, one = run("1")
        code4, out4, quad = run("4")
        assert (code4, out4) == (code1, out1)  # scheduling never changes results
        # enough source for four workers, so a host with 4 CPUs measures four
        source_bytes = sum(os.path.getsize(p) for p in paths)
        assert pool_workers(4, len(paths), source_bytes) == 4, source_bytes

    cpus = _available_cpus()
    if cpus < 4:
        pytest.skip(
            f"scaling measurement needs >= 4 CPUs, this machine has {cpus}; "
            f"single-threaded {single:.2f}s, CLI --jobs 1 {one:.2f}s, --jobs 4 "
            f"{quad:.2f}s (functional equivalence asserted above)")
    with criterion(8, "4-worker run is at least 2.5x faster"):
        assert one / quad >= 2.5, \
            f"speedup {one / quad:.2f}x below the 2.5x floor"


def test_criterion_9_end_to_end_corpus(tmp_path, capsys):
    with criterion(9, "10,000-line corpus analyzes cold in under 30s"):
        paths = _write_corpus(tmp_path, 100)
        total_lines = sum(Path(p).read_text().count("\n") for p in paths)
        assert total_lines >= 10_000, total_lines

        db = tmp_path / "corpus.db"
        t0 = time.perf_counter()
        code = cli_main(["analyze", "--format", "json", "--db", str(db), *paths])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert elapsed < 30, f"cold corpus run took {elapsed:.1f}s"
        assert code == (1 if obj["diagnostics"] else 0)  # the exit-code law
        assert obj["summary"]["tasks"] > 0

        # warm rerun is identical, satisfying the law again
        code2 = cli_main(["analyze", "--format", "json", "--db", str(db), *paths])
        out2 = capsys.readouterr().out
        assert out2 == out and code2 == code


def _write_corpus(directory, files: int) -> list[str]:
    """Write the first `files` files of the criterion-9 corpus, about one
    hundred generated lines each; returns their paths."""
    paths = []
    seed = 0
    for i in range(files):
        lines = 0
        chunks = []
        while lines < 100:
            chunk = ProgramGen(7_000 + seed, max_funcs=2, stmt_budget=12).unit()
            seed += 1
            chunks.append(chunk)
            lines += chunk.count("\n")
        path = directory / f"corpus_{i:03d}.c"
        path.write_text(_merge_units(chunks, i))
        paths.append(str(path))
    return paths


def _merge_units(chunks: list[str], file_index: int) -> str:
    """Concatenate generated units, renaming to keep identifiers unique."""
    merged = []
    for j, chunk in enumerate(chunks):
        suffix = f"_{file_index}_{j}"
        import re
        renamed = re.sub(r"\b([fgvapcdiruwx]|arr|g)(\d+)\b",
                         lambda m: f"{m.group(1)}{m.group(2)}{suffix}", chunk)
        merged.append(renamed)
    return "\n".join(merged)

"""Correctness checks on ctl-lint JSON reports.

Nothing here compares against a stored copy of earlier output.  The checks
are properties the method must have, plus one computation made outside
the analyzer:

- the exit-code law: 1 when the report has diagnostics, else 0, and no
  traceback;
- summary counts: the per-severity counters equal the counts recomputed
  from `diagnostics`;
- refinement monotonicity: every finding of a default run also appears in
  a `--max-witnesses 0` run of the same sources, because refinement only
  removes or confirms findings;
- the concrete-interpreter oracle: each generated function whose
  parameters are all `int` runs on seeded arguments in the test suite's
  MiniC interpreter, and every bug event it observes in that function
  needs a matching finding of the `--max-witnesses 0` run (acceptance
  criterion 6's matching rule).

Byte-identity across cache states and worker counts is checked by the
caller, which compares report texts directly.
"""

from __future__ import annotations

import json
import os
import random
from collections import defaultdict

# interpreter event kind -> check id (acceptance criterion 6's table)
EVENT_TO_CHECK = {
    "double-free": "double-free",
    "use-after-free": "use-after-free",
    "null-deref": "null-deref",
    "uninit-read": "uninit-read",
    "buffer-overrun": "buffer-overrun",
    "div-by-zero": "div-by-zero",
    "leak": "memory-leak",
}
# checks whose messages name no variable
_UNNAMED = ("buffer-overrun", "div-by-zero")
ORACLE_RUNS_PER_FUNCTION = 4


def report_problems(code: int, stdout: str, stderr: str) -> tuple[dict | None, list[str]]:
    """Parse one JSON-mode invocation and check the exit-code law and the
    summary counts.  Returns (report or None, problems)."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON ({exc}); exit code {code}; "
                        f"stderr {stderr.strip()[-200:]!r}")
        return None, problems
    want = 1 if report["diagnostics"] else 0
    if code != want:
        problems.append(f"exit code {code}, expected {want}")
    counts = {"error": 0, "warning": 0, "info": 0}
    for d in report["diagnostics"]:
        counts[d["severity"]] += 1
    for severity, n in counts.items():
        if report["summary"][severity] != n:
            problems.append(f"summary says {report['summary'][severity]} {severity}s, "
                            f"diagnostics hold {n}")
    return report, problems


def _key(d: dict) -> tuple:
    # the anchor line may differ between a refined and an unrefined trace of
    # one finding, so a finding is identified by what it says and where
    return d["check"], d["severity"], d["file"], d["message"]


def monotonicity_problems(default: dict, unrefined: dict) -> list[str]:
    """Findings of the default run missing from the --max-witnesses 0 run."""
    extra = {_key(d) for d in default["diagnostics"]} - {_key(d) for d in unrefined["diagnostics"]}
    return [f"refinement added a finding: {k}" for k in sorted(extra)]


def by_file(report: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for d in report["diagnostics"]:
        out[d["file"]].append(d)
    return out


def observe(corpus_dir: str, names: list[str], seed: int) -> tuple[list, dict, list[str]]:
    """Run every all-int-parameter function on seeded arguments in the
    concrete interpreter.  Returns the bug events it observes in the
    function run, as (file, function, args, event); each file's function
    line spans; and interpreter errors."""
    from ctl_lint import frontend
    from minic_interp import InterpError, Interpreter

    events = []
    spans = {}
    errors = []
    for name in names:
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
            tu = frontend.parse(fh.read(), name)
        spans[name] = [(f.loc.line, f.end_loc.line, f.name) for f in tu.functions]
        rng = random.Random(f"{seed}:{name}")
        for f in tu.functions:
            if not all(isinstance(p.type, frontend.Int) for p in f.params):
                continue  # pointer parameters are exercised through callers
            for _ in range(ORACLE_RUNS_PER_FUNCTION):
                args = tuple(rng.randint(-8, 8) for _ in f.params)
                interp = Interpreter(tu)
                try:
                    interp.run(f.name, args)
                except InterpError as exc:
                    errors.append(f"{name}: {f.name}{args}: interpreter error {exc}")
                    continue
                events.extend((name, f.name, args, e) for e in interp.events
                              if e.kind in EVENT_TO_CHECK and e.function == f.name)
    return events, spans, errors


def unmatched(events: list[tuple], spans: dict, report: dict) -> list[str]:
    """Events without a matching finding in `report`: same function and
    check, and the event's variable named in the message."""
    per_function: dict[tuple[str, str | None], list[dict]] = defaultdict(list)
    for d in report["diagnostics"]:
        owner = next((fn for lo, hi, fn in spans.get(d["file"], ())
                      if lo <= d["line"] <= hi), None)
        per_function[d["file"], owner].append(d)
    out = []
    for name, function, args, event in events:
        check_id = EVENT_TO_CHECK[event.kind]
        matching = [d for d in per_function[name, function] if d["check"] == check_id]
        if event.var is not None and check_id not in _UNNAMED:
            matching = [d for d in matching if f"'{event.var}'" in d["message"]]
        if not matching:
            out.append(f"{name}:{event.loc.line}: {function}{args}: "
                       f"{event.kind} of {event.var!r} has no finding")
    return out

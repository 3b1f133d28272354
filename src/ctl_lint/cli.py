"""Command-line interface and report rendering.

Exit codes: 0 when no diagnostics were rendered, 1 when at least one was,
2 on usage, parse, spec or I/O errors and on internal errors, so that a
crash never reads as "findings".  Severity and check-id filters are
applied at render time only; the analysis itself always runs the whole
active check set so cache entries stay filter-independent.

This process answers the files that hit the cache and maps the others over
at most `--jobs` workers, one per missed file and per `POOL_BYTES` of their
source, or analyzes them itself when that allows fewer than two.  Workers
only read the cache; this process writes it, in input order, and compacts it.

A run whose files all hit imports `cache`, `diagnostics` and `frontend`
besides this module, and no analysis module: the file keys hash the text of
the check set, which is read but not parsed.  The check set is parsed, and
`engine` imported with the modules it uses, only when a file misses (before
any pool forks, so workers inherit them), for `--checks`, `--dump-cfg` and
`--list-checks`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING

from .cache import CacheDb, file_key, unpack_function
from .diagnostics import AnalysisError, Counters, Diagnostic, EngineConfig, read_checkset
from .diagnostics import diagnostic_to_json_obj, meets_min_severity
from .frontend import LocatedError, functions_at, parse_bytes, source_digest

if TYPE_CHECKING:
    from .speclang import CheckSpec

DEFAULT_DB = ".ctl-lint.db"
DB_ENV_VAR = "CTL_LINT_DB"
POOL_BYTES = 16 * 1024  # missed source per worker: less is cheaper in-process

_USAGE = """\
usage: ctl-lint analyze [options] FILE...
       ctl-lint --list-checks [--specs FILE.chk]...

options:
  --checks a,b,c        render only these check ids
  --format text|json    report format (default text)
  --db PATH             cache database path (default .ctl-lint.db,
                        overridable via CTL_LINT_DB)
  --no-cache            do not read or write the cache database
  --max-witnesses N     counterexamples examined per diagnostic (default 5)
  --min-severity S      error|warning|info rendering threshold (default info)
  --jobs N              at most N worker processes for the files the cache
                        misses (default: the CPUs this process may run on)
  --dump-cfg            print each function's CFG as DOT and exit
  --specs FILE.chk      extra check specifications (repeatable)
"""


def render_text(ds: list[Diagnostic]) -> str:
    """Compiler-style lines, one per diagnostic, plus indented traces."""
    lines = []
    for d in ds:
        lines.append(f"{d.loc.file}:{d.loc.line}:{d.loc.column}: {d.severity} "
                     f"[{d.check_id}] {d.message} ({d.confidence})")
        if d.trace:
            lines.append("  trace: " + " -> ".join(f"{t.line}:{t.column}" for t in d.trace))
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(ds: list[Diagnostic], counters: Counters) -> str:
    """Canonical JSON report; byte-identical for identical sources and
    config regardless of cache state or worker count."""
    obj = {
        "version": "1",
        "diagnostics": [diagnostic_to_json_obj(d) for d in ds],
        "summary": {
            "error": sum(1 for d in ds if d.severity == "error"),
            "warning": sum(1 for d in ds if d.severity == "warning"),
            "info": sum(1 for d in ds if d.severity == "info"),
            "tasks": counters.content_tasks,
            # content view: what a fresh run reports; live hit-rate is in
            # the stderr summary
            "cache_hits": 0,
        },
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def render_summary(ds: list[Diagnostic], counters: Counters, cached: bool) -> str:
    """The stderr summary; `cached` tells whether a cache store was in use."""
    errors = sum(1 for d in ds if d.severity == "error")
    warnings = sum(1 for d in ds if d.severity == "warning")
    infos = sum(1 for d in ds if d.severity == "info")
    lines = [f"{errors} errors, {warnings} warnings, {infos} infos"]
    by_check: dict[str, int] = {}
    for d in ds:
        by_check[d.check_id] = by_check.get(d.check_id, 0) + 1
    for check_id in sorted(by_check):
        lines.append(f"  {check_id}: {by_check[check_id]}")
    lines.append(f"functions analyzed: {counters.functions}")
    lines.append(f"tasks: {counters.content_tasks} created, "
                 f"{counters.content_skipped} skipped by trigger filter")
    looked_up = counters.cache_hits + counters.cache_misses
    if cached:
        pct = 100 * counters.cache_hits // looked_up if looked_up else 0
        lines.append(f"cache hits: {pct}% ({counters.cache_hits}/{looked_up})")
    else:
        lines.append("cache: disabled")
    return "\n".join(lines) + "\n"


def _parse_analyze_args(args: list[str]) -> argparse.Namespace:
    """The parsed options, with `jobs`, `db` (None = caching disabled) and
    `checks` (a set of ids, or None) validated."""
    p = argparse.ArgumentParser(prog="ctl-lint analyze", add_help=False)
    p.add_argument("files", nargs="+")
    p.add_argument("--checks", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--db", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--max-witnesses", type=int, default=5)
    p.add_argument("--min-severity", choices=("error", "warning", "info"), default="info")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--dump-cfg", action="store_true")
    p.add_argument("--specs", action="append", default=[])
    ns = p.parse_args(args)
    if ns.max_witnesses < 0:
        raise UsageError("--max-witnesses must be >= 0")
    if ns.jobs is None:
        ns.jobs = _available_cpus()
    if ns.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    ns.db = None if ns.no_cache else ns.db or os.environ.get(DB_ENV_VAR) or DEFAULT_DB
    if ns.checks is not None:
        ns.checks = {c.strip() for c in ns.checks.split(",") if c.strip()}
        if not ns.checks:
            raise UsageError("--checks needs at least one check id")
    return ns


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


class UsageError(Exception):
    pass


def _cmd_list_checks(spec_paths: list[str]) -> int:
    from .intervals import BUFFER_OVERRUN, DIV_BY_ZERO
    from .speclang import load_checkset
    checks, _ = load_checkset(spec_paths)
    for c in checks:
        refine = "refine" if c.refine else "no-refine"
        print(f"{c.id:<16} {c.severity:<8} forall {c.metavar}: {c.var_class:<8} {refine}")
    print(f"{BUFFER_OVERRUN:<16} {'error':<8} interval check (warning when only possible)")
    print(f"{DIV_BY_ZERO:<16} {'error':<8} interval check (warning when only possible)")
    return 0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _checkset(sources: list[tuple[str, str]]) -> list[CheckSpec]:
    """The check set parsed from `sources`, with the analyzer imported before
    any pool forks.  Only a miss, `--checks` and `--dump-cfg` need them."""
    from . import engine  # noqa: F401
    from .speclang import parse_checkset
    return parse_checkset(sources)


# (checks, config, db) of the files this process answers or analyzes
_worker: tuple[list[CheckSpec] | None, EngineConfig, CacheDb | None] | None = None


def _init_worker(checks: list[CheckSpec] | None, config: EngineConfig,
                 db: CacheDb | None) -> None:
    global _worker
    _worker = (checks, config, db)


def _analyze_file(path: str) -> tuple[list[Diagnostic], Counters, tuple[str, list] | None]:
    """One missed file's diagnostics, counters and record to store."""
    from .engine import analyze_unit
    checks, config, db = _worker
    counters = Counters()
    diagnostics, record = analyze_unit(parse_bytes(_read(path), path), checks, db, config,
                                       counters)
    return diagnostics, counters, record


def _file_hit(path: str) -> tuple[list[Diagnostic], Counters, None] | None:
    """What `_analyze_file` gives for a file whose bytes match its record,
    answered from the record with no parsing, or None for a miss."""
    _, config, db = _worker
    try:
        data = _read(path)
    except OSError:  # a miss, whose worker raises the error in input order
        return None
    hit = db.file_hit(file_key(path, config.checkset_text, config.max_witnesses),
                      source_digest(data))
    if hit is None:
        return None
    _, starts, functions = hit
    counters = Counters()
    diagnostics = []
    for (name, line), (_, function) in zip(functions_at(data.decode("utf-8"), starts),
                                           functions):
        result = unpack_function(function, name, line, path)
        diagnostics.extend(result.diagnostics)
        counters.merge_content(result.tasks, result.skipped)
    counters.functions = counters.cache_hits = len(functions)
    return sorted(diagnostics, key=Diagnostic.sort_key), counters, None


def _size(path: str) -> int:
    try:
        return os.path.getsize(path) if os.path.isfile(path) else 0
    except OSError:  # counted as empty; its worker raises the error in input order
        return 0


def pool_workers(jobs: int, files: int, source_bytes: int) -> int:
    """Workers for the missed files; fewer than two means no pool."""
    return min(jobs, files, source_bytes // POOL_BYTES)


def _cmd_analyze(ns: argparse.Namespace) -> int:
    sources, checkset_text = read_checkset(ns.specs)
    checks = _checkset(sources) if ns.checks is not None or ns.dump_cfg else None
    if ns.checks is not None:
        from .intervals import BUFFER_OVERRUN, DIV_BY_ZERO
        unknown = ns.checks - {c.id for c in checks} - {BUFFER_OVERRUN, DIV_BY_ZERO}
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(sorted(unknown))}")

    if ns.dump_cfg:
        from .cfg import build_cfg, to_dot
        for tu in [parse_bytes(_read(path), path) for path in ns.files]:
            for f in tu.functions:
                sys.stdout.write(to_dot(build_cfg(f)))
        return 0

    db = CacheDb(ns.db) if ns.db is not None else None
    config = EngineConfig(checkset_text=checkset_text, max_witnesses=ns.max_witnesses)
    counters = Counters()
    diagnostics: list[Diagnostic] = []
    _init_worker(checks, config, db)
    hits = [db and _file_hit(path) for path in ns.files]
    missed = [path for path, hit in zip(ns.files, hits) if hit is None]
    if missed:
        _init_worker(checks or _checkset(sources), config, db)
    workers = pool_workers(ns.jobs, len(missed), sum(map(_size, missed)))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here: it costs about 20 ms, which one-process runs skip
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, initializer=_init_worker, initargs=_worker))
            results = pool.map(_analyze_file, missed)
        else:
            results = map(_analyze_file, missed)
        # results are merged in input order: the first failing file raises
        # first, and records are stored as a one-process run would store them
        for hit in hits:
            diags, file_counters, record = hit or next(results)
            diagnostics.extend(diags)
            counters.add(file_counters)
            if record is not None:
                db.put(*record)
    if db is not None:
        db.compact()
    diagnostics.sort(key=Diagnostic.sort_key)

    rendered = [d for d in diagnostics
                if meets_min_severity(d.severity, ns.min_severity)
                and (ns.checks is None or d.check_id in ns.checks)]

    if ns.format == "json":
        sys.stdout.write(render_json(rendered, counters) + "\n")
    else:
        sys.stdout.write(render_text(rendered))
        sys.stderr.write(render_summary(rendered, counters, db is not None))
    return 1 if rendered else 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--list-checks" in args:
            rest = args[1:] if args[0] == "analyze" else args
            rest = [a for a in rest if a != "--list-checks"]
            p = argparse.ArgumentParser(prog="ctl-lint", add_help=False)
            p.add_argument("--specs", action="append", default=[])
            ns, leftover = p.parse_known_args(rest)
            if leftover:
                raise UsageError(f"unexpected arguments: {' '.join(leftover)}")
            return _cmd_list_checks(ns.specs)
        if not args or args[0] in ("-h", "--help"):
            sys.stdout.write(_USAGE)
            return 0 if args else 2
        if args[0] != "analyze":
            raise UsageError(f"unknown command {args[0]!r}; expected 'analyze'")
        return _cmd_analyze(_parse_analyze_args(args[1:]))
    except UsageError as exc:
        sys.stderr.write(f"ctl-lint: error: {exc}\n{_USAGE}")
        return 2
    except (LocatedError, AnalysisError) as exc:
        sys.stderr.write(f"ctl-lint: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"ctl-lint: error: {exc}\n")
        return 2
    except SystemExit as exc:  # argparse error paths
        code = exc.code
        if isinstance(code, int):
            return 2 if code != 0 else 0
        sys.stderr.write(f"ctl-lint: error: {code}\n")
        return 2
    except Exception as exc:
        import logging  # loaded only when there is something to log
        logging.getLogger("ctl_lint").debug("internal error", exc_info=True)
        sys.stderr.write(f"ctl-lint: internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
Each file comes back as its report rows, which `_rows` renders in the run's
format from the file's record, a stored one or one the analysis returned,
and which this process sorts, filters and joins.

A run whose files all hit imports `cache`, `diagnostics` and `source`
besides this module, and no parser or analysis module: a hit's rows are
rendered from its record, and the file keys hash the text of the check set,
which is read but not parsed.  The check set is parsed, and `engine`
imported with the modules it uses, only when a file misses (before any pool
forks, so workers inherit them), for `--checks`, `--dump-cfg` and
`--list-checks`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from json.encoder import encode_basestring_ascii as _escape
from typing import TYPE_CHECKING

from .cache import CacheDb, file_key
from .diagnostics import ANALYSIS_CHECKS, CONFIRMED, UNCONFIRMED, AnalysisError, Counters
from .diagnostics import EngineConfig, meets_min_severity, read_checkset
from .source import LocatedError, functions_at, parse_bytes, source_digest

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
  --max-witnesses N     refinement rounds per diagnostic (default 5; 0: off)
  --min-severity S      error|warning|info rendering threshold (default info)
  --jobs N              at most N worker processes for the files the cache
                        misses (default: the CPUs this process may run on)
  --dump-cfg            print each function's CFG as DOT and exit
  --specs FILE.chk      extra check specifications (repeatable)
"""


Row = tuple  # (sort key, severity, check id, text): one diagnostic as the report shows it


def render_row(fmt: str, file: str, function: str, base: int, check: str, severity: str,
               line: int, column: int, message: str, confirmed: bool, trace: list[int]) -> Row:
    """One diagnostic as a report row, its text in format `fmt`: a JSON
    object, or a line plus its `trace:` line.  The fields are in the order
    a function record lists them, and lines count from `base`: the
    diagnostic is at line `base + line`, and `trace` is `[l0, c0, l1, c1,
    ...]` with each `l` counted from `base` too.  Strings are escaped and
    ints printed as `json.dumps(..., ensure_ascii=True)` does, so the JSON
    report is the bytes it would dump."""
    line += base
    confidence = CONFIRMED if confirmed else UNCONFIRMED
    pairs = zip(trace[::2], trace[1::2])
    if fmt == "json":
        text = ('{"check":%s,"severity":%s,"file":%s,"line":%d,"column":%d,"message":%s,'
                '"confidence":"%s","trace":[%s]}') % (
            _escape(check), _escape(severity), _escape(file), line, column, _escape(message),
            confidence, ",".join(['{"line":%d,"column":%d}' % (base + t, c) for t, c in pairs]))
    else:
        text = f"{file}:{line}:{column}: {severity} [{check}] {message} ({confidence})"
        if trace:
            text += "\n  trace: " + " -> ".join(["%d:%d" % (base + t, c) for t, c in pairs])
    return (file, line, column, check, function, message), severity, check, text


def render_text(rows: list[Row]) -> str:
    """Compiler-style lines, one per diagnostic, plus indented traces."""
    return "".join([row[3] + "\n" for row in rows])


def render_json(rows: list[Row], counters: Counters) -> str:
    """Canonical JSON report; byte-identical for identical sources and
    config regardless of cache state or worker count."""
    severities = [row[1] for row in rows]
    # the content view: "cache_hits" is what a fresh run reports, and the
    # live hit rate is in the stderr summary
    return ('{"version":"1","diagnostics":[%s],"summary":{"error":%d,"warning":%d,"info":%d,'
            '"tasks":%d,"cache_hits":0}}') % (
        ",".join([row[3] for row in rows]), severities.count("error"),
        severities.count("warning"), severities.count("info"), counters.content_tasks)


def render_summary(rows: list[Row], counters: Counters, cached: bool) -> str:
    """The stderr summary; `cached` tells whether a cache store was in use."""
    severities = [row[1] for row in rows]
    lines = [f"{severities.count('error')} errors, {severities.count('warning')} warnings, "
             f"{severities.count('info')} infos"]
    by_check: dict[str, int] = {}
    for row in rows:
        by_check[row[2]] = by_check.get(row[2], 0) + 1
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
    from .speclang import load_checkset
    checks, _ = load_checkset(spec_paths)
    for c in checks:
        print(f"{c.id:<16} {c.severity:<8} forall {c.metavar}: {c.var_class}")
    for check_id, (severity, analysis) in ANALYSIS_CHECKS.items():
        print(f"{check_id:<16} {severity:<8} {analysis}")
    return 0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _checkset(sources: list[tuple[str, str]]) -> list[CheckSpec]:
    """The check set parsed from `sources`, with the analyzer imported before
    any pool forks.  Only a miss, `--checks` and `--dump-cfg` need them."""
    from . import engine  # noqa: F401 (imported here so that forked workers inherit it)
    from .speclang import parse_checkset
    return parse_checkset(sources)


# (checks, config, db, report format) of the files this process answers or analyzes
_worker: tuple[list[CheckSpec] | None, EngineConfig, CacheDb | None, str] | None = None


def _init_worker(checks: list[CheckSpec] | None, config: EngineConfig,
                 db: CacheDb | None, fmt: str) -> None:
    global _worker
    _worker = (checks, config, db, fmt)


def _rows(fmt: str, path: str, data: bytes, record: list) -> tuple[list[Row], Counters]:
    """The report rows of file `path`, whose bytes are `data`, and the
    content it counts, from its file record, hit or missed alike.  The rows
    are in record order, which the caller's stable sort makes report order."""
    _, starts, functions = record
    counters = Counters()
    rows = []
    for (name, line), (_, (diagnostics, _, tasks, skipped)) in zip(
            functions_at(data.decode("utf-8"), starts), functions):
        rows += [render_row(fmt, path, name, line, *d) for d in diagnostics]
        counters.merge_content(tasks, skipped)
    counters.functions = len(functions)
    return rows, counters


def _analyze_file(path: str) -> tuple[list[Row], Counters, list]:
    """One missed file's rows, counters and record to store."""
    from .engine import analyze_unit
    checks, config, db, fmt = _worker
    data = _read(path)
    counters = Counters()
    record = analyze_unit(parse_bytes(data, path), checks, db, config, counters)
    return _rows(fmt, path, data, record)[0], counters, record


def _file_hit(path: str) -> tuple[list[Row], Counters, None] | None:
    """What `_analyze_file` gives for a file whose bytes match its record,
    with no parsing, or None for a miss; there is nothing to store."""
    _, config, db, fmt = _worker
    try:
        data = _read(path)
    except OSError:  # a miss, whose worker raises the error in input order
        return None
    record = db.file_hit(file_key(path, config.checkset_text, config.max_witnesses),
                         source_digest(data))
    if record is None:
        return None
    rows, counters = _rows(fmt, path, data, record)
    counters.cache_hits = counters.functions
    return rows, counters, None


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
        unknown = ns.checks - {c.id for c in checks} - set(ANALYSIS_CHECKS)
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(sorted(unknown))}")

    if ns.dump_cfg:
        from .cfg import build_cfg, to_dot
        for tu in [parse_bytes(_read(path), path) for path in ns.files]:
            for f in tu.functions:
                sys.stdout.write(to_dot(build_cfg(f, tu.globals)))
        return 0

    db = CacheDb(ns.db) if ns.db is not None else None
    config = EngineConfig(checkset_text=checkset_text, max_witnesses=ns.max_witnesses)
    counters = Counters()
    rows: list[Row] = []
    _init_worker(checks, config, db, ns.format)
    hits = [db and _file_hit(path) for path in ns.files]
    missed = [path for path, hit in zip(ns.files, hits) if hit is None]
    if missed:
        _init_worker(checks or _checkset(sources), config, db, ns.format)
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
        for path, hit in zip(ns.files, hits):
            file_rows, file_counters, record = hit or next(results)
            rows += file_rows
            counters.add(file_counters)
            if db is not None and record is not None:
                db.put(file_key(path, checkset_text, ns.max_witnesses), record)
    if db is not None:
        db.compact()
    rows.sort(key=lambda row: row[0])  # stable: a path named twice interleaves

    rendered = [row for row in rows
                if meets_min_severity(row[1], ns.min_severity)
                and (ns.checks is None or row[2] in ns.checks)]

    if ns.format == "json":
        sys.stdout.write(render_json(rendered, counters) + "\n")
    else:
        text = render_text(rendered)
        if hasattr(sys.stdout, "buffer"):  # bytes: a non-UTF-8 path prints to a strict stdout
            sys.stdout.buffer.write(text.encode(sys.stdout.encoding, "surrogateescape"))
        else:  # an in-memory stream that an in-process caller put in place
            sys.stdout.write(text)
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

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import pytest

from ctl_lint import cache, cli
from ctl_lint.cli import POOL_BYTES, _parse_analyze_args, main, pool_workers
from ctl_lint.cli import render_summary, render_text
from ctl_lint.diagnostics import Diagnostic
from ctl_lint.engine import Counters
from ctl_lint.frontend import MAX_NESTING
from ctl_lint.source import LocatedError, SourceLocation
from fixtures_bugs import ALIASING_SRC, FIXTURES
from ctl_lint.speclang import load_checkset
from unit_results import rows_of

CLEAN = "int add(int a, int b) { return a + b; }\n"
DOUBLE_FREE = "int f(int *p) { free(p); free(p); return 0; }\n"
LEAK = "int f() { int *p = malloc(4); return 0; }\n"
# a comment block of at least POOL_BYTES: two padded files that miss are
# source enough for a pool of two workers
PAD = ("//" + "." * 77 + "\n") * -(-POOL_BYTES // 80)


@pytest.fixture
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CTL_LINT_DB", raising=False)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class Fresh(NamedTuple):
    code: int
    out: str
    err: str
    modules: list[str]  # the ctl_lint modules the process loaded
    pool: bool  # whether it imported the process pool
    stdlib: list[str]  # which of dataclasses, inspect, logging and fractions it loaded


_FRESH_SCRIPT = """\
import json, sys
if sys.argv[2] == "spawn":
    import multiprocessing
    multiprocessing.set_start_method("spawn")
import ctl_lint.cli
code = ctl_lint.cli.main(sys.argv[3:])
with open(sys.argv[1], "w") as fh:
    json.dump([sorted(m for m in sys.modules if m.startswith("ctl_lint")),
               "concurrent.futures.process" in sys.modules,
               [m for m in ("dataclasses", "inspect", "logging", "fractions")
                if m in sys.modules]], fh)
sys.exit(code)
"""


def fresh(*args: str, spawn: bool = False) -> Fresh:
    """`ctl-lint *args` in a new interpreter, which has loaded nothing yet;
    with `spawn`, its workers start from a fresh import too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with tempfile.TemporaryDirectory() as tmp:
        loaded = os.path.join(tmp, "loaded.json")
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_SCRIPT, loaded, "spawn" if spawn else "fork", *args],
            capture_output=True, text=True, env=env, timeout=120)
        with open(loaded) as fh:
            modules, pool, stdlib = json.load(fh)
    return Fresh(proc.returncode, proc.stdout, proc.stderr, modules, pool, stdlib)


def test_what_crosses_the_pool_pickles():
    # rows, plain tuples of strings and ints, come back from workers, a
    # spawned worker gets the check set, and errors raised in a worker
    # reach this process
    check = load_checkset([])[0][0]
    loc = SourceLocation("a.c", 3, 4)
    diagnostic = Diagnostic("double-free", "error", loc, "m", "f", "unconfirmed", (loc,))
    for fmt in ("text", "json"):
        [row] = rows_of([diagnostic], fmt)
        assert row[:3] == (diagnostic.sort_key(), "error", "double-free")
        assert {type(v) for v in (*row[0], *row[1:])} == {str, int}
        assert pickle.loads(pickle.dumps(row)) == row
    for value in (check, check.prop):
        assert pickle.loads(pickle.dumps(value)) == value
    assert hash(pickle.loads(pickle.dumps(check.prop))) == hash(check.prop)
    error = pickle.loads(pickle.dumps(LocatedError(loc, "bad")))
    assert (type(error), error.loc, error.message, str(error)) == \
        (LocatedError, loc, "bad", "a.c:3:4: bad")


class TestExitCodes:
    def test_clean_file_exits_zero_no_stdout(self, ws, capsys):
        path = ws("clean.c", CLEAN)
        code, out, err = run(capsys, "analyze", path)
        assert code == 0
        assert out == ""
        assert "0 errors, 0 warnings, 0 infos" in err

    def test_bug_exits_one_with_trace(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, out, err = run(capsys, "analyze", path)
        assert code == 1
        assert "error [double-free] 'p' may be freed twice (confirmed)" in out
        assert "trace:" in out

    def test_syntax_error_exits_two(self, ws, capsys):
        path = ws("x.c", "int f( {\n")
        code, out, err = run(capsys, "analyze", "--format", "json", path)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_missing_file_exits_two(self, ws, capsys):
        code, out, err = run(capsys, "analyze", "no-such-file.c")
        assert code == 2

    @pytest.mark.parametrize("body, code, expected", [
        ("return 7 / ({x} + z);", 1, "warning [div-by-zero]"),
        ("return 7 / ({x} - z);", 1, "warning [div-by-zero]"),
        ("return 7 / ({x} * z);", 1, "warning [div-by-zero]"),
        ("int a[4]; a[{x} + z] = 1; return 0;", 1, "warning [buffer-overrun]"),
        ("return {huge} + z;", 2, "x.c:1:23: integer literal longer than 600 digits"),
        *[("int y = 12345678901;" + " y = y * y;" * n + " int a[4]; a[y] = 1; return 0;", 1,
           "warning [buffer-overrun] index [-oo, +oo] may fall outside") for n in (9, 17, 22)],
        *[("int *p = malloc(4); int y = 12345678901;" + " y = y * y;" * n
           + " free(p); free(p); return 0;", 1, "error [double-free]") for n in (9, 17, 22)],
    ], ids=["add", "sub", "mul", "index", "5000-digits", "9-squarings", "17-squarings",
            "22-squarings", "9-squarings-on-a-witness", "17-squarings-on-a-witness",
            "22-squarings-on-a-witness"])
    def test_a_literal_too_long_for_a_float_is_analyzed(self, ws, capsys, body, code,
                                                        expected):
        # interval bounds meet this literal and an infinite bound together;
        # a literal past the digit limit is a located error, and a bound
        # past its cap widens, so it prints and squaring it stays cheap; a
        # witness that walks the squarings stops folding them at the same cap
        path = ws("x.c", f"int f(int z) {{ {body.format(x='9' * 310, huge='9' * 5000)} }}\n")
        start = time.monotonic()
        result = run(capsys, "analyze", "--no-cache", path)
        assert time.monotonic() - start < 5
        assert result[0] == code, result[2]
        assert expected in (result[1] if code == 1 else result[2])
        assert "internal error" not in result[2]

    def test_semantic_error_exits_two(self, ws, capsys):
        path = ws("x.c", "int f() { return y; }\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert "undeclared 'y'" in err

    def test_undeclared_incdec_target_is_reported_once(self, ws, capsys):
        path = ws("x.c", "int f() { y++; return 0; }\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert err.count("undeclared 'y'") == 1

    def test_syntax_error_wins_over_scope_error(self, ws, capsys):
        path = ws("x.c", "int f() { return y; } int g( {\n")
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (2, "")
        assert "expected" in err and "undeclared" not in err

    def test_dump_cfg_of_an_ill_scoped_unit(self, ws, capsys):
        path = ws("x.c", "int f() { return y; }\n")
        code, out, _ = run(capsys, "analyze", "--dump-cfg", path)
        assert code == 0
        assert out.startswith('digraph "f"')

    def test_no_arguments_exits_two(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    ARGPARSE_USAGE = """\
usage: ctl-lint analyze [--checks CHECKS] [--format {text,json}] [--db DB]
                        [--no-cache] [--max-witnesses MAX_WITNESSES]
                        [--min-severity {error,warning,info}] [--jobs JOBS]
                        [--dump-cfg] [--specs SPECS]
                        files [files ...]
"""

    @pytest.mark.parametrize("args, error", [
        (["analyze", "--bogus", "x.c"], "unrecognized arguments: --bogus"),
        (["analyze", "--format", "xml", "x.c"],
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        (["analyze", "--jobs", "x", "x.c"], "argument --jobs: invalid int value: 'x'"),
        (["analyze", "--min-severity", "bad", "x.c"], "argument --min-severity: invalid "
         "choice: 'bad' (choose from 'error', 'warning', 'info')"),
        (["analyze"], "the following arguments are required: files"),
    ], ids=["unknown-option", "format", "jobs-not-int", "min-severity", "no-files"])
    def test_an_argument_the_parser_rejects(self, capsys, monkeypatch, args, error):
        # what the option parser prints, pinned before anything replaces it;
        # COLUMNS fixes the width its usage lines wrap at
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *args) == \
            (2, "", f"{self.ARGPARSE_USAGE}ctl-lint analyze: error: {error}\n")

    @pytest.mark.parametrize("args, error", [
        (["analyze", "--jobs", "0", "x.c"], "--jobs must be >= 1"),
        (["analyze", "--max-witnesses", "-1", "x.c"], "--max-witnesses must be >= 0"),
        (["analyze", "--checks", ",", "x.c"], "--checks needs at least one check id"),
        (["--list-checks", "stray"], "unexpected arguments: stray"),
    ], ids=["jobs-zero", "max-witnesses-negative", "checks-empty", "list-checks-stray"])
    def test_an_argument_the_cli_rejects(self, capsys, args, error):
        assert run(capsys, *args) == (2, "", f"ctl-lint: error: {error}\n{cli._USAGE}")

    def test_unicode_digit_is_a_parse_error(self, ws, capsys):
        path = ws("x.c", "int f(int x) { return x + \u00b2; }\n")
        code, out, err = run(capsys, "analyze", "--format", "json", path)
        assert code == 2
        assert out == ""
        assert "unexpected character" in err

    @pytest.mark.parametrize("body", [
        "return " + "(" * 5000 + "1" + ")" * 5000 + ";",
        "if (c) " * 400 + "c = 1; return c;",
        "int a[2]; return a" + "[0]" * 3000 + ";",
    ], ids=["parentheses", "ifs", "subscripts"])
    def test_deep_nesting_exits_two(self, ws, capsys, body):
        path = ws("x.c", "int f(int c) { " + body + " }\n")
        code, out, err = run(capsys, "analyze", "--no-cache", path)
        assert code == 2
        assert "nesting deeper than" in err

    def test_nesting_at_the_limit_is_analyzed(self, ws, capsys):
        # the deepest accepted shapes must not overflow any later pass
        depth = MAX_NESTING - 3
        src = ("int f(int c) { " + "if (c) " * depth + "c = 1; "
               "int x = " + "(" * depth + "c" + ")" * depth + "; "
               "if (" + " && ".join(["c"] * depth) + ") { x = 2; } "
               "int a[2]; a[0] = a" + "[0]" * depth + "; "
               "return x" + " + 1" * depth + "; }\n")
        path = ws("x.c", src)
        code, out, err = run(capsys, "analyze", "--no-cache", path)
        assert code == 0, err

    def test_internal_error_exits_two(self, ws, capsys, monkeypatch):
        import ctl_lint.intervals
        monkeypatch.setattr(ctl_lint.intervals, "iteration_cap", lambda *args: 0)
        # the division makes the interval analysis run
        path = ws("clean.c", "int half(int a) { return a / 2; }\n")
        code, out, err = run(capsys, "analyze", "--no-cache", path)
        assert code == 2
        assert out == ""
        assert "internal error: RuntimeError: interval fixpoint exceeded" in err

    def test_exit_code_law(self, ws, capsys):
        # exit 1 iff at least one diagnostic was rendered
        path = ws("bug.c", DOUBLE_FREE)
        code, out, _ = run(capsys, "analyze", "--min-severity", "error", path)
        assert code == 1 and out
        code, out, _ = run(capsys, "analyze", "--checks", "memory-leak", path)
        assert code == 0 and out == ""


class TestRenderText:
    def test_empty(self):
        assert render_text([]) == ""

    def test_memory_leak_line_format(self):
        loc = SourceLocation("a.c", 4, 3)
        d = Diagnostic("memory-leak", "warning", loc,
                       "allocation of 'p' may reach function exit without free",
                       "f", "confirmed",
                       (SourceLocation("a.c", 1, 1), loc, SourceLocation("a.c", 6, 1)))
        text = render_text(rows_of([d]))
        assert text.splitlines()[0] == (
            "a.c:4:3: warning [memory-leak] allocation of 'p' may reach "
            "function exit without free (confirmed)")
        assert text.splitlines()[1] == "  trace: 1:1 -> 4:3 -> 6:1"

    def test_min_severity_filter(self, ws, capsys):
        path = ws("dead.c", "int f() { return 0; return 1; }\n")
        code, out, _ = run(capsys, "analyze", path)
        assert "[dead-code]" in out
        code, out, _ = run(capsys, "analyze", "--min-severity", "warning", path)
        assert out == "" and code == 0

    def test_a_path_that_is_not_utf8_prints_its_bytes_under_a_strict_stdout(self, ws):
        # the report goes out as bytes: a strict error handler on stdout
        # prints what a C.UTF-8 run does, cold, warm and without a store
        name = b"leak\xff.c"
        ws(os.fsdecode(name), LEAK)

        def cli_run(*args, **env):
            env = dict({k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"},
                       PYTHONPATH=os.pathsep.join(sys.path), **env)
            proc = subprocess.run([sys.executable, "-m", "ctl_lint.cli", "analyze", "--jobs",
                                   "1", *args, name], env=env, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout

        expected = cli_run("--no-cache", LC_ALL="C.UTF-8")
        assert expected[0] == 1 and expected[1].startswith(name + b":1:")
        for args in (["--no-cache"], ["--db", "c.db"], ["--db", "c.db"]):
            assert cli_run(*args, PYTHONIOENCODING="utf-8:strict") == expected, args
        assert cli_run("--db", "c.db", LC_ALL="C.UTF-8") == expected
        # a valid non-ASCII path prints in stdout's own encoding
        name = "caf\u00e9.c".encode("utf-8")
        ws(os.fsdecode(name), LEAK)
        code, out = cli_run("--no-cache", LC_ALL="C.UTF-8")
        expected = code, out.decode("utf-8").encode("latin-1")
        assert expected[1].startswith(b"caf\xe9.c:1:")
        for args in (["--no-cache"], ["--db", "l.db"], ["--db", "l.db"]):
            assert cli_run(*args, LC_ALL="C.UTF-8", PYTHONIOENCODING="latin-1") == expected, args

    def test_aliased_writes_report_the_same_bugs_cold_warm_and_without_a_store(self, ws, capsys):
        # the warm run answers from the store the cold run made
        path = ws("alias.c", ALIASING_SRC)
        cold = run(capsys, "analyze", path)
        assert cold[0] == 1 and os.path.exists(".ctl-lint.db")
        confirmed = {(line.split("[")[1].split("]")[0], line.split(":")[1])
                     for line in cold[1].splitlines()
                     if "'p'" in line and line.endswith("(confirmed)")}
        assert confirmed == {(c, n) for c in ("double-free", "use-after-free") for n in ("2", "4")}
        assert run(capsys, "analyze", path)[:2] == cold[:2]
        assert run(capsys, "analyze", "--no-cache", path)[:2] == cold[:2]

    def test_text_report_to_an_in_memory_stdout(self, ws):
        # an in-process caller may put a text stream with no bytes layer in place
        path = ws("leak.c", LEAK)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--no-cache", path])
        assert code == 1 and out.getvalue().startswith(f"{path}:1:")


class TestRenderJson:
    def test_schema_and_fields(self, ws, capsys):
        path = ws("leak.c", LEAK)
        code, out, err = run(capsys, "analyze", "--format", "json", path)
        assert code == 1
        obj = json.loads(out)
        assert list(obj.keys()) == ["version", "diagnostics", "summary"]
        assert obj["version"] == "1"
        (d,) = obj["diagnostics"]
        assert list(d.keys()) == ["check", "severity", "file", "line", "column",
                                  "message", "confidence", "trace"]
        assert d["check"] == "memory-leak"
        assert all(list(t.keys()) == ["line", "column"] for t in d["trace"])
        assert list(obj["summary"].keys()) == ["error", "warning", "info",
                                               "tasks", "cache_hits"]

    def test_empty_run_zeros(self, ws, capsys):
        path = ws("clean.c", "int f() { return 0; }\n")
        code, out, _ = run(capsys, "analyze", "--format", "json", "--no-cache", path)
        obj = json.loads(out)
        assert obj["diagnostics"] == []
        assert obj["summary"]["error"] == obj["summary"]["warning"] == 0

    def test_reruns_byte_identical(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        _, out1, _ = run(capsys, "analyze", "--format", "json", path)
        _, out2, _ = run(capsys, "analyze", "--format", "json", path)
        assert out1 == out2

    def test_text_and_json_same_multiset(self, ws, capsys):
        src = DOUBLE_FREE + LEAK.replace("int f", "int g")
        path = ws("both.c", src)
        _, text_out, _ = run(capsys, "analyze", path)
        _, json_out, _ = run(capsys, "analyze", "--format", "json", path)
        obj = json.loads(json_out)
        from_json = sorted((d["check"], d["file"], d["line"], d["severity"])
                           for d in obj["diagnostics"])
        from_text = []
        for line in text_out.splitlines():
            if line.startswith("  trace:"):
                continue
            head, rest = line.split(": ", 1)
            file, lineno, _col = head.rsplit(":", 2)
            sev, check = rest.split(" ", 2)[:2]
            from_text.append((check.strip("[]"), file, int(lineno), sev))
        assert sorted(from_text) == from_json


class TestSummaryReport:
    def test_counts_match(self):
        locs = [SourceLocation("a.c", i, 1) for i in (1, 2, 3)]
        ds = [
            Diagnostic("double-free", "error", locs[0], "m", "f"),
            Diagnostic("memory-leak", "warning", locs[1], "m", "f"),
            Diagnostic("null-deref", "warning", locs[2], "m", "f"),
        ]
        text = render_summary(rows_of(ds), Counters(), False)
        assert text.splitlines()[0] == "1 errors, 2 warnings, 0 infos"

    def test_clean_line(self):
        assert render_summary([], Counters(), False).splitlines()[0] == \
            "0 errors, 0 warnings, 0 infos"

    def test_cache_percentage(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        run(capsys, "analyze", path)
        _, _, err = run(capsys, "analyze", path)
        assert "cache hits: 100%" in err

    @pytest.mark.parametrize("source", ["", "int g = 1;\n"], ids=["empty", "globals-only"])
    def test_no_functions_with_a_cache_is_not_disabled(self, ws, capsys, source):
        path = ws("none.c", source)
        for _ in range(2):
            _, _, err = run(capsys, "analyze", path)
            assert err.splitlines()[-1] == "cache hits: 0% (0/0)"

    def test_no_cache_says_disabled(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        for jobs in ("1", "2"):
            _, _, err = run(capsys, "analyze", "--no-cache", "--jobs", jobs, path, path)
            assert err.splitlines()[-1] == "cache: disabled"
            assert "cache hits" not in err


class TestFlags:
    def test_checks_filter(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, out, _ = run(capsys, "analyze", "--checks", "double-free", path)
        assert code == 1
        assert "[double-free]" in out and "[use-after-free]" not in out

    def test_unknown_check_id(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, _, err = run(capsys, "analyze", "--checks", "wat", path)
        assert code == 2 and "unknown check ids: wat" in err

    def test_env_var_sets_db(self, ws, capsys, monkeypatch, tmp_path):
        path = ws("bug.c", DOUBLE_FREE)
        env_db = tmp_path / "env.db"
        monkeypatch.setenv("CTL_LINT_DB", str(env_db))
        run(capsys, "analyze", path)
        assert env_db.exists()
        flag_db = tmp_path / "flag.db"
        run(capsys, "analyze", "--db", str(flag_db), path)
        assert flag_db.exists()  # the flag wins over the environment

    def test_no_cache_touches_nothing(self, ws, capsys, tmp_path):
        path = ws("bug.c", DOUBLE_FREE)
        run(capsys, "analyze", "--no-cache", path)
        assert not (tmp_path / ".ctl-lint.db").exists()

    def test_default_db_created(self, ws, capsys, tmp_path):
        path = ws("bug.c", DOUBLE_FREE)
        run(capsys, "analyze", path)
        assert (tmp_path / ".ctl-lint.db").exists()

    def test_dump_cfg(self, ws, capsys):
        path = ws("clean.c", CLEAN)
        code, out, _ = run(capsys, "analyze", "--dump-cfg", path)
        assert code == 0
        assert out.startswith('digraph "add"')

    def test_list_checks(self, capsys):
        # the whole built-in catalog, so that a change to it is deliberate
        assert run(capsys, "--list-checks") == (0, (
            "null-deref       warning  forall $v: pointer\n"
            "memory-leak      warning  forall $v: pointer\n"
            "use-after-free   error    forall $v: pointer\n"
            "double-free      error    forall $v: pointer\n"
            "uninit-read      warning  forall $v: any\n"
            "dead-code        info     structural check (unreachable from the entry)\n"
            "buffer-overrun   error    interval check (warning when only possible)\n"
            "div-by-zero      error    interval check (warning when only possible)\n"), "")

    def test_user_specs_loaded(self, ws, capsys):
        chk = ws("my.chk", """
check free-call-seen {
  severity: info
  forall $v: pointer
  label f := free_of($v)
  property: EF f
}
""")
        path = ws("bug.c", "int f(int *p) { free(p); return 0; }\n")
        code, out, _ = run(capsys, "analyze", "--specs", chk, "--checks",
                           "free-call-seen", path)
        assert code == 1
        assert "[free-call-seen]" in out

    @pytest.mark.parametrize("lead", [[], ["analyze"]])
    def test_list_checks_keeps_a_spec_named_analyze(self, ws, capsys, lead):
        # only a leading `analyze` is dropped, not a spec path that reads so
        ws("analyze", """
check free-call-seen {
  severity: info
  forall $v: pointer
  label f := free_of($v)
  property: EF f
}
""")
        code, out, err = run(capsys, *lead, "--list-checks", "--specs", "analyze")
        assert (code, err) == (0, "")
        assert "free-call-seen" in out and "double-free" in out

    def test_user_spec_duplicate_id_rejected(self, ws, capsys):
        # reported at the later declaration, in the user's file
        chk = ws("dup.chk", "check double-free {\n  severity: info\n  forall $v: pointer\n"
                            "  label f := free_of($v)\n  property: EF f\n}\n")
        message = f"ctl-lint: error: {chk}:1:1: duplicate check id 'double-free'\n"
        assert run(capsys, "analyze", "--specs", chk, ws("bug.c", DOUBLE_FREE)) == (2, "", message)
        assert run(capsys, "--list-checks", "--specs", chk) == (2, "", message)

    def test_user_spec_not_utf8_is_located(self, ws, capsys):
        # reported at the file's start, as a MiniC file is, not as an
        # internal error; and read before the check language loads
        chk = ws("bad.chk", "")
        with open(chk, "wb") as fh:
            fh.write(b"\xff\xfe")
        path = ws("bug.c", DOUBLE_FREE)
        message = f"ctl-lint: error: {chk}:1:1: input is not valid UTF-8: invalid start byte\n"
        assert run(capsys, "analyze", "--specs", chk, path) == (2, "", message)
        assert run(capsys, "--list-checks", "--specs", chk) == (2, "", message)
        outcome = fresh("analyze", "--specs", chk, path)
        assert outcome[:3] == (2, "", message)
        assert not {"ctl_lint.frontend", "ctl_lint.speclang"} & set(outcome.modules)

    @pytest.mark.parametrize("check_id", ["dead-code", "buffer-overrun", "div-by-zero"])
    def test_user_spec_taking_an_interval_check_id_rejected(self, ws, capsys, check_id):
        # one id, one check: an analysis-decided check's id is taken like a spec's
        chk = ws("dup.chk", f"""
check {check_id} {{
  severity: info
  forall $v: pointer
  label f := free_of($v)
  property: EF f
}}
""")
        message = f"ctl-lint: error: {chk}:2:1: duplicate check id '{check_id}'\n"
        assert run(capsys, "analyze", "--specs", chk, ws("bug.c", DOUBLE_FREE)) == (2, "", message)
        assert run(capsys, "--list-checks", "--specs", chk) == (2, "", message)

    @pytest.mark.parametrize("prop,error", [
        # a universal operator is rejected at its token
        ("AF d", "6:13: 'AF' is a universal operator, which has no single-path witness"),
        # so is EG, whose witness is an infinite path
        ("EF EX EG d", "6:19: 'EG' has no finite witness: it holds along an infinite path"),
        # an existential property without single-path witnesses, at its check
        ("!EF d", "2:1: the property of 'eventually-deref' has no single-path witness"),
    ], ids=["universal", "infinite", "no-witness"])
    def test_user_spec_without_single_path_witnesses_rejected(self, ws, capsys, prop, error):
        chk = ws("af.chk", f"""
check eventually-deref {{
  severity: warning
  forall $v: pointer
  label d := deref($v)
  property: {prop}
}}
""")
        path = ws("g.c", "int g(int *p) { return *p; }\n")
        message = f"{chk}:{error}"
        for args in (["analyze", "--specs", chk, path],
                     ["analyze", "--specs", chk, "--max-witnesses", "0", path],
                     ["--list-checks", "--specs", chk]):
            code, out, err = run(capsys, *args)
            assert (code, out, err) == (2, "", f"ctl-lint: error: {message}\n")

    def test_unwritable_db_path_is_an_error(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, _, err = run(capsys, "analyze", "--db", "missing/c.db", path)
        assert (code, err) == (2, "ctl-lint: error: cache path is not writable: missing/c.db\n")

    def test_user_checks_are_refined(self, ws, capsys):
        chk = ws("twice.chk", """
check freed-twice {
  severity: warning
  forall $v: pointer
  label f := free_of($v)
  property: EF (f & EX EF f)
}
""")
        infeasible = next(f for f in FIXTURES if f.name == "df-infeasible-guards").source
        paths = {"infeasible": ws("guards.c", infeasible), "feasible": ws("bug.c", DOUBLE_FREE)}

        def verdicts(path, budget):
            out = run(capsys, "analyze", "--no-cache", "--specs", chk, "--checks",
                      "freed-twice", "--max-witnesses", budget, path)[1]
            return [line.rsplit(" ", 1)[1] for line in out.splitlines() if "[freed-twice]" in line]

        assert verdicts(paths["infeasible"], "5") == []
        assert verdicts(paths["feasible"], "5") == ["(confirmed)"]
        for path in paths.values():
            assert verdicts(path, "0") == ["(unconfirmed)"]

    def test_max_witnesses_zero_unconfirmed(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, out, _ = run(capsys, "analyze", "--max-witnesses", "0", "--no-cache", path)
        assert code == 1
        assert "(unconfirmed)" in out

    def test_leak_in_a_counted_loop_is_unconfirmed_at_the_default_budget(self, ws, capsys):
        # each round's witness runs the loop once more than the last and is
        # infeasible; a feasible one needs 7 passes, more rounds than the
        # default 5, and the rounds run out before the property fails
        path = ws("loop.c", "int f() { int i; for (i = 0; i < 7; i++) "
                            "{ int *p = malloc(4); *p = i; } return 0; }\n")
        code, out, _ = run(capsys, "analyze", "--no-cache", path)
        assert code == 1
        assert ("warning [memory-leak] allocation of 'p' may reach function exit without "
                "free (unconfirmed)") in out

    def test_multiple_files_sorted_merge(self, ws, capsys):
        p1 = ws("a.c", DOUBLE_FREE)
        p2 = ws("b.c", LEAK)
        code, out, _ = run(capsys, "analyze", p1, p2)
        files = [line.split(":")[0] for line in out.splitlines()
                 if not line.startswith("  ")]
        assert files == sorted(files)


class TestCheckSetOnHits:
    """A run whose files all hit reads the check set without parsing it;
    every check-set error and `--checks` filter still behaves as uncached."""

    @pytest.fixture
    def warm(self, ws, capsys, tmp_path):
        """The paths of two files, and `--db` for a store they all hit."""
        paths = [ws("a.c", DOUBLE_FREE), ws("b.c", "int *g() { int *p = 0; return *p; }\n")]
        db = ["--db", str(tmp_path / "c.db")]
        run(capsys, "analyze", *db, *paths)
        assert "cache hits: 100% (2/2)" in run(capsys, "analyze", *db, *paths)[2]
        return paths, db

    def test_checks(self, warm, capsys):
        paths, db = warm
        for checks in ("nosuch", "null-deref,nosuch"):
            expected = run(capsys, "analyze", "--no-cache", "--checks", checks, *paths)
            assert expected[0] == 2 and "unknown check ids: nosuch" in expected[2]
            assert run(capsys, "analyze", *db, "--checks", checks, *paths) == expected
        code, out, err = run(capsys, "analyze", "--no-cache", "--checks", "null-deref", *paths)
        assert code == 1 and "[null-deref]" in out and "[double-free]" not in out
        assert run(capsys, "analyze", *db, "--checks", "null-deref", *paths)[:2] == (code, out)

    def test_spec_file_errors(self, warm, ws, capsys):
        paths, db = warm
        chk = ws("my.chk", "check seen {\n  severity: info\n  forall $v: pointer\n"
                           "  label f := free_of($v)\n  property: EF f\n}\n")
        run(capsys, "analyze", *db, "--specs", chk, *paths)
        assert "100%" in run(capsys, "analyze", *db, "--specs", chk, *paths)[2]
        ws("my.chk", "check seen {\n")  # malformed after a warm run
        missing = chk + ".missing"
        for specs in ([chk], [missing], [chk, missing]):
            args = [a for spec in specs for a in ("--specs", spec)]
            expected = run(capsys, "analyze", "--no-cache", *args, *paths)
            assert expected[0] == 2 and expected[2].startswith("ctl-lint: error: ")
            assert run(capsys, "analyze", *db, *args, *paths) == expected
        # every spec file is read before any is parsed: a missing one is
        # reported before a malformed one named ahead of it
        assert "No such file" in expected[2]

    def test_undeclared_name_after_a_hit(self, warm, ws, capsys):
        paths, db = warm
        bad = ws("undeclared.c", "int f() { return y; }\n")
        expected = run(capsys, "analyze", "--no-cache", paths[0], bad)
        assert expected == (2, "", f"ctl-lint: error: {bad}:1:18: undeclared 'y'\n")
        assert run(capsys, "analyze", *db, paths[0], bad) == expected

    def test_dump_cfg_and_list_checks(self, warm, capsys):
        paths, db = warm
        expected = run(capsys, "analyze", "--no-cache", "--dump-cfg", *paths)
        assert expected[0] == 0 and expected[1].startswith('digraph "f"')
        assert run(capsys, "analyze", *db, "--dump-cfg", *paths) == expected
        code, out, _ = run(capsys, "--list-checks")
        assert code == 0 and out.splitlines()[-1].startswith("div-by-zero")


class TestJobs:
    """`--jobs N` maps whole files over at most N worker processes; nothing
    a run prints or stores may depend on N, or on whether a pool started."""

    FILES = {
        "a.c": DOUBLE_FREE,
        "b.c": LEAK + "int g(int c) { int x; if (c) { x = 1; } return x; }\n",
        "c.c": CLEAN + DOUBLE_FREE,  # f is a.c's f: one cache key, stored once
    }

    def _paths(self, ws, pad=PAD):
        return [ws(name, text + pad) for name, text in self.FILES.items()]

    def test_jobs_do_not_change_output(self, ws, capsys, pools):
        paths = self._paths(ws)
        for fmt in ("text", "json"):
            runs = [run(capsys, "analyze", "--format", fmt, "--no-cache",
                        "--jobs", jobs, *paths)[:2] for jobs in ("1", "2")]
            assert runs[0] == runs[1]
            assert runs[0][0] == 1 and runs[0][1]
        assert pools == [2, 2]

    def test_parallel_cache_equals_sequential(self, ws, capsys, tmp_path, pools):
        paths = self._paths(ws)
        blobs = []
        for jobs in ("1", "2"):
            db = tmp_path / f"jobs{jobs}.db"
            code, out, err = run(capsys, "analyze", "--db", str(db), "--jobs", jobs, *paths)
            assert code == 1
            blobs.append(db.read_bytes())
        assert blobs[0] == blobs[1]
        records, problem = cache._parse(blobs[0])
        assert (len(records), problem) == (3, None)  # one record per file
        # a warm run in either mode hits every function and appends nothing
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "analyze", "--db", str(tmp_path / "jobs1.db"),
                                 "--jobs", jobs, *paths)
            assert "cache hits: 100% (5/5)" in err
        assert (tmp_path / "jobs1.db").read_bytes() == blobs[0]
        assert pools == [2]  # the cold --jobs 2 run; a warm one starts none

    @pytest.mark.parametrize("pad, pool", [("", []), (PAD, [2])], ids=["below", "above"])
    def test_a_function_two_misses_share_hits_alike_at_any_jobs(self, ws, capsys, tmp_path,
                                                                 pools, pad, pool):
        # the second file's k is not answered from the record this run stored
        # for the first: every lookup of a run sees the store as it was loaded
        paths = [ws("a.c", CLEAN + pad), ws("b.c", LEAK + pad)]
        db = tmp_path / "c.db"
        run(capsys, "analyze", "--db", str(db), "--jobs", "1", *paths)
        for path in paths:
            with open(path, "a") as fh:
                fh.write("int k() { return 7; }\n")
        runs, blobs = [], []
        for jobs in ("1", "2"):
            shutil.copy(db, tmp_path / f"jobs{jobs}.db")
            runs.append(run(capsys, "analyze", "--db", str(tmp_path / f"jobs{jobs}.db"),
                            "--jobs", jobs, *paths))
            blobs.append((tmp_path / f"jobs{jobs}.db").read_bytes())
        assert runs[0] == runs[1] and blobs[0] == blobs[1]
        assert "cache hits: 50% (2/4)" in runs[0][2]
        assert pools == pool

    @pytest.mark.parametrize("bad", [
        ["bad_syntax.c"], ["undeclared.c"], ["undeclared.c", "bad_syntax.c"],
        ["bad_syntax.c", "undeclared.c"]],
        ids=["syntax", "undeclared", "undeclared-then-syntax", "syntax-then-undeclared"])
    def test_errors_reported_in_input_order(self, ws, capsys, pools, bad):
        sources = {"ok.c": DOUBLE_FREE + 2 * PAD, "bad_syntax.c": "int f( {\n",
                   "undeclared.c": "int f() { return y; }\n"}
        paths = [ws(name, sources[name]) for name in ["ok.c", *bad]]
        runs = [run(capsys, "analyze", "--no-cache", "--jobs", jobs, *paths)
                for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 2 and out == ""
        assert err.startswith(f"ctl-lint: error: {paths[1]}:")
        assert err.count("\n") == 1
        assert pools == [2]

    @pytest.mark.parametrize("names", [
        ["ok.c", "bad_syntax.c", "ok2.c"], ["ok.c", "missing.c", "bad_syntax.c"],
        ["ok.c", "dir", "bad_syntax.c"], ["ok.c", "bad_syntax.c", "missing.c"]],
        ids=["hit-bad-hit", "hit-missing-bad", "hit-dir-bad", "hit-bad-missing"])
    def test_errors_among_hits_reported_in_input_order(self, ws, capsys, tmp_path, pools,
                                                       names):
        # this process answers the hits; the first failing file, in input
        # order, is still the one reported.  A path that cannot be read
        # counts no bytes, so the pool rests on bad_syntax.c's
        ok = [ws("ok.c", DOUBLE_FREE), ws("ok2.c", LEAK)]
        ws("bad_syntax.c", "int f( {\n" + 2 * PAD)
        (tmp_path / "dir").mkdir()
        paths = [str(tmp_path / name) for name in names]
        expected = run(capsys, "analyze", "--no-cache", "--jobs", "1", *paths)
        code, out, err = expected
        assert code == 2 and out == "" and err.count("\n") == 1 and paths[1] in err
        db = str(tmp_path / "c.db")
        assert run(capsys, "analyze", "--db", db, "--jobs", "1", *ok)[0] == 1
        for jobs in ("1", "2"):
            assert run(capsys, "analyze", "--db", db, "--jobs", jobs, *paths) == expected
        misses = [name for name in names if not name.startswith("ok")]
        assert pools == ([2] if len(misses) > 1 else [])

    @pytest.mark.parametrize("pad, pool", [("", False), (PAD, True)], ids=["below", "above"])
    def test_missed_source_sizes_the_pool(self, ws, capsys, tmp_path, pad, pool):
        # three files miss; a pool starts only with two POOL_BYTES of their source
        paths = self._paths(ws, pad)
        expected = run(capsys, "analyze", "--db", str(tmp_path / "jobs1.db"), "--jobs", "1",
                       *paths)
        outcome = fresh("analyze", "--db", str(tmp_path / "jobs2.db"), "--jobs", "2", *paths)
        assert outcome[:3] == expected and outcome.pool == pool
        assert (tmp_path / "jobs1.db").read_bytes() == (tmp_path / "jobs2.db").read_bytes()

    @pytest.mark.parametrize("filters", [[], ["--min-severity", "warning"],
                                         ["--checks", "memory-leak,div-by-zero"]],
                             ids=["unfiltered", "min-severity", "checks"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_hits_render_as_misses(self, ws, capsys, tmp_path, pools, fmt, filters):
        # a file answered from its record prints what its analysis prints:
        # every run, cold, warm and after an edit, at any --jobs, equals an
        # uncached one-process run but for the stderr line on the cache.  A
        # path that needs escaping, and is named twice, and an empty file
        # ride along; the padded path alone is source enough for a pool
        (tmp_path / "dir with space").mkdir()
        odd = ws('dir with space/é"q\\.c', FIXTURES[0].source + PAD)
        paths = [ws(f"{fx.name}.c", fx.source) for fx in FIXTURES]
        paths[1:1] = [odd, ws("empty.c", ""), odd]

        def analyze(*args):
            code, out, err = run(capsys, "analyze", "--format", fmt, *args, *filters, *paths)
            if fmt == "json":  # json's own escaping, and one sort over all files
                report = json.loads(out)
                assert json.dumps(report, separators=(",", ":")) + "\n" == out
                keys = [(d["file"], d["line"], d["column"], d["check"])
                        for d in report["diagnostics"]]
                assert keys == sorted(keys)
            return code, out, err.splitlines()[:-1]

        expected = analyze("--no-cache", "--jobs", "1")
        assert expected[0] == 1
        dbs = [("1", str(tmp_path / "j1.db")), ("2", str(tmp_path / "j2.db"))]
        for jobs, db in dbs:
            assert analyze("--db", db, "--jobs", jobs) == expected  # cold
            assert analyze("--db", db, "--jobs", jobs) == expected  # warm
        with open(paths[-1], "a") as fh:
            fh.write(LEAK.replace("int f", "int edited"))
        expected = analyze("--no-cache", "--jobs", "1")
        for jobs, db in dbs:
            assert analyze("--db", db, "--jobs", jobs) == expected
        assert pools == [2]  # the cold --jobs 2 run

    def test_pool_workers_at_its_edges(self):
        assert pool_workers(2, 3, 0) == 0
        assert pool_workers(2, 3, POOL_BYTES - 1) == 0
        assert pool_workers(2, 3, POOL_BYTES) == 1
        assert pool_workers(2, 3, 2 * POOL_BYTES - 1) == 1
        assert pool_workers(2, 3, 2 * POOL_BYTES) == 2
        assert pool_workers(8, 3, 8 * POOL_BYTES) == 3
        assert pool_workers(8, 1, 10**9) == 1  # one huge file
        assert pool_workers(1, 3, 10**9) == 1

    def test_hits_and_one_miss_start_no_pool(self, ws, capsys, tmp_path):
        # only missed files go to workers: an all-hit run, or one that misses
        # a single file, starts no pool whatever --jobs and its size say
        paths = self._paths(ws, 2 * PAD)
        run(capsys, "analyze", "--db", str(tmp_path / "c.db"), "--jobs", "1", *paths)
        # an all-hit run, then one after a function is appended to one file
        for appended, hit_line in (("", "cache hits: 100% (5/5)"),
                                   ("int k() { return 0; }\n", "cache hits: 83% (5/6)")):
            with open(paths[1], "a") as fh:
                fh.write(appended)
            shutil.copy(tmp_path / "c.db", tmp_path / "c1.db")
            expected = run(capsys, "analyze", "--db", str(tmp_path / "c1.db"), "--jobs", "1",
                           *paths)
            outcome = fresh("analyze", "--db", str(tmp_path / "c.db"), "--jobs", "2", *paths)
            assert outcome[:3] == expected and not outcome.pool
            assert hit_line in expected[2]

    def test_hits_import_no_analysis_module(self, ws, capsys, tmp_path):
        # a file-tier hit needs the check set's text, not its parse, and no
        # analysis module; a miss imports them in the parent, before a pool forks
        paths = self._paths(ws)
        db = str(tmp_path / "c.db")
        run(capsys, "analyze", "--db", db, "--jobs", "1", *paths)
        hit_modules = ["ctl_lint", "ctl_lint.cache", "ctl_lint.cli", "ctl_lint.diagnostics",
                       "ctl_lint.source"]
        for fmt in ("text", "json"):
            expected = run(capsys, "analyze", "--format", fmt, "--db", db, "--jobs", "1", *paths)
            assert fmt == "json" or "cache hits: 100% (5/5)" in expected[2]
            for jobs in ("1", "2"):
                outcome = fresh("analyze", "--format", fmt, "--db", db, "--jobs", jobs, *paths)
                assert (outcome[:3], outcome.modules) == (expected, hit_modules)
                assert not outcome.pool
        # two edited files miss, and go to a pool of two workers
        for i, path in enumerate(paths[:2]):
            with open(path, "a") as fh:
                fh.write(f"int k{i}() {{ return {i}; }}\n")
        shutil.copy(db, tmp_path / "c1.db")
        expected = run(capsys, "analyze", "--db", str(tmp_path / "c1.db"), "--jobs", "1", *paths)
        assert "cache hits: 71% (5/7)" in expected[2]
        outcome = fresh("analyze", "--db", db, "--jobs", "2", *paths)
        assert outcome[:3] == expected and outcome.pool
        assert {"ctl_lint.engine", "ctl_lint.frontend"} <= set(outcome.modules)

    def test_spawned_workers_match(self, ws, capsys, tmp_path):
        # workers get their state from the pool initializer, not from fork
        paths = self._paths(ws)
        db = str(tmp_path / "c.db")

        def spawned(*args):
            return fresh("analyze", *args, "--jobs", "2", *paths, spawn=True)

        # uncached, cold and warm; a warm run answers every file in the parent
        expected = run(capsys, "analyze", "--format", "json", "--no-cache", "--jobs", "1",
                       *paths)[:2]
        for cache_args, pool in ((["--no-cache"], True), (["--db", db], True),
                                 (["--db", db], False)):
            outcome = spawned("--format", "json", *cache_args)
            assert outcome[:2] == expected, outcome.err
            assert outcome.pool == pool
        # a whitespace-only edit to two files: each misses the file tier, and
        # the workers answer their functions from the store they were pickled with
        for path in paths[:2]:
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write("\n" + text)
        expected = run(capsys, "analyze", "--no-cache", "--jobs", "1", *paths)[:2]
        outcome = spawned("--db", db)
        assert outcome[:2] == expected and "cache hits: 100% (5/5)" in outcome.err, outcome.err
        assert outcome.pool

    def test_one_process_runs_import_no_pool(self, ws):
        # the process pool's modules cost start-up time that only --jobs > 1
        # needs, however much source misses
        paths = [ws("bug.c", DOUBLE_FREE + 2 * PAD), ws("leak.c", LEAK + 2 * PAD)]
        outcome = fresh("analyze", "--no-cache", "--jobs", "1", *paths)
        assert outcome.code == 1 and not outcome.pool, outcome.err

    def test_one_process_runs_load_no_class_generator_or_logging(self, ws, tmp_path):
        # no module generates classes at import, `logging` loads only when
        # something is logged, and the value analyses compute with ints, not
        # `Fraction`s: a run that misses, one whose files all hit and one
        # without the cache load none of them
        paths = self._paths(ws)
        db = str(tmp_path / "c.db")
        for args, hit_line in ((["--db", db], "cache hits: 0% (0/5)"),
                               (["--db", db], "cache hits: 100% (5/5)"),
                               (["--no-cache"], "cache: disabled")):
            outcome = fresh("analyze", *args, "--jobs", "1", *paths)
            assert outcome.code == 1 and hit_line in outcome.err, outcome.err
            assert outcome.stdlib == [] and not outcome.pool

    def test_default_is_the_usable_cpus(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert _parse_analyze_args(["x.c"]).jobs == expected

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from ctl_lint import engine
from ctl_lint.cli import _parse_analyze_args, main, render_summary, render_text
from ctl_lint.diagnostics import Diagnostic
from ctl_lint.engine import Counters
from ctl_lint.frontend import MAX_NESTING, SourceLocation

CLEAN = "int add(int a, int b) { return a + b; }\n"
DOUBLE_FREE = "int f(int *p) { free(p); free(p); return 0; }\n"
LEAK = "int f() { int *p = malloc(4); return 0; }\n"


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

    def test_semantic_error_exits_two(self, ws, capsys):
        path = ws("x.c", "int f() { return y; }\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert "undeclared 'y'" in err

    def test_no_arguments_exits_two(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

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
        text = render_text([d])
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
        text = render_summary(ds, Counters(), False)
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
        code, out, _ = run(capsys, "--list-checks")
        assert code == 0
        for check_id in ("null-deref", "memory-leak", "use-after-free",
                         "double-free", "uninit-read", "dead-code",
                         "buffer-overrun", "div-by-zero"):
            assert check_id in out

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

    def test_user_spec_duplicate_id_rejected(self, ws, capsys):
        chk = ws("dup.chk", """
check double-free {
  severity: info
  forall $v: pointer
  label f := free_of($v)
  property: EF f
}
""")
        path = ws("bug.c", DOUBLE_FREE)
        code, _, err = run(capsys, "analyze", "--specs", chk, path)
        assert code == 2 and "duplicate check id" in err

    @pytest.mark.parametrize("refine", ["on", "off"])
    def test_user_spec_without_single_path_witnesses_rejected(self, ws, capsys, refine):
        chk = ws("af.chk", f"""
check eventually-deref {{
  severity: warning
  forall $v: pointer
  label d := deref($v)
  property: AF d
  refine: {refine}
}}
""")
        path = ws("g.c", "int g(int *p) { return *p; }\n")
        message = f"{chk}:2:1: the property of 'eventually-deref' has no single-path witness"
        for args in (["analyze", "--specs", chk, path],
                     ["analyze", "--specs", chk, "--max-witnesses", "0", path],
                     ["--list-checks", "--specs", chk]):
            code, out, err = run(capsys, *args)
            assert (code, out, err) == (2, "", f"ctl-lint: error: {message}\n")

    def test_unwritable_db_path_is_an_error(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, _, err = run(capsys, "analyze", "--db", "missing/c.db", path)
        assert (code, err) == (2, "ctl-lint: error: cache path is not writable: missing/c.db\n")

    def test_max_witnesses_zero_unconfirmed(self, ws, capsys):
        path = ws("bug.c", DOUBLE_FREE)
        code, out, _ = run(capsys, "analyze", "--max-witnesses", "0", "--no-cache", path)
        assert code == 1
        assert "(unconfirmed)" in out

    def test_multiple_files_sorted_merge(self, ws, capsys):
        p1 = ws("a.c", DOUBLE_FREE)
        p2 = ws("b.c", LEAK)
        code, out, _ = run(capsys, "analyze", p1, p2)
        files = [line.split(":")[0] for line in out.splitlines()
                 if not line.startswith("  ")]
        assert files == sorted(files)


class TestJobs:
    """`--jobs N` maps whole files over N worker processes; nothing a run
    prints or stores may depend on N."""

    FILES = {
        "a.c": DOUBLE_FREE,
        "b.c": LEAK + "int g(int c) { int x; if (c) { x = 1; } return x; }\n",
        "c.c": CLEAN + DOUBLE_FREE,  # f is a.c's f: one cache key, stored once
    }

    def _paths(self, ws):
        return [ws(name, text) for name, text in self.FILES.items()]

    def test_jobs_do_not_change_output(self, ws, capsys):
        paths = self._paths(ws)
        for fmt in ("text", "json"):
            runs = [run(capsys, "analyze", "--format", fmt, "--no-cache",
                        "--jobs", jobs, *paths)[:2] for jobs in ("1", "2")]
            assert runs[0] == runs[1]
            assert runs[0][0] == 1 and runs[0][1]

    def test_parallel_cache_equals_sequential(self, ws, capsys, tmp_path):
        paths = self._paths(ws)
        blobs = []
        for jobs in ("1", "2"):
            db = tmp_path / f"jobs{jobs}.db"
            code, out, err = run(capsys, "analyze", "--db", str(db), "--jobs", jobs, *paths)
            assert code == 1
            blobs.append(db.read_bytes())
        assert blobs[0] == blobs[1]
        records, problem = engine._parse(blobs[0])
        assert (len(records), problem) == (3, None)  # one record per file
        # a warm run in either mode hits every function and appends nothing
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "analyze", "--db", str(tmp_path / "jobs1.db"),
                                 "--jobs", jobs, *paths)
            assert "cache hits: 100% (5/5)" in err
        assert (tmp_path / "jobs1.db").read_bytes() == blobs[0]

    @pytest.mark.parametrize("bad", [
        ["bad_syntax.c"], ["undeclared.c"], ["undeclared.c", "bad_syntax.c"],
        ["bad_syntax.c", "undeclared.c"]],
        ids=["syntax", "undeclared", "undeclared-then-syntax", "syntax-then-undeclared"])
    def test_errors_reported_in_input_order(self, ws, capsys, bad):
        sources = {"ok.c": DOUBLE_FREE, "bad_syntax.c": "int f( {\n",
                   "undeclared.c": "int f() { return y; }\n"}
        paths = [ws(name, sources[name]) for name in ["ok.c", *bad]]
        runs = [run(capsys, "analyze", "--no-cache", "--jobs", jobs, *paths)
                for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 2 and out == ""
        assert err.startswith(f"ctl-lint: error: {paths[1]}:")
        assert err.count("\n") == 1

    def test_spawned_workers_match(self, ws, capsys, tmp_path):
        # workers get their state from the pool initializer, not from fork
        paths = self._paths(ws)
        code, expected, _ = run(capsys, "analyze", "--format", "json", "--no-cache",
                                "--jobs", "1", *paths)
        script = ("import multiprocessing, sys\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "from ctl_lint.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", "--format", "json", "--no-cache",
             "--jobs", "2", *paths], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, expected), proc.stderr

    def test_one_process_runs_import_no_pool(self, ws):
        # the process pool's modules cost start-up time that only --jobs > 1 needs
        path = ws("bug.c", DOUBLE_FREE)
        script = ("import sys\n"
                  "import ctl_lint.cli\n"
                  "pool = 'concurrent.futures.process'\n"
                  "assert pool not in sys.modules, 'imported by ctl_lint.cli'\n"
                  "ctl_lint.cli.main(['analyze', '--no-cache', '--jobs', '1', sys.argv[1]])\n"
                  "assert pool not in sys.modules, 'imported by a --jobs 1 run'\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_default_is_the_usable_cpus(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert _parse_analyze_args(["x.c"]).jobs == expected

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import pickle
import zlib

import pytest

from ctl_lint import cache, engine
from ctl_lint import frontend as F
from ctl_lint.cfg import build_cfg
from ctl_lint.cache import CACHE_HEADER, CacheDb, cache_key, canonical_json
from ctl_lint.engine import (
    Counters, EngineConfig, FunctionSummary, AnalysisError, analyze_unit, apply_summaries,
    call_order,
)
from ctl_lint.speclang import SpecError, label_index, load_checkset
from unit_results import diagnostics_of

CHECKS, _ = load_checkset()
CONFIG = EngineConfig(checkset_text="builtin")


def analyze(src, db=None, counters=None, config=CONFIG, file="test.c"):
    """Analyze one unit and store its cache record, as the CLI does."""
    tu = F.parse(src, file)
    record = analyze_unit(tu, CHECKS, db, config, counters)
    if db is not None:
        db.put(cache.file_key(file, config.checkset_text, config.max_witnesses), record)
    return diagnostics_of(tu, record)


def ids(diags):
    return sorted(d.check_id for d in diags)


def clean(tasks: int) -> list:
    """The record of a clean function with `tasks` tasks."""
    return [[], [False, [], []], tasks, 0]


def file_record(function_key: str, tasks: int) -> list:
    """A v5 file record of one `clean` function."""
    return ["0" * 32, [0], [[function_key, clean(tasks)]]]


class TestSummaries:
    @pytest.fixture(autouse=True)
    def _db(self, tmp_path):
        self.db = CacheDb(str(tmp_path / "c.db"))

    def _summaries(self, src):
        """Each function's summary from the unit's cache record, which
        lists the functions in source order."""
        tu = F.parse(src, "a.c")
        _, _, functions = analyze_unit(tu, CHECKS, self.db, CONFIG)
        return {f.name: FunctionSummary(f.name, may_null, frozenset(frees), frozenset(derefs))
                for f, (_, (_, (may_null, frees, derefs), _, _))
                in zip(tu.functions, functions, strict=True)}

    def test_return_zero_may_be_null(self):
        s = self._summaries("int *f() { return 0; }")
        assert s["f"].may_return_null

    def test_free_on_every_path(self):
        s = self._summaries("void g(int *p) { free(p); }")
        assert s["g"].always_frees == {0}

    def test_conditional_free_is_not_always(self):
        s = self._summaries("void g(int *p, int c) { if (c) { free(p); } }")
        assert s["g"].always_frees == frozenset()

    def test_mutual_recursion_pessimistic(self):
        src = ("int f(int n) { return g(n); }\n"
               "int g(int n) { return f(n - 1); }\n")
        s = self._summaries(src)
        assert s["f"].may_return_null and s["g"].may_return_null
        assert s["f"].always_frees == frozenset()

    def test_null_via_local_variable(self):
        s = self._summaries("int *f(int c) { int *p = 0; if (c) { p = malloc(4); } return p; }")
        assert s["f"].may_return_null

    def test_transitive_may_null(self):
        src = "int *inner() { return 0; }\nint *outer() { return inner(); }\n"
        s = self._summaries(src)
        assert s["outer"].may_return_null

    def test_deref_unchecked(self):
        s = self._summaries("int use(int *p) { return *p; }")
        assert s["use"].derefs_param_unchecked == {0}

    def test_deref_after_check_is_fine(self):
        s = self._summaries("int use(int *p) { if (p != 0) { return *p; } return 0; }")
        assert s["use"].derefs_param_unchecked == frozenset()

    def test_call_order_is_bottom_up(self):
        src = ("int leaf() { return 1; }\n"
               "int mid() { return leaf(); }\n"
               "int top() { return mid(); }\n")
        tu = F.parse(src, "a.c")
        order, cyclic, _ = call_order(tu.functions)
        assert order.index("leaf") < order.index("mid") < order.index("top")
        assert cyclic == set()

    def test_recorded_calls_match_the_cfg(self):
        # the callees the parser records are the calls under the CFG nodes'
        # roots, unreachable code, conditions and for headers included
        from fixtures_bugs import FIXTURES
        from program_gen import generate_program
        sources = [generate_program(seed) for seed in range(200)]
        sources += [fixture.source for fixture in FIXTURES]
        sources.append("int g(int x) { return x; }\n"
                       "int f(int n) { for (n = g(1); g(n) && !g(2); n = g(n)) { } "
                       "return 0; g(3); while (g(4)) { } }\n")
        for src in sources:
            tu = F.parse(src, "a.c")
            names = {f.name for f in tu.functions}
            _, _, callees = call_order(tu.functions)
            for f in tu.functions:
                under_roots = {e.name for node in build_cfg(f, tu.globals).nodes
                               for root in node.roots for e in F.walk(root)
                               if isinstance(e, F.Call) and e.name in names}
                assert callees[f.name] == sorted(under_roots), (src, f.name)


class TestApplySummaries:
    def test_may_null_callee_labels_null_assign(self):
        src = "int *mk() { return 0; }\nint f() { int *p = mk(); return *p; }\n"
        diags = analyze(src)
        assert "null-deref" in ids(diags)

    def test_wrapper_free_makes_double_free(self):
        src = ("void rel(int *q) { free(q); }\n"
               "int f() { int *p = malloc(4); rel(p); free(p); return 0; }\n")
        assert "double-free" in ids(analyze(src))

    def test_wrapper_free_prevents_leak(self):
        src = ("void rel(int *q) { free(q); }\n"
               "int f() { int *p = malloc(4); rel(p); return 0; }\n")
        assert "memory-leak" not in ids(analyze(src))

    def test_unknown_callee_no_augmentation(self):
        tu = F.parse("int f(int *p) { helper(p); return 0; }\nint helper(int *q) { return 1; }", "a.c")
        cfg = build_cfg(tu.functions[0], tu.globals)
        assert apply_summaries(cfg, {}) == {}

    def test_facts_limited_to_var_args(self):
        src = ("void rel(int *q) { free(q); }\n"
               "int f(int *p) { rel(p + 1); free(p); return 0; }\n")
        # rel's argument is not a plain variable: no free_of(p) fact
        assert "double-free" not in ids(analyze(src))


class TestDeadCode:
    def test_statement_after_return(self):
        src = "int f() { int x = 0; return x; x = 1; return x; }"
        diags = [d for d in analyze(src) if d.check_id == "dead-code"]
        assert len(diags) == 1
        assert diags[0].severity == "info"
        assert diags[0].loc.column > 0

    def test_dead_loop_reported_once(self):
        src = "int f(int c) { return 0; while (c) { c = c - 1; } return c; }"
        diags = [d for d in analyze(src) if d.check_id == "dead-code"]
        assert len(diags) == 1

    def test_clean_function_silent(self):
        src = "int f(int c) { if (c) { return 1; } return 0; }"
        assert "dead-code" not in ids(analyze(src))

    def test_matches_graph_reachability(self):
        from program_gen import generate_program
        from ctl_lint.cfg import to_kripke
        from oracle_ctl import reverse
        from ctl_lint.ctl import EF, Prop, check
        for seed in range(30):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                g = build_cfg(f, tu.globals)
                k = reverse(to_kripke(g, {"entry": frozenset({g.entry})}))
                sat = check(k, EF(Prop("entry")))
                via_ctl = {n.id for n in g.nodes if not sat.holds(EF(Prop("entry")), n.id)}
                assert via_ctl == set(g.unreachable)


class TestCache:
    def test_warm_run_all_hits_and_identical(self, tmp_path):
        src = "int f(int *p) { free(p); free(p); return 0; }\nint g() { return 1; }\n"
        db_path = str(tmp_path / "c.db")
        c1, c2, c3 = Counters(), Counters(), Counters()
        d1 = analyze(src, CacheDb(db_path), c1)
        d2 = analyze(src, CacheDb(db_path), c2)
        d3 = analyze(src, None, c3)
        assert d1 == d2 == d3
        assert c1.cache_hits == 0 and c1.cache_misses == 2
        assert c2.cache_hits == 2 and c2.cache_misses == 0
        assert (c1.content_tasks, c1.content_skipped) == (c2.content_tasks, c2.content_skipped)

    def test_edit_one_function_reanalyzes_only_it(self, tmp_path):
        src = "int f() { return 1; }\nint g() { return 2; }\nint h() { return f() + g(); }\n"
        db_path = str(tmp_path / "c.db")
        analyze(src, CacheDb(db_path))
        edited = src.replace("return 2", "return 3")
        c = Counters()
        analyze(edited, CacheDb(db_path), c)
        # g changed but its summary did not, so only g itself re-analyzes
        assert c.cache_misses == 1 and c.cache_hits == 2

    def test_summary_change_invalidates_callers(self, tmp_path):
        src = ("void rel(int *q) { free(q); }\n"
               "int f() { int *p = malloc(4); rel(p); return 0; }\n")
        db_path = str(tmp_path / "c.db")
        d1 = analyze(src, CacheDb(db_path))
        assert "memory-leak" not in ids(d1)
        edited = src.replace("{ free(q); }", "{ }")
        c = Counters()
        d2 = analyze(edited, CacheDb(db_path), c)
        assert c.cache_misses == 2  # rel changed and f's summary environment changed
        assert "memory-leak" in ids(d2)

    def test_moving_function_between_lines_keeps_hit(self, tmp_path):
        src = "int f(int *p) { free(p); free(p); return 0; }\n"
        moved = "int pad() { return 0; }\n\n\n" + src
        db_path = str(tmp_path / "c.db")
        d1 = analyze(src, CacheDb(db_path))
        c = Counters()
        d2 = analyze(moved, CacheDb(db_path), c)
        assert c.cache_hits == 1  # f hit despite the line shift
        f_diags = [d for d in d2 if d.function == "f"]
        assert {d.loc.line for d in f_diags} == {d.loc.line + 3 for d in d1}

    def test_corrupt_record_treated_as_miss(self, tmp_path, caplog):
        src = "int f() { return 1; }\n"
        db_file = tmp_path / "c.db"
        db_path = str(db_file)
        analyze(src, CacheDb(db_path))
        blob = db_file.read_bytes()
        head_end = blob.index(b"\n", len(CACHE_HEADER) + 1)
        db_file.write_bytes(blob[:head_end + 5])  # truncate inside f's payload
        with caplog.at_level(logging.WARNING, logger="ctl_lint"):
            c = Counters()
            d = analyze(src, CacheDb(db_path), c)
        assert c.cache_misses == 1
        assert any("corrupt" in r.message for r in caplog.records)
        c2 = Counters()
        analyze(src, CacheDb(db_path), c2)  # entry was rewritten
        assert c2.cache_hits == 1

    def test_non_ascii_record_length_is_corrupt(self, tmp_path, caplog):
        # "²" passes str.isdigit but not int(); the record must count
        # as corrupt, not crash the run
        src = "int f() { return 1; }\n"
        db_file = tmp_path / "c.db"
        db_path = str(db_file)
        analyze(src, CacheDb(db_path))
        header, head, rest = db_file.read_bytes().split(b"\n", 2)
        key, length, crc = head.split(b" ")
        head = b" ".join([key, length[:-1] + "²".encode(), crc])
        db_file.write_bytes(header + b"\n" + head + b"\n" + rest)
        with caplog.at_level(logging.WARNING, logger="ctl_lint"):
            c = Counters()
            analyze(src, CacheDb(db_path), c)
        assert c.cache_misses == 1
        assert any("corrupt" in r.message for r in caplog.records)
        c2 = Counters()
        analyze(src, CacheDb(db_path), c2)  # the record was rewritten
        assert c2.cache_hits == 1

    def test_put_of_held_record_appends_nothing(self, tmp_path):
        db_file = tmp_path / "c.db"
        db_path = str(db_file)
        db = CacheDb(db_path)
        db.put("a" * 64, file_record("b" * 64, 1))
        size = db_file.stat().st_size
        db.put("a" * 64, file_record("b" * 64, 1))
        CacheDb(db_path).put("a" * 64, file_record("b" * 64, 1))
        assert db_file.stat().st_size == size
        db.put("a" * 64, file_record("b" * 64, 2))  # a changed record is appended
        assert CacheDb(db_path).get("b" * 64) == clean(2)

    def test_bad_header_starts_fresh(self, tmp_path, caplog):
        db_file = tmp_path / "c.db"
        db_file.write_text("not a cache\n")
        with caplog.at_level(logging.WARNING, logger="ctl_lint"):
            c = Counters()
            analyze("int f() { return 1; }\n", CacheDb(str(db_file)), c)
        assert c.cache_misses == 1
        assert db_file.read_bytes().startswith((CACHE_HEADER + "\n").encode())

    def test_bad_header_file_is_replaced_by_a_valid_one(self, tmp_path):
        db_file = tmp_path / "c.db"
        db_file.write_text("not a cache\n")
        inode = db_file.stat().st_ino
        db = CacheDb(str(db_file))
        db.put("a" * 64, file_record("c" * 64, 1))  # rewrites the store
        db.put("b" * 64, file_record("d" * 64, 2))  # appends to the new one
        assert db_file.stat().st_ino != inode  # renamed over, not truncated
        assert db_file.read_bytes().startswith((CACHE_HEADER + "\n").encode())
        loaded = CacheDb(str(db_file))
        assert (loaded.get("c" * 64), loaded.get("d" * 64)) == (clean(1), clean(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.db"]

    def test_failed_rewrite_keeps_the_old_store(self, tmp_path, monkeypatch):
        db_file = tmp_path / "c.db"
        db = CacheDb(str(db_file))
        db.put("a" * 64, file_record("c" * 64, 1))
        db.put("b" * 64, file_record("d" * 64, 2))
        with open(db_file, "ab") as fh:
            fh.write(b"garbage\n")  # a corrupt tail: the next store rewrites
        old = db_file.read_bytes()

        class HalfWriter:
            """A file that fails with a full disk halfway through a write."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh

        db = CacheDb(str(db_file))
        monkeypatch.setattr(cache, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            db.put("e" * 64, file_record("f" * 64, 3))
        monkeypatch.undo()
        assert db_file.read_bytes() == old
        loaded = CacheDb(str(db_file))
        assert (loaded.get("c" * 64), loaded.get("d" * 64)) == (clean(1), clean(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.db"]

    def test_record_format(self, tmp_path):
        db_file = tmp_path / "c.db"
        src = "// f starts after this line\nint f() { return 1; }\n"
        analyze(src, CacheDb(str(db_file)))
        header, head, rest = db_file.read_bytes().split(b"\n", 2)
        assert header.decode() == CACHE_HEADER
        key, length, crc = head.decode().split(" ")
        payload = rest[:int(length)]
        assert rest == payload + b"\n"  # the file's one record, then the end
        assert key == cache.file_key("test.c", CONFIG.checkset_text, CONFIG.max_witnesses)
        assert int(crc, 16) == zlib.crc32(key.encode() + payload)  # of the compressed bytes
        # zlib-compressed canonical JSON: [digest, [start offset, ...],
        #   [[function key, [diagnostics, [may_return_null, always_frees,
        #   derefs_param_unchecked], tasks, skipped]], ...]]
        text = zlib.decompress(payload)
        assert text == canonical_json(json.loads(text)).encode()
        digest, starts, [[function_key, record]] = json.loads(text)
        assert digest == hashlib.sha256(src.encode()).hexdigest()[:32]
        assert starts == [src.index("int f")]
        assert len(function_key) == 64 and all(c in "0123456789abcdef" for c in function_key)
        assert record == [[], [False, [], []], 0, 0]

    def test_new_path_hits_every_function(self, tmp_path):
        src = "int f(int *p) { free(p); free(p); return 0; }\nint g() { return f(0); }\n"
        db_path = str(tmp_path / "c.db")
        d1 = analyze(src, CacheDb(db_path), file="a.c")
        c = Counters()
        d2 = analyze(src, CacheDb(db_path), c, file="moved/b.c")
        assert (c.cache_hits, c.cache_misses) == (2, 0)
        assert d2 == analyze(src, None, file="moved/b.c") != d1
        assert {d.loc.file for d in d2} == {"moved/b.c"}

    def test_key_depends_on_config_and_checkset(self):
        tu = F.parse("int f() { return 1; }", "a.c")
        text = tu.functions[0].source_text
        base = cache_key(text, "checks-a", "{}", "[]", 5)
        assert base != cache_key(text, "checks-b", "{}", "[]", 5)
        assert base != cache_key(text, "checks-a", "{}", "[]", 6)
        env = canonical_json({"g": FunctionSummary("g").to_json_obj()})
        assert base != cache_key(text, "checks-a", env, "[]", 5)
        assert base == cache_key(text, "checks-a", "{}", "[]", 5)


class TestAnalyzeUnit:
    @pytest.mark.parametrize("src, runs", [
        ("int add(int a, int b) { return a + b; }\n", 0),
        ("int f(int a[4], int i) { return a[i]; }", 1),
        ("int g[4];\nint f(int i) { g[i] = 1; return 0; }", 1),
        ("int f(int i) { int a[2]; a[0] = i; return a[0]; }", 1),
        ("int f(int x) { return 10 / x; }", 1),
        ("int f(int x) { return 10 % x; }", 1),
        ("int f(int *p) { return p[1]; }", 0),
    ], ids=["clean", "array-param", "array-global", "array-local", "division",
            "modulo", "pointer-index"])
    def test_intervals_only_where_a_check_can_fire(self, monkeypatch, src, runs):
        calls = []
        real = engine.interval_analyze

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, "interval_analyze", counting)
        analyze(src)
        assert len(calls) == runs

    def test_record_only_when_the_store_lacks_it(self, tmp_path):
        src = "int f() { return 1; }\nint g() { return f(); }\n"
        db = CacheDb(str(tmp_path / "c.db"))

        def record(src, file="a.c"):
            return analyze_unit(F.parse(src, file), CHECKS, db, CONFIG)

        key = cache.file_key("a.c", CONFIG.checkset_text, CONFIG.max_witnesses)
        stored = record(src)
        digest, starts, functions = stored
        assert len(functions) == 2  # f's and g's, in source order
        assert digest == F.source_digest(src.encode())
        assert starts == [0, src.index("int g")]
        assert not os.path.exists(db.path)  # analyze_unit only reads the store
        assert stored == analyze_unit(F.parse(src, "a.c"), CHECKS, None, CONFIG)
        db.put(key, stored)
        size = os.path.getsize(db.path)
        # every function hits: the same record, which the store holds byte for byte
        assert record(src) == stored
        db.put(key, stored)
        assert os.path.getsize(db.path) == size
        # every function hits, but the path, the bytes or the function list is new
        assert record(src, "b.c") == stored
        spaced = src.replace("\n", "\n\n")
        assert record(spaced) == [F.source_digest(spaced.encode()),
                                  [0, spaced.index("int g")], functions]
        one = src.split("\n")[0]
        assert record(one) == [F.source_digest(one.encode()), [0], functions[:1]]

    def test_cache_hits_build_no_cfg(self, monkeypatch, tmp_path):
        built = []
        real = engine.build_cfg

        def counting(f, globals_):
            built.append(f.name)
            return real(f, globals_)

        monkeypatch.setattr(engine, "build_cfg", counting)
        src = ("int f() { return 1; }\nint g() { return f(); }\n"
               "int h(int *p) { free(p); return g(); }\n")
        db_path = str(tmp_path / "c.db")
        analyze(src, CacheDb(db_path))
        assert sorted(built) == ["f", "g", "h"]
        built.clear()
        c = Counters()
        analyze(src, CacheDb(db_path), c)
        assert built == [] and c.cache_hits == 3
        c = Counters()
        analyze(src.replace("return 1", "return 2"), CacheDb(db_path), c)
        # a body edit that keeps f's summary: only f misses
        assert built == ["f"] and c.cache_misses == 1
        built.clear()
        c = Counters()
        analyze(src.replace("return 1", "return 0"), CacheDb(db_path), c)
        # f may now return null, which changes the summaries g and h see
        assert built == ["f", "g", "h"] and c.cache_misses == 3

    def test_structures_share_the_cfg_transitions(self, monkeypatch):
        # every task and summary structure of a function is a labeling of
        # one skeleton: its CFG's successor and predecessor lists
        from program_gen import generate_program
        built, checked, in_summary = [], [], []
        real_build, real_check, real_summary = \
            engine.build_cfg, engine.check, engine.compute_summary

        def building(f, globals_):
            built.append(real_build(f, globals_))
            return built[-1]

        def checking(k, formula):
            checked.append(k)
            return real_check(k, formula)

        def summarizing(*args):
            before = len(checked)
            result = real_summary(*args)
            in_summary.extend(checked[before:])
            return result

        monkeypatch.setattr(engine, "build_cfg", building)
        monkeypatch.setattr(engine, "check", checking)
        monkeypatch.setattr(engine, "compute_summary", summarizing)
        for seed in range(5):
            analyze(generate_program(seed))
        assert in_summary and len(checked) > len(in_summary)
        skeletons = {id(g.kripke_succ): g for g in built}
        for k in checked:
            g = skeletons[id(k.succ)]
            assert k.pred is g.kripke_pred and k.n == len(g.nodes)

    def test_label_index_built_once_per_function(self, monkeypatch):
        import ctl_lint.engine as engine
        built = []

        def counting(cfg, extra=None):
            built.append(cfg.function)
            return label_index(cfg, extra)

        monkeypatch.setattr(engine, "label_index", counting)
        # r is recursive: its index waits until its own summary is known
        analyze("int f() { return 1; }\nint g() { return f(); }\n"
                "int r(int n) { if (n) { return r(n - 1); } return 0; }\n")
        assert sorted(built) == ["f", "g", "r"]

    def test_each_expression_tree_walked_once(self, monkeypatch):
        # every pass reads the CFG's node table, so no pass walks a node's
        # expression trees again
        from fixtures_bugs import FIXTURES
        from program_gen import generate_program
        walked: dict[int, list] = {}  # id(root) -> [root, walks]; holding root keeps its id
        real_walk = F.walk

        def counting(root):
            walked.setdefault(id(root), [root, 0])[1] += 1
            return real_walk(root)

        monkeypatch.setattr(F, "walk", counting)
        sources = [fixture.source for fixture in FIXTURES]
        sources += [generate_program(seed) for seed in range(20)]
        for src in sources:
            analyze(src)
        assert walked
        assert max(walks for _, walks in walked.values()) == 1

    def test_errors_survive_pickling(self):
        loc = F.SourceLocation("a.c", 3, 4)
        for exc in (F.ParseError(loc, "expected ';'"), SpecError(loc, "bad label"),
                    AnalysisError([F.SemanticError(loc, "undeclared 'y'")])):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc) and str(back) == str(exc)
        assert pickle.loads(pickle.dumps(exc)).errors == exc.errors

    def test_not_well_formed_raises(self):
        with pytest.raises(AnalysisError) as exc:
            analyze("int f() { return y; }")
        assert "undeclared 'y'" in str(exc.value)

    def test_diagnostics_sorted(self):
        src = ("int a() { int *p = 0; return *p; }\n"
               "int b() { int *q = malloc(4); return 0; }\n")
        diags = analyze(src)
        keys = [(d.loc.file, d.loc.line, d.loc.column, d.check_id) for d in diags]
        assert keys == sorted(keys)

    def test_dedup_keeps_confirmed(self):
        # two bindings can hit the same location; only one survives per key
        diags = analyze("int f(int *p) { free(p); free(p); return 0; }")
        keys = [(d.check_id, d.loc, d.function) for d in diags]
        assert len(keys) == len(set(keys))

    def test_same_location_distinct_messages_kept(self):
        # both operands are read uninitialized at the same declaration
        diags = analyze("int f() { int a; int b; int x = a + b; return x; }")
        uninit = [d for d in diags if d.check_id == "uninit-read"]
        assert len({d.loc for d in uninit}) == 1
        assert sorted(d.message for d in uninit) == [
            "'a' may be read before initialization",
            "'b' may be read before initialization"]

    def test_counters_consistent(self, tmp_path):
        src = "int f(int *p, int *q) { free(p); free(q); free(p); return 0; }"
        db_path = str(tmp_path / "c.db")
        cold, warm = Counters(), Counters()
        analyze(src, CacheDb(db_path), cold)
        analyze(src, CacheDb(db_path), warm)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert (cold.content_tasks, cold.content_skipped) == (warm.content_tasks, warm.content_skipped)
        assert 0 <= cold.content_skipped <= cold.content_tasks and cold.content_tasks > 0
        assert cold.functions == warm.functions == 1

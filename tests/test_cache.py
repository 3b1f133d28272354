"""The v4 cache store: corruption, concurrent runs, liveness and compaction."""

from __future__ import annotations

import fcntl
import json
import os
import random
import re
import string
import subprocess
import sys
import zlib

import pytest

from ctl_lint import cli, engine
from ctl_lint import frontend as F
from ctl_lint.cli import main
from ctl_lint.engine import CacheDb, EngineConfig, analyze_unit, canonical_json
from ctl_lint.speclang import load_checkset
from fixtures_bugs import FIXTURES

CHECKS, CHECKSET_TEXT = load_checkset()
CLI_CONFIG = EngineConfig(checkset_text=CHECKSET_TEXT, max_witnesses=5)  # the CLI's defaults

SOURCES = {
    "a.c": "int gcfg = 1;\nint f(int *p) { free(p); free(p); return gcfg; }\n"
           "int g(int *q) { return *q; }\nint h() { int *r = 0; return g(r); }\n",
    "b.c": "int gcfg = 1;\nint m() { int *p = malloc(4); return gcfg; }\n"
           "int n(int c) { int x; if (c) { x = 1; } return x; }\n",
    "c.c": "int gcfg = 1;\nint d(int x) { return 10 / x; }\nint e() { return d(0); }\n",
}


@pytest.fixture
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CTL_LINT_DB", raising=False)
    for name, text in SOURCES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, *args):
    code = main(["analyze", "--jobs", "1", *args])
    out = capsys.readouterr()
    return code, out.out, out.err


def hits(err: str) -> tuple[int, int]:
    m = re.search(r"cache hits: \d+% \((\d+)/(\d+)\)", err)
    return int(m[1]), int(m[2])


def edit_global(path, value: int) -> None:
    """A new initializer for the file's global, which every key of the
    file's functions covers."""
    text = path.read_text()
    path.write_text(re.sub(r"int gcfg = -?\d+;", f"int gcfg = {value};", text, count=1))


def func_record(n: int = 0, pad: str = "") -> list:
    """A function record (as the engine writes them) with `n` tasks."""
    return [[], [False, [], []], n, 0] if not pad else [[[pad]], [False, [], []], n, 0]


def file_record(*functions: tuple[str, list]) -> list:
    """A file record listing (function key, function record) pairs."""
    return [[key, record] for key, record in functions]


def framed(key: str, obj) -> int:
    return len(engine._frame(key, engine._encode(obj)))


# deterministic padding that zlib barely shrinks: a record padded with a
# prefix of it grows by about three bytes for every four characters
NOISE = "".join(random.Random(0).choices(string.ascii_letters + string.digits, k=4000))


class TestCorruption:
    def test_truncated_or_flipped_store_never_changes_the_report(self, ws, capsys,
                                                                 monkeypatch):
        # every prefix of the store, and the store with any one byte changed,
        # gives the report of an uncached run and no internal error.  For
        # speed, every run reuses one loaded check set, and rewrites skip
        # the disk flush, which no in-process run can observe.
        monkeypatch.setattr(cli, "load_checkset", lambda paths: (CHECKS, CHECKSET_TEXT))
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        (ws / "s.c").write_text("int f() { int x; return x; }\nint g() { return f(); }\n")
        expected = run(capsys, "--format", "json", "--no-cache", "s.c")[:2]
        db = ws / "c.db"
        assert run(capsys, "--format", "json", "--db", str(db), "s.c")[:2] == expected
        good = db.read_bytes()
        assert len(engine._parse(good)[0]) == 1  # the file's one record
        stores = [good[:n] for n in range(len(good))]
        stores += [good[:i] + bytes([good[i] ^ 1]) + good[i + 1:] for i in range(len(good))]
        for blob in stores:
            db.write_bytes(blob)
            code, out, err = run(capsys, "--format", "json", "--db", str(db), "s.c")
            assert (code, out) == expected, blob
            assert "internal error" not in err
            # repaired: every record is back, the store rewritten or completed
            assert engine._parse(db.read_bytes()) == engine._parse(good)

    def test_checksum_mismatch_skips_only_its_record(self, tmp_path, caplog):
        path = tmp_path / "c.db"
        fa, fb, ka, kb = (c * 64 for c in "abcd")
        db = CacheDb(str(path))
        db.put(fa, file_record((ka, func_record(1))))
        db.put(fb, file_record((kb, func_record(2))))
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"\n", len(engine._HEADER_LINE)) + 1] ^= 1  # fa's payload
        path.write_bytes(bytes(blob))
        with caplog.at_level("WARNING", logger="ctl_lint"):
            loaded = CacheDb(str(path))
        assert (loaded.get(ka), loaded.get(kb)) == (None, func_record(2))
        assert any("checksum" in r.message for r in caplog.records)
        loaded.put(fa, file_record((ka, func_record(1))))  # the next store rewrites the file
        again = CacheDb(str(path))
        assert (again.get(ka), again.get(kb)) == (func_record(1), func_record(2))
        assert len(engine._parse(path.read_bytes())[0]) == 2

    @staticmethod
    def undecodable_is_a_miss_and_rewritten(tmp_path, caplog, bad: bytes) -> None:
        """A store whose first record has the CRC-valid payload `bad` loses
        that record alone, and the next store rewrites the file without it."""
        path = tmp_path / "c.db"
        fa, fb, fc, ka, kb, kc = (c * 64 for c in "abcdef")
        good = engine._encode(file_record((kb, func_record(2))))
        path.write_bytes(engine._HEADER_LINE + engine._frame(fa, bad) + engine._frame(fb, good))
        db = CacheDb(str(path))
        with caplog.at_level("WARNING", logger="ctl_lint"):
            assert db.get(ka) is None
        assert any("undecodable" in r.message for r in caplog.records)
        assert db.get(kb) == func_record(2)
        db.put(fc, file_record((kc, func_record(3))))  # rewrites without the bad record
        assert engine._parse(path.read_bytes()) == \
            ([(fb, good), (fc, engine._encode(file_record((kc, func_record(3)))))], None)
        fresh = CacheDb(str(path))
        fresh.put(fa, file_record((ka, func_record(1))))
        assert [fresh.get(k) for k in (ka, kb, kc)] == \
            [func_record(1), func_record(2), func_record(3)]

    def test_undecodable_payload_is_a_miss_and_rewritten(self, tmp_path, caplog):
        # the payload inflates, but not to JSON
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, zlib.compress(b"[["))

    def test_payload_that_is_not_zlib_data_is_a_miss_and_rewritten(self, tmp_path, caplog):
        # a v3 payload: uncompressed canonical JSON
        bad = canonical_json(file_record(("a" * 64, func_record(1)))).encode()
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, bad)

    def test_payload_inflating_to_another_shape_is_a_miss_and_rewritten(self, tmp_path,
                                                                        caplog):
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, zlib.compress(b"5"))

    def test_v1_store_starts_fresh(self, tmp_path, caplog):
        # and so do v2 and v3 stores: a record of any is never read as v4's
        path = tmp_path / "c.db"
        record = file_record(("c" * 64, func_record()))
        v3_record = file_record(("d" * 64, func_record(4)))
        for old in (b"ctl-lint-cache v1\n" + b"a" * 64 + b" 2\n{}\n",
                    b"ctl-lint-cache v2\n"
                    + engine._frame("a" * 64, canonical_json(func_record()).encode()),
                    b"ctl-lint-cache v3\n"
                    + engine._frame("a" * 64, canonical_json(v3_record).encode())):
            path.write_bytes(old)
            inode = path.stat().st_ino
            caplog.clear()
            with caplog.at_level("WARNING", logger="ctl_lint"):
                db = CacheDb(str(path))
            assert db.get("a" * 64) is None and db.get("d" * 64) is None
            assert not db.holds("a" * 64, ["d" * 64])
            assert any("bad header, starting fresh" in r.message for r in caplog.records)
            assert not any("undecodable" in r.message for r in caplog.records)
            db.put("b" * 64, record)
            assert path.stat().st_ino != inode  # replaced, not appended to
            assert path.read_bytes() == \
                engine._HEADER_LINE + engine._frame("b" * 64, engine._encode(record))
            assert CacheDb(str(path)).get("c" * 64) == func_record()


class TestFormat:
    def test_fixture_store_is_the_same_at_any_jobs_and_compressed(self, tmp_path, capsys,
                                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        paths = []
        for fx in FIXTURES:
            (tmp_path / f"{fx.name}.c").write_text(fx.source)
            paths.append(f"{fx.name}.c")
        blobs = []
        for jobs in ("1", "2"):
            assert main(["analyze", "--db", f"jobs{jobs}.db", "--jobs", jobs, *paths]) == 1
            blobs.append((tmp_path / f"jobs{jobs}.db").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]
        records, problem = engine._parse(blobs[0])
        assert (len(records), problem) == (len(FIXTURES), None)
        # each fixture's record is one or two small functions, mostly hex
        # keys and framing, so the store is smaller than the same records
        # framed as plain canonical JSON, but not by half
        plain = engine._HEADER_LINE + b"".join(
            engine._frame(key, canonical_json(json.loads(zlib.decompress(payload))).encode())
            for key, payload in records)
        assert len(blobs[0]) < len(plain)

    @pytest.mark.parametrize("n", [9, 10, 99, 100])
    def test_framed_size_across_length_digits(self, n):
        payload = bytes(range(n))
        assert engine._framed_size(payload) == len(engine._frame("a" * 64, payload))


class TestConcurrency:
    def test_rewrite_while_waiting_for_the_lock_loses_no_record(self, tmp_path, monkeypatch):
        # A loads; B supersedes its file's record and compacts while A waits
        # for its lock; A appends to the file B renamed into place, then
        # compacts itself
        path = str(tmp_path / "c.db")
        ka, kb1, kb2, fa, fb = (c * 64 for c in "abcde")
        CacheDb(path).put(fb, file_record((kb1, func_record(1))))
        a = CacheDb(path)
        b = CacheDb(path)
        real_flock = fcntl.flock
        interleaved = []

        def flock(fd, op):
            if op == fcntl.LOCK_EX and not interleaved:
                interleaved.append(True)
                b.put(fb, file_record((kb2, func_record(2))))  # kb1's record is now dead
                assert b.compact()
            real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", flock)
        a.put(fa, file_record((ka, func_record(3))))
        monkeypatch.undo()
        assert interleaved
        assert not a.compact()  # nothing is dead in what A holds
        fresh = CacheDb(path)
        assert [fresh.get(k) for k in (ka, kb1, kb2)] == [func_record(3), None, func_record(2)]
        assert fresh.holds(fa, [ka]) and fresh.holds(fb, [kb2])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.db"]

    def test_compaction_keeps_records_appended_after_load(self, tmp_path):
        path = str(tmp_path / "c.db")
        ka1, ka2, kb, fa, fb = (c * 64 for c in "abcde")
        a = CacheDb(path)
        a.put(fa, file_record((ka1, func_record(1))))
        CacheDb(path).put(fb, file_record((kb, func_record(2))))  # after A loaded
        a.put(fa, file_record((ka2, func_record(3))))
        assert a.compact()
        fresh = CacheDb(path)
        assert [fresh.get(k) for k in (ka1, ka2, kb)] == [None, func_record(3), func_record(2)]
        assert fresh.holds(fa, [ka2]) and fresh.holds(fb, [kb])

    def test_repair_keeps_records_appended_after_load(self, tmp_path):
        # A and B load a store with a bad checksum; B's store repairs it, C
        # appends, and A's store, which rewrites too, keeps both
        path = tmp_path / "c.db"
        fa, fb, fc, fx = (c * 64 for c in "abcd")
        CacheDb(str(path)).put(fx, file_record(("e" * 64, func_record())))
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 1  # inside fx's payload
        path.write_bytes(bytes(blob))
        a = CacheDb(str(path))
        b = CacheDb(str(path))
        stored = {fb: file_record(("f" * 64, func_record(2))),
                  fc: file_record(("0" * 64, func_record(3))),
                  fa: file_record(("1" * 64, func_record(1)))}
        b.put(fb, stored[fb])
        CacheDb(str(path)).put(fc, stored[fc])
        a.put(fa, stored[fa])
        blob = path.read_bytes()
        assert [key for key, record in stored.items()
                if engine._frame(key, engine._encode(record)) not in blob] == []

    def test_concurrent_cli_runs_lose_no_records(self, ws, capsys):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for value in (2, 3, 4):  # every round makes the last round's records dead
            for name in ("a.c", "b.c"):
                edit_global(ws / name, value)
            procs = [subprocess.Popen([sys.executable, "-m", "ctl_lint.cli", "analyze",
                                       "--db", "c.db", "--jobs", "1", name], cwd=ws, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                     for name in ("a.c", "b.c")]
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 1, err
            code, _, err = run(capsys, "--db", "c.db", "a.c", "b.c")
            assert hits(err) == (5, 5)


class TestLiveness:
    def test_a_run_over_one_file_keeps_the_others_live(self, ws, capsys):
        db = ws / "c.db"
        run(capsys, "--db", str(db), "a.c", "b.c", "c.c")
        edit_global(ws / "a.c", 7)  # a.c's record is superseded
        inode = db.stat().st_ino
        run(capsys, "--db", str(db), "a.c")
        assert db.stat().st_ino != inode  # compacted: renamed over
        assert hits(run(capsys, "--db", str(db), "b.c", "c.c")[2]) == (4, 4)
        assert hits(run(capsys, "--db", str(db), "a.c", "b.c", "c.c")[2]) == (7, 7)

    def test_compacted_store_gives_the_same_hits(self, ws, capsys):
        db = ws / "c.db"
        run(capsys, "--db", str(db), "a.c", "b.c", "c.c")
        for value in (5, 6):
            edit_global(ws / "c.c", value)
            stale = CacheDb(str(db))  # stores what a run would, without compacting
            stale.put(*analyze_unit(F.parse((ws / "c.c").read_text(), "c.c"),
                                    CHECKS, stale, CLI_CONFIG)[1])
        before = db.read_bytes()
        assert CacheDb(str(db)).compact()
        assert len(db.read_bytes()) < len(before)
        compacted = db.read_bytes()
        results = []
        for blob in (before, compacted):
            db.write_bytes(blob)
            results.append(run(capsys, "--format", "json", "--db", str(db),
                               "a.c", "b.c", "c.c"))
        assert results[0] == results[1]
        db.write_bytes(compacted)
        assert hits(run(capsys, "--db", str(db), "a.c", "b.c", "c.c")[2]) == (7, 7)

    @pytest.mark.parametrize("extra, due", [(0, False), (1, True)])
    def test_compaction_when_dead_bytes_exceed_a_quarter_of_live(self, tmp_path, extra, due):
        path = tmp_path / "c.db"
        key, dead_key, file = (c * 64 for c in "abc")

        def live_record(n: int) -> list:
            return file_record((key, func_record(1, NOISE[:n])))

        def dead_record(n: int) -> list:
            return file_record((dead_key, func_record(0, NOISE[:n])))

        def sized(make, target: int) -> list | None:
            """`make(n)` for the least `n` whose record frames to `target`
            bytes; compressed sizes skip some values, so there may be none."""
            return next((r for n in range(len(NOISE))
                         if framed(file, r := make(n)) == target), None)

        # the live bytes are a multiple of 4, so that the dead bytes can be
        # exactly a quarter of them, and one byte more
        record = next(r for n in range(600, len(NOISE))
                      if (live := framed(file, r := live_record(n))) % 4 == 0
                      and all(sized(dead_record, live // 4 + e) for e in (0, 1)))
        live = framed(file, record)
        dead = sized(dead_record, live // 4 + extra)
        assert framed(file, dead) == live // 4 + extra
        db = CacheDb(str(path))
        db.put(file, dead)
        db.put(file, record)  # supersedes the first record
        size = os.path.getsize(path)
        assert CacheDb(str(path)).compact() is due
        fresh = CacheDb(str(path))
        assert os.path.getsize(path) == (size - live // 4 - extra if due else size)
        assert fresh.get(key) == record[0][1]
        assert (fresh.get(dead_key) is None) is due  # a superseded record answers until then

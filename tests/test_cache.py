"""The v6 cache store: corruption, concurrent runs, liveness, compaction and
the file tier."""

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

from ctl_lint import cache, cli
from ctl_lint import frontend as F
from ctl_lint.cli import POOL_BYTES, main
from ctl_lint.cache import KEY_HEX, CacheDb, canonical_json
from ctl_lint.engine import EngineConfig, analyze_unit
from ctl_lint.speclang import load_checkset
from fixtures_bugs import FIXTURES
from unit_results import diagnostics_of, function_diagnostics, rows_of

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
    """A new initializer for the file's global: the file's bytes, and so
    its record, change, and no function's key does."""
    text = path.read_text()
    path.write_text(re.sub(r"int gcfg = -?\d+;", f"int gcfg = {value};", text, count=1))


def func_record(n: int = 0, pad: str = "") -> list:
    """A function record (as the engine writes them) with `n` tasks, and
    with one diagnostic whose message is `pad` when there is a `pad`."""
    diagnostics = [["c", "error", 0, 1, pad, False, []]] if pad else []
    return [diagnostics, [False, [], []], n, 0]


DIGEST = "0" * KEY_HEX  # the digest `file_record` stores


def file_record(*functions: tuple[str, list]) -> list:
    """A file record listing (function key, function record) pairs, for
    bytes with `DIGEST`, the functions starting at offsets 0, 1, ..."""
    return [DIGEST, list(range(len(functions))), [[key, record] for key, record in functions]]


def deflate(data: bytes) -> bytes:
    """`data` compressed as `cache._encode` compresses a record's JSON."""
    z = zlib.compressobj(zdict=cache._ZDICT)
    return z.compress(data) + z.flush()


def framed(key: str, obj) -> int:
    return len(cache._frame(key, cache._encode(obj)))


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
        monkeypatch.setattr(cli, "_checkset", lambda sources: CHECKS)
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        (ws / "s.c").write_text("int f() { int x; return x; }\nint g() { return f(); }\n")
        expected = run(capsys, "--format", "json", "--no-cache", "s.c")[:2]
        db = ws / "c.db"
        assert run(capsys, "--format", "json", "--db", str(db), "s.c")[:2] == expected
        good = db.read_bytes()
        assert len(cache._parse(good)[0]) == 1  # the file's one record
        stores = [good[:n] for n in range(len(good))]
        stores += [good[:i] + bytes([good[i] ^ 1]) + good[i + 1:] for i in range(len(good))]
        for blob in stores:
            db.write_bytes(blob)
            code, out, err = run(capsys, "--format", "json", "--db", str(db), "s.c")
            assert (code, out) == expected, blob
            assert "internal error" not in err
            # repaired: every record is back, the store rewritten or completed
            assert cache._parse(db.read_bytes()) == cache._parse(good)

    def test_checksum_mismatch_skips_only_its_record(self, tmp_path, caplog):
        path = tmp_path / "c.db"
        fa, fb, ka, kb = (c * KEY_HEX for c in "abcd")
        db = CacheDb(str(path))
        db.put(fa, file_record((ka, func_record(1))))
        db.put(fb, file_record((kb, func_record(2))))
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"\n", len(cache._HEADER_LINE)) + 1] ^= 1  # fa's payload
        path.write_bytes(bytes(blob))
        with caplog.at_level("WARNING", logger="ctl_lint"):
            loaded = CacheDb(str(path))
        assert (loaded.get(ka), loaded.get(kb)) == (None, func_record(2))
        assert any("checksum" in r.message for r in caplog.records)
        loaded.put(fa, file_record((ka, func_record(1))))  # the next store rewrites the file
        again = CacheDb(str(path))
        assert (again.get(ka), again.get(kb)) == (func_record(1), func_record(2))
        assert len(cache._parse(path.read_bytes())[0]) == 2

    @staticmethod
    def undecodable_is_a_miss_and_rewritten(tmp_path, caplog, bad: bytes) -> None:
        """A store whose first record has the CRC-valid payload `bad` loses
        that record alone, and the next store rewrites the file without it."""
        path = tmp_path / "c.db"
        fa, fb, fc, ka, kb, kc = (c * KEY_HEX for c in "abcdef")
        good = cache._encode(file_record((kb, func_record(2))))
        path.write_bytes(cache._HEADER_LINE + cache._frame(fa, bad) + cache._frame(fb, good))
        db = CacheDb(str(path))
        with caplog.at_level("WARNING", logger="ctl_lint"):
            assert db.file_hit(fa, DIGEST) is None
            assert db.get(ka) is None
        # logged once, whichever tier reads the record first
        assert sum("undecodable" in r.message for r in caplog.records) == 1
        assert db.get(kb) == func_record(2)
        assert db.file_hit(fb, DIGEST) == file_record((kb, func_record(2)))
        db.put(fc, file_record((kc, func_record(3))))  # rewrites without the bad record
        assert cache._parse(path.read_bytes()) == \
            ([(fb, good), (fc, cache._encode(file_record((kc, func_record(3)))))], None)
        fresh = CacheDb(str(path))
        fresh.put(fa, file_record((ka, func_record(1))))
        assert [fresh.get(k) for k in (ka, kb, kc)] == \
            [func_record(1), func_record(2), func_record(3)]

    def test_undecodable_payload_is_a_miss_and_rewritten(self, tmp_path, caplog):
        # the payload inflates, but not to JSON
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, deflate(b"[["))

    def test_payload_that_is_not_zlib_data_is_a_miss_and_rewritten(self, tmp_path, caplog):
        # a v3 payload: uncompressed canonical JSON
        bad = canonical_json(file_record(("a" * KEY_HEX, func_record(1)))[2]).encode()
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, bad)

    def test_payload_inflating_to_another_shape_is_a_miss_and_rewritten(self, tmp_path,
                                                                        caplog):
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, cache._encode(5))

    def test_payload_compressed_without_the_dictionary_is_a_miss_and_rewritten(self, tmp_path,
                                                                              caplog):
        # a v5 payload in a v6 frame: it inflates to a well-formed file record
        # without the dictionary, so only its clear FDICT flag tells it apart
        record = canonical_json(file_record(("d" * KEY_HEX, func_record(1)))).encode()
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, zlib.compress(record))

    @pytest.mark.parametrize("cut", [1, 4, 5, 12], ids=["adler-1", "adler", "adler+1", "deep"])
    def test_truncated_dictionary_stream_is_a_miss_and_rewritten(self, tmp_path, caplog, cut):
        # cut within the trailing checksum, the stream inflates to the whole
        # record; the stream is not finished, and that makes it a miss
        good = cache._encode(file_record(("d" * KEY_HEX, func_record(1))))
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, good[:-cut])

    def test_payload_with_bytes_after_its_stream_is_a_miss_and_rewritten(self, tmp_path,
                                                                         caplog):
        good = cache._encode(file_record(("d" * KEY_HEX, func_record(1))))
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, good + b"\x00")

    @pytest.mark.parametrize("bad", [
        [["d" * KEY_HEX, [1]]],
        file_record(("d" * KEY_HEX, [1])),
        file_record(("d" * KEY_HEX, [[["c", "error", 0]], [False, [], []], 1, 0])),
        file_record(("d" * KEY_HEX, [[["c", "error", 0, 1, "m", False, [3]]], [False, [], []], 1, 0])),
        file_record(("d" * KEY_HEX, [[], [False, [[]], []], 1, 0])),
        [DIGEST, [], [["d" * KEY_HEX, func_record(1)]]],
        [DIGEST, ["0"], [["d" * KEY_HEX, func_record(1)]]],
        [0, [0], [["d" * KEY_HEX, func_record(1)]]],
        [DIGEST, [0], [[0, func_record(1)]]],
        file_record(("d" * KEY_HEX, [[["c", "fatal", 0, 1, "m", False, []]], [False, [], []], 1, 0])),
        file_record(("d" * KEY_HEX, [[[[1], "error", 0, 1, "m", False, []]], [False, [], []], 1, 0])),
        file_record(("d" * KEY_HEX, [[["c", "error", 0, 1, 5, False, []]], [False, [], []], 1, 0])),
        file_record(("d" * KEY_HEX, [[["c", "error", 0, 1, "m", 1, []]], [False, [], []], 1, 0])),
    ], ids=["v4-layout", "short-function", "short-diagnostic", "odd-trace",
            "unhashable-frees", "starts-missing", "start-not-int", "digest-not-str",
            "key-not-str", "unknown-severity", "check-not-str", "message-not-str",
            "confirmed-not-bool"])
    def test_record_that_does_not_unpack_is_a_miss_and_rewritten(self, tmp_path, caplog,
                                                                 bad):
        # well framed and valid JSON, but not a file record whose summaries
        # record_summary reads and whose diagnostics cli.render_row renders
        self.undecodable_is_a_miss_and_rewritten(tmp_path, caplog, cache._encode(bad))

    @pytest.mark.parametrize("reshape", [
        lambda record: [[key, [1]] for key, _ in record[2]],
        lambda record: [record[0], record[1], [[key, [1]] for key, _ in record[2]]],
        lambda record: [record[0], record[1], [[key, [[[d[0], "fatal", *d[2:]] for d in f[0]],
                                                      *f[1:]]] for key, f in record[2]]],
    ], ids=["v4-layout", "digest-matches", "unknown-severity"])
    def test_cli_run_over_a_record_that_does_not_unpack(self, ws, capsys, reshape):
        # the record's digest may match the file: the file tier must not
        # answer from it, and the function tier must not either
        expected = run(capsys, "--format", "json", "--no-cache", "c.c")[:2]
        db = ws / "c.db"
        run(capsys, "--db", str(db), "c.c")
        [(key, payload)] = cache._parse(db.read_bytes())[0]
        good = db.read_bytes()
        record = cache._decode_payload(payload)
        assert reshape(record) != record
        db.write_bytes(cache._HEADER_LINE + cache._frame(key, cache._encode(reshape(record))))
        code, out, err = run(capsys, "--format", "json", "--db", str(db), "c.c")
        assert (code, out) == expected and "internal error" not in err
        assert db.read_bytes() == good  # rewritten without the bad record

    def test_v1_store_starts_fresh(self, tmp_path, caplog):
        # and so do v2 to v5 stores: a record of any is never read as v6's
        path = tmp_path / "c.db"
        record = file_record(("c" * KEY_HEX, func_record()))
        v3_record = file_record(("d" * 64, func_record(4)))
        v5_record = [DIGEST, [0], [["d" * 64, func_record(4)]]]
        for old in (b"ctl-lint-cache v1\n" + b"a" * 64 + b" 2\n{}\n",
                    b"ctl-lint-cache v2\n"
                    + cache._frame("a" * 64, canonical_json(func_record()).encode()),
                    b"ctl-lint-cache v3\n"
                    + cache._frame("a" * 64, canonical_json(v3_record[2]).encode()),
                    b"ctl-lint-cache v4\n"
                    + cache._frame("a" * 64, zlib.compress(canonical_json(v3_record[2]).encode())),
                    b"ctl-lint-cache v5\n"
                    + cache._frame("a" * 64, zlib.compress(canonical_json(v5_record).encode()))):
            path.write_bytes(old)
            inode = path.stat().st_ino
            caplog.clear()
            with caplog.at_level("WARNING", logger="ctl_lint"):
                db = CacheDb(str(path))
                assert db.get("a" * 64) is None and db.get("d" * 64) is None
                assert db.get("a" * KEY_HEX) is None and db.get("d" * KEY_HEX) is None
                assert db.file_hit("a" * 64, DIGEST) is None
                assert db.file_hit("a" * KEY_HEX, DIGEST) is None
            assert any("bad header, starting fresh" in r.message for r in caplog.records)
            assert not any("undecodable" in r.message for r in caplog.records)
            assert len(caplog.records) == 1
            db.put("b" * KEY_HEX, record)
            assert path.stat().st_ino != inode  # replaced, not appended to
            assert path.read_bytes() == \
                cache._HEADER_LINE + cache._frame("b" * KEY_HEX, cache._encode(record))
            assert CacheDb(str(path)).get("c" * KEY_HEX) == func_record()

    def test_v5_store_of_a_run_starts_fresh_once(self, ws, capsys, caplog):
        # a store the previous format wrote for these very files: 64-hex keys
        # and payloads compressed with no dictionary
        expected = run(capsys, "--format", "json", "--no-cache", "a.c", "b.c")[:2]
        db = ws / "c.db"
        run(capsys, "--db", str(db), "a.c", "b.c")
        v6 = db.read_bytes()
        records = cache._parse(v6)[0]

        def widen(key: str) -> str:
            return (key * 2)[:64]

        v5 = b"ctl-lint-cache v5\n" + b"".join(
            cache._frame(widen(key), zlib.compress(canonical_json(
                [digest, starts, [[widen(k), f] for k, f in functions]]).encode()))
            for key, (digest, starts, functions)
            in ((key, cache._decode_payload(payload)) for key, payload in records))
        db.write_bytes(v5)
        with caplog.at_level("WARNING", logger="ctl_lint"):
            code, out, err = run(capsys, "--format", "json", "--db", str(db), "a.c", "b.c")
        assert (code, out) == expected
        assert [r.message for r in caplog.records] == \
            [f"cache {db}: bad header, starting fresh"]
        assert db.read_bytes() == v6  # replaced by the store a cold run writes
        caplog.clear()
        with caplog.at_level("WARNING", logger="ctl_lint"):
            assert hits(run(capsys, "--db", str(db), "a.c", "b.c")[2]) == (5, 5)
        assert caplog.records == []


class TestFormat:
    def test_fixture_store_is_the_same_at_any_jobs_and_compressed(self, tmp_path, capsys,
                                                                   monkeypatch, pools):
        monkeypatch.chdir(tmp_path)
        # a trailing comment gives the fixtures source enough for two workers
        pad = "//" + "." * (2 * POOL_BYTES // len(FIXTURES)) + "\n"
        paths = []
        for fx in FIXTURES:
            (tmp_path / f"{fx.name}.c").write_text(fx.source + pad)
            paths.append(f"{fx.name}.c")
        blobs = []
        for jobs in ("1", "2"):
            assert main(["analyze", "--db", f"jobs{jobs}.db", "--jobs", jobs, *paths]) == 1
            blobs.append((tmp_path / f"jobs{jobs}.db").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1] and pools == [2]
        records, problem = cache._parse(blobs[0])
        assert (len(records), problem) == (len(FIXTURES), None)
        assert all(len(key) == KEY_HEX for key, _ in records)
        # the store is at most its measured v6 size (6,865 bytes; 10,740 in
        # v5) plus 5%, so a change that regrows it fails here
        assert len(blobs[0]) <= 6_865 * 105 // 100
        # each fixture's record is one or two small functions, mostly hex
        # keys and framing, so the store is smaller than the same records
        # framed as plain canonical JSON, but not by half
        plain = cache._HEADER_LINE + b"".join(
            cache._frame(key, canonical_json(cache._decode_payload(payload)).encode())
            for key, payload in records)
        assert len(blobs[0]) < len(plain)
        # a hit is stored again, in a new file's record, as it was read:
        # packing loses nothing of what a record holds
        for _, payload in records:
            for _, record in cache._decode_payload(payload)[2]:
                assert cache.pack_function(function_diagnostics(record, "f", 7, "x.c"),
                                           cache.record_summary(record, "f"), *record[2:],
                                           7) == record

    @pytest.mark.parametrize("n", [9, 10, 99, 100, 999, 1000])
    def test_framed_size_across_length_digits(self, n):
        payload = bytes(i % 256 for i in range(n))
        frame = cache._frame("a" * KEY_HEX, payload)
        assert cache._framed_size(payload) == len(frame)
        # and the frame is one the store reads back at this key width
        assert cache._parse(cache._HEADER_LINE + frame) == ([("a" * KEY_HEX, payload)], None)

    def test_readme_names_the_store_the_code_writes(self):
        # the README's "Caching" section names the header, the key width and
        # the older formats that start fresh
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as f:
            caching = f.read().split("\n## Caching\n", 1)[1].split("\n## ", 1)[0]
        version = int(cache.CACHE_HEADER.rsplit(" v", 1)[1])
        assert f"`{cache.CACHE_HEADER}`" in caching
        assert re.findall(r"`<(\d+)-hex key>", caching) == [str(KEY_HEX)]
        assert f"a v1 to v{version - 1} store" in caching
        key = cache.file_key("a.c", "builtin", 5)
        assert len(key) == len(cache.digest(b"")) == KEY_HEX

    def test_reading_the_store_loads_no_analyzer(self):
        script = ("import sys\n"
                  "import ctl_lint.cache\n"
                  "analyzer = {'ctl_lint.' + m for m in\n"
                  "            ('engine', 'cfg', 'ctl', 'refine', 'intervals', 'speclang')}\n"
                  "assert not analyzer & set(sys.modules), sorted(analyzer & set(sys.modules))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestConcurrency:
    def test_rewrite_while_waiting_for_the_lock_loses_no_record(self, tmp_path, monkeypatch):
        # A loads; B supersedes its file's record and compacts while A waits
        # for its lock; A appends to the file B renamed into place, then
        # compacts itself
        path = str(tmp_path / "c.db")
        ka, kb1, kb2, fa, fb = (c * KEY_HEX for c in "abcde")
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
        assert fresh.file_hit(fa, DIGEST) == file_record((ka, func_record(3)))
        assert fresh.file_hit(fb, DIGEST) == file_record((kb2, func_record(2)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.db"]

    def test_compaction_keeps_records_appended_after_load(self, tmp_path):
        path = str(tmp_path / "c.db")
        ka1, ka2, kb, fa, fb = (c * KEY_HEX for c in "abcde")
        a = CacheDb(path)
        a.put(fa, file_record((ka1, func_record(1))))
        CacheDb(path).put(fb, file_record((kb, func_record(2))))  # after A loaded
        a.put(fa, file_record((ka2, func_record(3))))
        assert a.compact()
        fresh = CacheDb(path)
        assert [fresh.get(k) for k in (ka1, ka2, kb)] == [None, func_record(3), func_record(2)]
        assert fresh.file_hit(fa, DIGEST) == file_record((ka2, func_record(3)))
        assert fresh.file_hit(fb, DIGEST) == file_record((kb, func_record(2)))

    def test_repair_keeps_records_appended_after_load(self, tmp_path):
        # A and B load a store with a bad checksum; B's store repairs it, C
        # appends, and A's store, which rewrites too, keeps both
        path = tmp_path / "c.db"
        fa, fb, fc, fx = (c * KEY_HEX for c in "abcd")
        CacheDb(str(path)).put(fx, file_record(("e" * KEY_HEX, func_record())))
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 1  # inside fx's payload
        path.write_bytes(bytes(blob))
        a = CacheDb(str(path))
        b = CacheDb(str(path))
        stored = {fb: file_record(("f" * KEY_HEX, func_record(2))),
                  fc: file_record(("0" * KEY_HEX, func_record(3))),
                  fa: file_record(("1" * KEY_HEX, func_record(1)))}
        b.put(fb, stored[fb])
        CacheDb(str(path)).put(fc, stored[fc])
        a.put(fa, stored[fa])
        blob = path.read_bytes()
        assert [key for key, record in stored.items()
                if cache._frame(key, cache._encode(record)) not in blob] == []

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


class TestVersion:
    def test_a_store_from_another_version_is_never_replayed(self, ws, capsys, monkeypatch):
        # every key hashes the tool version, so verdicts an older release
        # stored are analyzed afresh, never answered from its records
        expected = run(capsys, "--no-cache", "a.c", "b.c", "c.c")[:2]
        run(capsys, "a.c", "b.c", "c.c")
        assert hits(run(capsys, "a.c", "b.c", "c.c")[2]) == (7, 7)
        monkeypatch.setattr(cache, "__version__", "0.0.0")
        code, out, err = run(capsys, "a.c", "b.c", "c.c")
        assert hits(err) == (0, 7)
        assert (code, out) == expected

    def test_package_version_is_the_project_version(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

        from ctl_lint import __version__
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(pyproject, "rb") as f:
            assert tomllib.load(f)["project"]["version"] == __version__


class TestKeys:
    # f's division and g's index read the globals `n` and `a`; h reads none
    GLOBALS = "int n = 1;\nint a[4];\n"
    FUNCTIONS = ("int f(int x) { return x / n; }\nint g(int i) { a[i] = 1; return 0; }\n"
                 "int h() { return f(2) + g(1); }\n")

    @pytest.mark.parametrize("edited", [
        "int n = 0;\nint a[4];\n",
        "int n = 1 + 2 * n;\nint a[4];\n",
    ], ids=["value", "expression"])
    def test_an_initializer_edit_hits_every_function(self, ws, capsys, edited):
        # globals are havocked, so no analysis reads an initializer
        (ws / "k.c").write_text(self.GLOBALS + self.FUNCTIONS)
        run(capsys, "--db", "c.db", "k.c")
        (ws / "k.c").write_text(edited + self.FUNCTIONS)
        for fmt in ("text", "json"):  # a new file record, then a file-tier hit
            expected = run(capsys, "--format", fmt, "--no-cache", "k.c")[:2]
            code, out, err = run(capsys, "--format", fmt, "--db", "c.db", "k.c")
            assert (code, out) == expected and code == 1
            if fmt == "text":
                assert hits(err) == (3, 3)

    @pytest.mark.parametrize("edited", [
        "int *n = 0;\nint a[4];\n",
        "int n = 1;\nint a[8];\n",
        "int m = 1;\nint n = 1;\nint a[4];\n",
        "int a[4];\nint n = 1;\n",
    ], ids=["type", "array-size", "added-name", "order"])
    def test_a_declaration_edit_misses_every_function(self, ws, capsys, edited):
        (ws / "k.c").write_text(self.GLOBALS + self.FUNCTIONS)
        run(capsys, "--db", "c.db", "k.c")
        (ws / "k.c").write_text(edited + self.FUNCTIONS)
        expected = run(capsys, "--no-cache", "k.c")[:2]
        code, out, err = run(capsys, "--db", "c.db", "k.c")
        assert (code, out) == expected and hits(err) == (0, 3)

    @pytest.mark.parametrize("path, key", [
        ("a.c", "1036b9e0e10e5ccb32e25e6c0bd1020e"),
        ("dir/\u00e9.c", "c9fb0e6a4012852d7cb9d23f37243763"),
    ], ids=["ascii", "utf8"])
    def test_a_utf8_path_keeps_its_file_key(self, monkeypatch, path, key):
        # the key of 0.2.2, which hashed the path's UTF-8 text, at the v6
        # store's width: the first 32 hex characters of each sha256
        monkeypatch.setattr(cache, "__version__", "0.2.2")
        assert cache.file_key(path, "builtin", 5) == key

    def test_a_path_that_is_not_utf8_hits_like_any_other(self, ws):
        # the name reaches the CLI as the system gives it, with a surrogate
        # escape; stdout escapes it back, as it does in a C or UTF-8 mode
        name = b"leak\xff.c"
        (ws / os.fsdecode(name)).write_text("int f() { int *p = malloc(4); return 0; }\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONIOENCODING="utf-8:surrogateescape")

        def cli_run(*args):
            proc = subprocess.run([sys.executable, "-m", "ctl_lint.cli", "analyze", "--jobs",
                                   "1", *args, name], cwd=ws, env=env, capture_output=True,
                                  timeout=120)
            return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")

        for fmt in ("text", "json"):
            expected = cli_run("--format", fmt, "--no-cache")
            assert expected[0] == 1 and b"memory-leak" in expected[1], expected[2]
            for warm in (False, True):
                code, out, err = cli_run("--format", fmt, "--db", f"{fmt}.db")
                assert (code, out) == expected[:2] and "internal error" not in err
                assert fmt == "json" or hits(err) == (warm, 1)


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
            stale.put(cache.file_key("c.c", CHECKSET_TEXT, 5),
                      analyze_unit(F.parse((ws / "c.c").read_text(), "c.c"),
                                   CHECKS, stale, CLI_CONFIG))
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
        key, dead_key, file = (c * KEY_HEX for c in "abc")

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
        assert fresh.get(key) == record[2][0][1]
        assert (fresh.get(dead_key) is None) is due  # a superseded record answers until then


class TestFileTier:
    """A file whose bytes match its record is answered from the record,
    with no lexing or parsing."""

    FILES = ("a.c", "b.c", "c.c")

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths `cli` parses from now on."""
        parsed = []
        real = cli.parse_bytes

        def counting(data, path):
            parsed.append(path)
            return real(data, path)

        monkeypatch.setattr(cli, "parse_bytes", counting)
        return parsed

    def test_all_hit_run_parses_nothing(self, ws, capsys, monkeypatch):
        expected = run(capsys, "--format", "json", "--no-cache", *self.FILES)[:2]
        run(capsys, "--db", "c.db", *self.FILES)

        def refuse(*args):
            raise AssertionError("a file-tier hit parsed its file")

        monkeypatch.setattr(cli, "parse_bytes", refuse)
        monkeypatch.setattr(F, "parse", refuse)
        monkeypatch.setattr(F, "_lex", refuse)
        assert run(capsys, "--format", "json", "--db", "c.db", *self.FILES)[:2] == expected
        code, _, err = run(capsys, "--db", "c.db", *self.FILES)
        assert hits(err) == (7, 7) and "cache hits: 100% (7/7)" in err

    def test_whitespace_edit_misses_only_the_file_tier(self, ws, capsys, parses, monkeypatch):
        db = ws / "c.db"
        run(capsys, "--db", str(db), "a.c")
        [(key, old)] = cache._parse(db.read_bytes())[0]
        (ws / "a.c").write_text(SOURCES["a.c"].replace("}\nint g", "}\n\n  \nint g"))
        stored = []
        real_put = CacheDb.put
        monkeypatch.setattr(CacheDb, "put", lambda db, *record: (stored.append(record),
                                                                 real_put(db, *record)))
        parses.clear()
        assert hits(run(capsys, "--db", str(db), "a.c")[2]) == (3, 3)
        assert parses == ["a.c"]  # a file-tier miss; every function hit
        [(again, new)] = stored  # one record, superseding the old one
        old = cache._decode_payload(old)
        assert again == key and cache._parse(db.read_bytes())[0] == [(key, cache._encode(new))]
        assert old[0] != new[0] and old[1] != new[1]  # digest and starts
        assert [k for k, _ in old[2]] == [k for k, _ in new[2]]  # the function keys
        blob = db.read_bytes()
        stored.clear()
        parses.clear()
        assert hits(run(capsys, "--db", str(db), "a.c")[2]) == (3, 3)
        # a file-tier hit, which stores nothing
        assert parses == [] and stored == [] and db.read_bytes() == blob

    @pytest.mark.parametrize("source", [
        "int *f(int *p) { free(p); free(p); return p; } "
        "int g(int *q) { int x; if (*q) { x = 1; } return x; }\n"
        "int /* c */ * // d\n  /* e */ h() { int *r = 0; return g(r); }\n"
        "int k(int n) { int *p = malloc(4); int i = 0; while (i < n) { i = i + 1; }"
        " if (n) { free(p); } return 10 / n; }\n",
        *[fx.source for fx in FIXTURES],
    ], ids=["one-line-and-comments", *[fx.name for fx in FIXTURES]])
    def test_a_hit_rebuilds_what_the_miss_stored(self, tmp_path, monkeypatch, source):
        # every row of either format, whose sort key holds the `function`,
        # and every counter but the hits and misses
        (tmp_path / "s.c").write_text("\n// a comment before the first function\n" + source)
        path = str(tmp_path / "s.c")
        for fmt in ("text", "json"):
            db = CacheDb(str(tmp_path / f"{fmt}.db"))
            cli._init_worker(CHECKS, CLI_CONFIG, db, fmt)
            stored, miss, record = cli._analyze_file(path)
            db.put(cache.file_key(path, CHECKSET_TEXT, 5), record)
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_bytes", None)  # a hit must not call it
                rows, hit, again = cli._file_hit(path)
            # rendered alike from the record, in record order, with the
            # names and lines the parser gives
            assert rows == stored and again is None
            tu = F.parse((tmp_path / "s.c").read_text(), path)
            assert sorted(rows, key=lambda row: row[0]) == \
                rows_of(diagnostics_of(tu, record), fmt)
            assert all(row[0][0] == path and row[0][4] for row in rows)
            assert (hit.functions, hit.content_tasks, hit.content_skipped) == \
                (miss.functions, miss.content_tasks, miss.content_skipped)
            assert (hit.cache_hits, hit.cache_misses) == (miss.functions, 0)

    def test_digest_mismatch_is_a_miss_never_a_stale_report(self, ws, capsys, parses):
        db = ws / "c.db"
        run(capsys, "--db", str(db), *self.FILES)
        # same length, so every function starts where it did
        (ws / "c.c").write_text(SOURCES["c.c"].replace("10 / x", "10 + x"))
        expected = run(capsys, "--format", "json", "--no-cache", *self.FILES)[:2]
        parses.clear()
        assert run(capsys, "--format", "json", "--db", str(db), *self.FILES)[:2] == expected
        assert parses == ["c.c"]

    def test_file_hit_needs_the_digest_it_stored(self, tmp_path):
        db = CacheDb(str(tmp_path / "c.db"))
        record = file_record(("b" * KEY_HEX, func_record(1)), ("c" * KEY_HEX, func_record(2)))
        db.put("a" * KEY_HEX, record)
        assert db.file_hit("a" * KEY_HEX, DIGEST) == record
        assert db.file_hit("a" * KEY_HEX, "1" * KEY_HEX) is None
        assert db.file_hit("d" * KEY_HEX, DIGEST) is None
        assert db._functions is None  # the function map was never built

    def test_an_all_hit_run_keeps_no_inflated_record(self, ws, capsys, monkeypatch):
        # what `file_hit` inflated serves only `get`, which an all-hit run never calls
        run(capsys, "--db", "c.db", *self.FILES)
        stores = []
        monkeypatch.setattr(cli, "CacheDb",
                            lambda path: stores.append(CacheDb(path)) or stores[-1])
        assert hits(run(capsys, "--db", "c.db", *self.FILES)[2]) == (7, 7)
        [db] = stores
        assert db._hits == {} and db._functions is None

    def test_a_reused_record_is_not_kept(self, tmp_path):
        db = CacheDb(str(tmp_path / "c.db"))
        db.put("a" * KEY_HEX, file_record(("b" * KEY_HEX, func_record(1))))
        db.put("c" * KEY_HEX, file_record(("d" * KEY_HEX, func_record(2))))
        fresh = CacheDb(str(tmp_path / "c.db"))
        assert fresh.file_hit("a" * KEY_HEX, DIGEST) and fresh.file_hit("c" * KEY_HEX, DIGEST)
        assert fresh.get("d" * KEY_HEX) == func_record(2)
        assert fresh._hits == {}  # `_decode` reused both, and dropped them

    def test_a_record_file_hit_inflated_is_not_inflated_again(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.db")
        fa, fb, ka, kb = (c * KEY_HEX for c in "abcd")
        db = CacheDb(path)
        db.put(fa, file_record((ka, func_record(1))))
        db.put(fb, file_record((kb, func_record(2))))
        db.put(fa, file_record((ka, func_record(3))))  # supersedes fa's first record
        fresh = CacheDb(path)
        assert fresh.file_hit(fa, "1" * KEY_HEX) is None  # a digest mismatch keeps it too
        inflated = []
        real = CacheDb._inflate
        monkeypatch.setattr(CacheDb, "_inflate",
                            lambda db, key, payload: (inflated.append(key),
                                                      real(db, key, payload))[1])
        assert [fresh.get(k) for k in (ka, kb)] == [func_record(3), func_record(2)]
        assert inflated == [fa, fb]  # the superseded record of fa, and fb's

"""The result store: its file format (`CacheDb`), its keys (`cache_key`,
`file_key`) and its function records (`pack_function`, `record_summary`).

A function's content key covers its source text, the check set, the callee
summary environment, the globals' names and types, the refinement budget
and the tool version.  This module imports nothing of the analyzer, so
reading the store does not load it.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import re
import zlib
from typing import NamedTuple

from . import __version__
from .diagnostics import CONFIRMED, SEVERITY_RANK, Diagnostic

CACHE_HEADER = "ctl-lint-cache v6"
KEY_HEX = 32  # every key and digest is this many leading hex characters of a sha256

_HEADER_LINE = (CACHE_HEADER + "\n").encode("ascii")
_RECORD_HEAD = re.compile(rb"([0-9a-f]{%d}) ([0-9]+) ([0-9a-f]{8})" % KEY_HEX)
# The preset zlib dictionary (RFC 1950's FDICT) of every payload: each check's diagnostic
# openings, messages and tails, and common summaries; the most frequent last, nearest.
_ZDICT = (b'["buffer-overrun","error","index [] is outside \'int ] may fall outside \'int '
          b'["div-by-zero","error","division by zero",true,[]]'
          b'["div-by-zero","warning","possible division by zero",false,[]]'
          b'["dead-code","info","unreachable code",true,['
          b'["uninit-read","warning","\'\' may be read before initialization",true,['
          b'["double-free","error","\'\' may be freed twice",true,['
          b'["use-after-free","error","\'\' is used after being freed",true,['
          b'["null-deref","warning","\'\' may be NULL when dereferenced",true,['
          b'["memory-leak","warning","allocation of \'\' may reach function exit without free"'
          b',true,[,false,[]][false,[0],[]][false,[],[0]]]]],[true,[],[]],]]],[false,[],[]],'
          b'",[[],[false,[],[]],')


def _warn(message: str, *args) -> None:
    import logging  # loaded only when there is something to log
    logging.getLogger("ctl_lint").warning(message, *args)


def _frame(key: str, payload: bytes) -> bytes:
    """One record: `<key> <payload length> <crc32 of key and payload>`,
    a newline, the payload and a newline."""
    kb = key.encode("ascii")
    return b"%s %d %08x\n%s\n" % (kb, len(payload), zlib.crc32(payload, zlib.crc32(kb)),
                                   payload)


def _encode(obj) -> bytes:
    """The payload of a record holding `obj`: its canonical JSON, compressed
    with `_ZDICT`.  Compression is deterministic, so an unchanged record
    encodes to the bytes the store already holds."""
    z = zlib.compressobj(zdict=_ZDICT)
    return z.compress(canonical_json(obj).encode("ascii")) + z.flush()


def _decode_payload(payload: bytes):
    """The value `_encode` made `payload` of.  A payload that is cut short,
    runs on past its stream or was not compressed with `_ZDICT` (its FDICT
    flag is clear) raises ValueError or zlib.error."""
    z = zlib.decompressobj(zdict=_ZDICT)
    text = z.decompress(payload)
    if not (z.eof and not z.unused_data and payload[1] & 0x20):
        raise ValueError("not a whole payload compressed with the dictionary")
    return json.loads(text)


def _framed_size(payload: bytes) -> int:
    """The length of the record `_frame` makes of `payload`."""
    return len(payload) + len(str(len(payload))) + KEY_HEX + 12


def _parse(blob: bytes) -> tuple[list[tuple[str, bytes]], str | None]:
    """The (key, payload) records of a store's bytes, in order, and the
    first problem found, if any."""
    records: list[tuple[str, bytes]] = []
    problem = None
    pos = len(_HEADER_LINE)
    if not blob.startswith(_HEADER_LINE):
        problem = "bad header, starting fresh" if blob else None
        pos = len(blob)
    while pos < len(blob):
        nl = blob.find(b"\n", pos)
        head = _RECORD_HEAD.fullmatch(blob, pos, nl) if nl >= 0 else None
        if head is None:
            problem = problem or f"corrupt record header at byte {pos}; dropping remainder"
            break
        key = head[1]
        start = nl + 1
        end = start + int(head[2])
        payload = blob[start:end]
        if blob[end:end + 1] != b"\n":
            problem = problem or f"corrupt payload for {key[:12].decode()}; dropping remainder"
            break
        pos = end + 1
        if zlib.crc32(payload, zlib.crc32(key)) != int(head[3], 16):
            problem = problem or f"corrupt record {key[:12].decode()} (checksum mismatch)"
            continue
        records.append((key.decode("ascii"), payload))
    return records, problem


class CacheDb:
    """Single-file append-friendly store, shared by concurrent runs.

    Format: header line `ctl-lint-cache v6`, then records of
    `<32-hex key> <byte-length> <8-hex crc32>\\n<payload>\\n`, the CRC
    taken over the key and the payload, which is canonical JSON compressed
    with zlib and the preset dictionary `_ZDICT` (`_encode`).  There is one
    kind of record: one per input file, keyed by `file_key`, whose payload
    inflates to `[digest, starts, functions]`: the `digest` of the file's
    bytes, then each function's start offset and `[function key, function
    record]` (as `pack_function` makes it), in source order.  `file_hit`
    returns the record of a file whose bytes are unchanged; `get` finds a
    function by its key in any record the store held at its first call; a
    later `put` is not seen.

    A later record for a key supersedes an earlier one, and that is the
    whole liveness rule: the live records are the last one for each key,
    and the others are dead.  `compact` rewrites the store with only its
    live records once the dead ones take more than a quarter of the bytes
    the live ones take; this object keeps a running total of the live
    bytes, so deciding that decodes nothing.

    A record whose checksum does not match is skipped; one whose framing or
    length does not match is corrupt, and everything after it is dropped.
    A record whose payload does not inflate to a file record, or whose
    function records do not render, is found when it is first read.  In
    all three cases the lost records are misses, and the next store
    rewrites the file without them.  A file with another header (a v1 to
    v5 store, say) starts fresh.

    Loading holds a shared `flock` on the store, appending and rewriting an
    exclusive one.  After taking a lock the store is reopened if a rewrite
    renamed a new file over the one it locked.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: list[tuple[str, bytes]] = []  # every record read or written
        self._entries: dict[str, bytes] = {}  # the live records: the last for each key
        self._size = 0  # bytes of the store as this object last saw or wrote it
        self._live = 0  # bytes of the live records
        self._needs_rewrite = False
        self._undecodable: dict[str, bytes] = {}  # payloads to drop at the rewrite
        self._functions: dict[str, list] | None = None  # function key -> record
        self._hits: dict[str, tuple[bytes, list]] = {}  # what file_hit inflated, for _decode
        self._load()

    def _load(self) -> None:
        try:
            with self._open_locked("rb", fcntl.LOCK_SH) as fh:
                blob = fh.read()
        except FileNotFoundError:
            return
        self._records, problem = _parse(blob)
        self._entries = dict(self._records)
        self._live = sum(map(_framed_size, self._entries.values()))
        self._size = len(blob)
        if problem is not None:
            _warn("cache %s: %s", self.path, problem)
            self._needs_rewrite = True

    def _open_locked(self, mode: str, op: int):
        """The store opened in `mode` and locked with `op`, reopened until
        the locked file is the one at the path."""
        while True:
            fh = open(self.path, mode, buffering=0)
            try:
                fcntl.flock(fh.fileno(), op)
                held = os.fstat(fh.fileno())
                now = os.stat(self.path)
            except FileNotFoundError:
                fh.close()
                continue
            except BaseException:
                fh.close()
                raise
            if (held.st_dev, held.st_ino) == (now.st_dev, now.st_ino):
                return fh
            fh.close()

    def _open_for_writing(self):
        """The store opened for appending and locked exclusively."""
        try:
            return self._open_locked("a+b", fcntl.LOCK_EX)
        except FileNotFoundError:
            raise OSError(f"cache path is not writable: {self.path}") from None

    def _inflate(self, key: str, payload: bytes) -> list | None:
        """The file record `payload` holds, or None when it holds none: then
        it is a miss for its functions, and is dropped at the next rewrite."""
        try:
            digest, starts, functions = record = _decode_payload(payload)
            if not (isinstance(digest, str) and len(starts) == len(functions)
                    and all(type(s) is int for s in starts)
                    and all(type(k) is str and _readable(f) for k, f in functions)):
                raise ValueError("not a file record")
            return record
        except (ValueError, TypeError, zlib.error):
            if self._undecodable.get(key) != payload:
                _warn("cache %s: undecodable entry %s treated as miss", self.path, key[:12])
                self._undecodable[key] = payload
                self._needs_rewrite = True
            return None

    def _decode(self) -> None:
        """Build the function map from every record, superseded ones too."""
        self._functions = {}
        for key, payload in self._records:
            kept = self._hits.get(key)
            record = (self._hits.pop(key)[1] if kept and kept[0] == payload
                      else self._inflate(key, payload))
            if record is not None:
                self._functions.update(record[2])

    def file_hit(self, key: str, digest: str) -> list | None:
        """The record for file key `key` when it was stored for bytes with
        the digest `digest`.  It inflates that record alone."""
        payload = self._entries.get(key)
        record = self._inflate(key, payload) if payload is not None else None
        if record is not None:
            self._hits[key] = payload, record
        return record if record is not None and record[0] == digest else None

    def get(self, key: str) -> list | None:
        """The record of the function with content key `key`, from whichever
        record the store held when `get` was first called."""
        if self._functions is None:
            self._decode()
        return self._functions.get(key)

    def put(self, key: str, obj: list) -> None:
        """Store `obj` as the record for file key `key`, superseding any
        earlier one; one the store already holds byte for byte is not
        appended again."""
        payload = _encode(obj)
        old = self._entries.get(key)
        if old == payload:
            return
        if self._needs_rewrite:
            self._rewrite(key, payload)
        else:
            record = _frame(key, payload)
            with self._open_for_writing() as fh:
                if os.fstat(fh.fileno()).st_size == 0:
                    record = _HEADER_LINE + record
                fh.write(record)
            self._size += len(record)
            self._live += _framed_size(payload) - (_framed_size(old) if old is not None else 0)
            self._records.append((key, payload))
            self._entries[key] = payload

    def compact(self) -> bool:
        """Rewrite the store with only its live records when its dead
        records take more than a quarter of the bytes the live ones take,
        or when it is corrupt.  Returns whether the store was rewritten.
        A run ends with this, so it also drops the records `file_hit` kept."""
        self._hits = {}
        dead = self._size - len(_HEADER_LINE) - self._live
        if not self._needs_rewrite and dead * 4 <= self._live:
            return False
        self._rewrite()
        return True

    def _rewrite(self, key: str | None = None, payload: bytes = b"") -> None:
        """Replace the store with the live records it holds, plus `key`'s
        `payload` when there is a `key`.  The store is read again under an
        exclusive lock, so records other runs appended since this one
        loaded are kept.  The records go to a temporary file in the same
        directory, which is synced and then renamed over the store, so a
        crash leaves the old file or the new one, never a truncated one, and
        a run waiting for the lock finds the new file."""
        with self._open_for_writing() as fh:
            fh.seek(0)
            entries = dict(_parse(fh.read())[0])
            for k, v in self._undecodable.items():
                if entries.get(k) == v:
                    del entries[k]
            if key is not None:
                entries[key] = payload
            blob = _HEADER_LINE + b"".join(_frame(k, v) for k, v in entries.items())
            tmp = f"{self.path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "wb") as out:
                    out.write(blob)
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                raise
        self._records = list(entries.items())
        self._entries = entries
        self._size = len(blob)
        self._live = len(blob) - len(_HEADER_LINE)
        self._undecodable = {}
        self._needs_rewrite = False


# ---------------------------------------------------------------------------
# Keys

def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False, ensure_ascii=True)


def digest(data: bytes) -> str:
    """The digest of `data` that the store keeps, as every key and a file
    record's digest of the file's bytes."""
    return hashlib.sha256(data).hexdigest()[:KEY_HEX]


def cache_key(source_text: str, checkset_text: str, summary_env: str,
              globals_env: str, max_witnesses: int) -> str:
    """Content key of a function: its source text, the check set, the
    callee summary environment as canonical JSON, the globals' `[[name,
    type], ...]` in declaration order as canonical JSON, the refinement
    budget and the tool version.  No analysis reads a global's initializer:
    globals are havocked, so only their names, types and order count."""
    parts = [
        digest(source_text.encode()),
        digest(checkset_text.encode()),
        digest(summary_env.encode()),
        digest(globals_env.encode()),
        f"max_witnesses={max_witnesses}",
        f"ctl-lint/{__version__}",
    ]
    return digest("\n".join(parts).encode())


def file_key(file: str, checkset_text: str, max_witnesses: int) -> str:
    """Key of the record of input file `file` (the path as given).  It
    hashes the path's file-system bytes, which for a UTF-8 path are its
    UTF-8 encoding and for any other are the bytes the system gave."""
    rest = (f"{digest(checkset_text.encode())}\nmax_witnesses={max_witnesses}\n"
            f"ctl-lint/{__version__}")
    return digest(b"index\n%s\n%s" % (os.fsencode(file), rest.encode()))


# ---------------------------------------------------------------------------
# Function records

class FunctionSummary(NamedTuple):
    function: str
    may_return_null: bool = False
    always_frees: frozenset[int] = frozenset()
    derefs_param_unchecked: frozenset[int] = frozenset()

    def to_json_obj(self) -> dict:
        return {
            "function": self.function,
            "may_return_null": self.may_return_null,
            "always_frees": sorted(self.always_frees),
            "derefs_param_unchecked": sorted(self.derefs_param_unchecked),
        }


def pack_function(diagnostics: list[Diagnostic], summary: FunctionSummary, tasks: int,
                  skipped: int, line: int) -> list:
    """The record of a function starting at `line`: `[diagnostics,
    [may_return_null, always_frees, derefs_param_unchecked], tasks,
    skipped]`, each diagnostic as `[check, severity, rel_line, column,
    message, confirmed, [l0, c0, l1, c1, ...]]`, lines relative to `line`."""
    rel = [[d.check_id, d.severity, d.loc.line - line, d.loc.column, d.message,
            d.confidence == CONFIRMED, [n for t in d.trace for n in (t.line - line, t.column)]]
           for d in diagnostics]
    return [rel, [summary.may_return_null, sorted(summary.always_frees),
                  sorted(summary.derefs_param_unchecked)], tasks, skipped]


def _readable(record: list) -> bool:
    """Whether `record_summary` reads `record`, and `cli.render_row`
    renders its diagnostics, without an error or a field of another type.
    A record of the wrong shape raises ValueError or TypeError instead."""
    rel, (_, frees, derefs), tasks, skipped = record
    ints = [tasks, skipped, *frees, *derefs]
    strings = []
    for check, severity, rel_line, column, message, confirmed, trace in rel:
        if len(trace) % 2 or severity not in SEVERITY_RANK or type(confirmed) is not bool:
            return False
        ints += rel_line, column, *trace
        strings += check, severity, message
    return set(map(type, ints)) <= {int} and set(map(type, strings)) <= {str}


def record_summary(record: list, function: str) -> FunctionSummary:
    """The summary `record` holds for `function`."""
    may_null, frees, derefs = record[1]
    return FunctionSummary(function, may_null, frozenset(frees), frozenset(derefs))

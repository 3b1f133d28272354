"""Analysis orchestration: summaries, caching, per-function analysis.

Functions are summarized bottom-up over the call graph (recursion falls
back to pessimistic summaries), then analyzed independently: pattern
labeling, CTL checking, witness refinement, interval checks and the
structural dead-code check.  Results are aggregated into a deterministic
diagnostic list.

Per-function results are cached in a single append-friendly store, one
record per input file, which holds each of the file's functions under a
content key: the function's source text, the active check-set text, the
callee summary environment, the globals' source text, relevant config and
the tool version.  Cached diagnostics are stored positionally with
function-relative line numbers, and a function is looked up by its key in
every file's record, so it still hits after it moves within a file or to
another file.  A later record for a file supersedes the earlier one, and
`CacheDb.compact` drops the superseded records once they take more than a
quarter of the bytes the live ones take.  `analyze_unit` only reads the
store and returns the file's record, unless the store already holds it;
its caller writes it.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import re
import zlib
from dataclasses import dataclass

from . import __version__
from . import frontend as ast
from .cfg import Cfg, build_cfg, to_kripke
from .ctl import And, EU, EX, Not, Prop, TRUE, check, witness
from .diagnostics import CONFIRMED, Diagnostic, UNCONFIRMED
from .frontend import FunctionDef, SourceLocation, TranslationUnit, check_well_formed
from .intervals import analyze as interval_analyze, check_sites, interval_checks
from .refine import (
    CONFIRMED as R_CONFIRMED, SUPPRESSED, refine_diagnostic,
)
from .speclang import (
    CheckSpec, CheckTask, Fact, candidate_variables, instantiate, label_index,
)

logger = logging.getLogger("ctl_lint")

DEAD_CODE_ID = "dead-code"

CACHE_HEADER = "ctl-lint-cache v4"


class AnalysisError(Exception):
    """The unit is not analyzable (well-formedness failures)."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)

    def __reduce__(self):
        return type(self), (self.errors,)


# ---------------------------------------------------------------------------
# Summaries

@dataclass(frozen=True)
class FunctionSummary:
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


def pessimistic_summary(f: FunctionDef) -> FunctionSummary:
    return FunctionSummary(f.name, may_return_null=True)


def call_order(functions: list[FunctionDef]) -> tuple[list[str], set[str], dict[str, list[str]]]:
    """Bottom-up (callees first) processing order, the set of functions
    involved in recursion (via Tarjan SCCs), and each function's sorted
    direct callees within the unit."""
    names = {f.name for f in functions}
    callees = {f.name: sorted(names.intersection(f.calls)) for f in functions}

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    order: list[str] = []
    cyclic: set[str] = set()
    counter = [0]

    def strongconnect(v: str):
        work = [(v, iter(callees[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(callees[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1 or node in callees[node]:
                    cyclic.update(scc)
                order.extend(sorted(scc))

    for f in functions:
        if f.name not in index:
            strongconnect(f.name)
    return order, cyclic, callees


def _labeling(index: dict[Fact, list[int]], var: str,
              **labels: tuple[str, ...]) -> dict[str, frozenset[int]]:
    """Each label -> the node ids where one of its patterns holds for `var`."""
    return {label: frozenset(n for p in patterns for n in index.get((p, var), ()))
            for label, patterns in labels.items()}


# a value reaching a return after a null/malloc assignment and no later write
_RETURNS_NULLED = EU(TRUE, And(Prop("nulled"), EX(EU(Not(Prop("assign")), Prop("ret")))))
# a path to the exit that frees nothing
_ESCAPES = EU(Not(Prop("fre")), Prop("ext"))
# a dereference with no null check before it
_UNCHECKED_DEREF = EU(Not(Prop("chk")), Prop("drf"))


def compute_summary(f: FunctionDef, cfg: Cfg, summaries: dict[str, FunctionSummary],
                    index: dict[Fact, list[int]]) -> FunctionSummary:
    """Summarize one function given its callees' summaries and its
    `label_index`, summary facts included.

    may_return_null: some return path yields 0, a malloc result, a may-null
    callee result, or a variable still holding one of those.
    always_frees(i): no path reaches exit without freeing parameter i.
    derefs_param_unchecked(i): some path dereferences parameter i before
    any null check of it.
    """
    may_null = False
    for rid in cfg.table.returns:
        value = cfg.nodes[rid].stmt.value
        if value is None:
            continue
        if isinstance(value, ast.IntLit) and value.value == 0:
            may_null = True
            break
        if isinstance(value, ast.Call):
            if value.name == "malloc":
                may_null = True
                break
            callee = summaries.get(value.name)
            if callee is not None and callee.may_return_null:
                may_null = True
                break
        if isinstance(value, ast.Var):
            props = _labeling(index, value.name, nulled=("null_assign", "malloc_assign"),
                              assign=("assign_to",))
            props["ret"] = frozenset((rid,))
            k = to_kripke(cfg, props)
            if check(k, _RETURNS_NULLED).holds(_RETURNS_NULLED, cfg.entry):
                may_null = True
                break

    always_frees: set[int] = set()
    derefs_unchecked: set[int] = set()
    for i, prm in enumerate(f.params):
        props = _labeling(index, prm.name, fre=("free_of",))
        props["ext"] = frozenset((cfg.exit,))
        k = to_kripke(cfg, props)
        if not check(k, _ESCAPES).holds(_ESCAPES, cfg.entry):
            always_frees.add(i)

        k = to_kripke(cfg, _labeling(index, prm.name, drf=("deref",), chk=("null_check",)))
        if check(k, _UNCHECKED_DEREF).holds(_UNCHECKED_DEREF, cfg.entry):
            derefs_unchecked.add(i)

    return FunctionSummary(f.name, may_null, frozenset(always_frees),
                           frozenset(derefs_unchecked))


def apply_summaries(cfg: Cfg, summaries: dict[str, FunctionSummary]) -> dict[int, set[Fact]]:
    """Extra pattern facts implied by callee summaries at call nodes, by
    node id, for `label_index`:
      v = f(...)        matches null_assign(v) when f may return null
      f(..., v, ...)    matches free_of(v) at an always-frees position
                        and deref(v) at an unchecked-deref position.
    """
    facts: dict[int, set[Fact]] = {}
    for site in cfg.table.calls:
        summ = summaries.get(site.callee)
        if summ is None:
            continue
        found = set()
        if site.target is not None and summ.may_return_null:
            found.add(("null_assign", site.target))
        for pname, positions in (("free_of", summ.always_frees),
                                 ("deref", summ.derefs_param_unchecked)):
            for i in positions:
                if i < len(site.args) and site.args[i] is not None:
                    found.add((pname, site.args[i]))
        if found:
            facts.setdefault(site.node, set()).update(found)
    return facts


# ---------------------------------------------------------------------------
# Cache store

_HEADER_LINE = (CACHE_HEADER + "\n").encode("ascii")
_RECORD_HEAD = re.compile(rb"([0-9a-f]{64}) ([0-9]+) ([0-9a-f]{8})")


def _frame(key: str, payload: bytes) -> bytes:
    """One record: `<key> <payload length> <crc32 of key and payload>`,
    a newline, the payload and a newline."""
    kb = key.encode("ascii")
    return b"%s %d %08x\n%s\n" % (kb, len(payload), zlib.crc32(payload, zlib.crc32(kb)),
                                   payload)


def _encode(obj) -> bytes:
    """The payload of a record holding `obj`: its canonical JSON, compressed.
    `zlib.compress` is deterministic, so an unchanged record encodes to the
    bytes the store already holds."""
    return zlib.compress(canonical_json(obj).encode("ascii"))


def _framed_size(payload: bytes) -> int:
    """The length of the record `_frame` makes of `payload`."""
    return len(payload) + len(str(len(payload))) + 76


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

    Format: header line `ctl-lint-cache v4`, then records of
    `<64-hex key> <byte-length> <8-hex crc32>\\n<payload>\\n`, the CRC
    taken over the key and the payload, which is zlib-compressed canonical
    JSON (`_encode`).  There is one kind of record: one per input file,
    keyed by `file_key`, whose payload inflates to the file's functions in
    source order, `[[function key, [diagnostics, [may_return_null,
    always_frees, derefs_param_unchecked], tasks, skipped]], ...]`.  `get`
    finds a function by its key in any record the store holds, through a
    map decoded once, on first use.

    A later record for a key supersedes an earlier one, and that is the
    whole liveness rule: the live records are the last one for each key,
    and the others are dead.  `compact` rewrites the store with only its
    live records once the dead ones take more than a quarter of the bytes
    the live ones take; this object keeps a running total of the live
    bytes, so deciding that decodes nothing.

    A record whose checksum does not match is skipped; one whose framing or
    length does not match is corrupt, and everything after it is dropped.
    A record whose payload does not inflate to a file record is found when
    the store is first decoded.  In all three cases the lost records are
    misses, and the next store rewrites the file without them.  A file with another
    header (a v1, v2 or v3 store, say) starts fresh.

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
        self._files: dict[str, list[str]] = {}  # file key -> its function keys
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
            logger.warning("cache %s: %s", self.path, problem)
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

    def _decode(self) -> None:
        """Build the function map from every record, superseded ones too;
        a record that does not decode is a miss for its functions, and is
        dropped at the next rewrite."""
        self._functions = {}
        for key, payload in self._records:
            try:
                functions = dict(json.loads(zlib.decompress(payload)))
            except (ValueError, TypeError, zlib.error):
                logger.warning("cache %s: undecodable entry %s treated as miss",
                               self.path, key[:12])
                self._files.pop(key, None)
                self._undecodable[key] = payload
                self._needs_rewrite = True
                continue
            self._functions.update(functions)
            self._files[key] = list(functions)

    def get(self, key: str) -> list | None:
        """The record of the function with content key `key`, from whichever
        record holds it."""
        if self._functions is None:
            self._decode()
        return self._functions.get(key)

    def holds(self, key: str, function_keys: list[str]) -> bool:
        """Whether the record for file key `key` lists exactly
        `function_keys`, in that order."""
        if self._functions is None:
            self._decode()
        return self._files.get(key) == function_keys

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
        if self._functions is not None:
            functions = dict(obj)
            self._functions.update(functions)
            self._files[key] = list(functions)

    def compact(self) -> bool:
        """Rewrite the store with only its live records when its dead
        records take more than a quarter of the bytes the live ones take,
        or when it is corrupt.  Returns whether the store was rewritten."""
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


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False, ensure_ascii=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(func: FunctionDef, checkset_text: str, callee_summaries: dict,
              globals_text: str, max_witnesses: int) -> str:
    """Content key: function source, check set, callee summary environment,
    globals, refinement budget and tool version."""
    summary_env = canonical_json(
        {name: callee_summaries[name].to_json_obj() for name in sorted(callee_summaries)})
    parts = [
        _sha256(func.source_text),
        _sha256(checkset_text),
        _sha256(summary_env),
        _sha256(globals_text),
        f"max_witnesses={max_witnesses}",
        f"ctl-lint/{__version__}",
    ]
    return _sha256("\n".join(parts))


def file_key(file: str, checkset_text: str, max_witnesses: int) -> str:
    """Key of the record of input file `file` (the path as given)."""
    return _sha256("\n".join(["index", file, _sha256(checkset_text),
                              f"max_witnesses={max_witnesses}", f"ctl-lint/{__version__}"]))


# ---------------------------------------------------------------------------
# Per-function analysis

_MESSAGES = {
    "null-deref": "'{var}' may be NULL when dereferenced",
    "memory-leak": "allocation of '{var}' may reach function exit without free",
    "use-after-free": "'{var}' is used after being freed",
    "double-free": "'{var}' may be freed twice",
    "uninit-read": "'{var}' may be read before initialization",
}


def _message_for(check_id: str, var: str) -> str:
    template = _MESSAGES.get(check_id, "check '{id}' matched for '{var}'")
    return template.format(var=var, id=check_id)


@dataclass
class EngineConfig:
    checkset_text: str = ""
    max_witnesses: int = 5


@dataclass
class Counters:
    functions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # content view: totals a fresh analysis of the same sources would report
    content_tasks: int = 0
    content_skipped: int = 0

    def merge_content(self, tasks: int, skipped: int) -> None:
        self.content_tasks += tasks
        self.content_skipped += skipped

    def add(self, other: Counters) -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def _trace_anchor(task: CheckTask, trace) -> int:
    """Anchor node of a diagnostic: the last trace state carrying a label
    other than the structural entry/exit ones."""
    structural = {name for name, pat in task.check.labels
                  if pat.name in ("at_entry", "at_exit")}
    marked = [states for name, states in task.kripke.props.items() if name not in structural]
    for s in reversed(trace.states):
        if any(s in states for states in marked):
            return s
    return trace.states[0]


def analyze_function(f: FunctionDef, cfg: Cfg, checks: list[CheckSpec],
                     summaries: dict[str, FunctionSummary],
                     globals_: list[ast.VarDecl], config: EngineConfig,
                     index: dict[Fact, list[int]] | None = None,
                     ) -> tuple[list[Diagnostic], int, int]:
    """All diagnostics of one function plus (tasks_created, tasks_skipped).
    `index` is the function's `label_index` with summary facts, built here
    when not given."""
    if index is None:
        index = label_index(cfg, apply_summaries(cfg, summaries))
    global_names = frozenset(g.name for g in globals_)
    diags: list[Diagnostic] = []
    created = 0
    skipped = 0
    for spec in checks:
        if spec.id == DEAD_CODE_ID:
            diags.extend(_dead_code_diags(cfg, spec))
            continue
        bindings = candidate_variables(spec, cfg, globals_)
        tasks = instantiate(spec, cfg, index, bindings)
        created += len(bindings)
        skipped += len(bindings) - len(tasks)
        for task in tasks:
            sat = check(task.kripke, task.formula)
            if not sat.holds(task.formula, cfg.entry):
                continue
            if spec.refine:
                verdict, trace = refine_diagnostic(
                    task, cfg, config.max_witnesses, global_names, sat)
                if verdict == SUPPRESSED:
                    continue
                confidence = CONFIRMED if verdict == R_CONFIRMED else UNCONFIRMED
            else:
                confidence = UNCONFIRMED
                trace = witness(task.kripke, task.formula, cfg.entry, sat)
            anchor = _trace_anchor(task, trace)
            diags.append(Diagnostic(
                spec.id, spec.severity, cfg.nodes[anchor].loc,
                _message_for(spec.id, task.bound_var), cfg.function, confidence,
                tuple(cfg.nodes[s].loc for s in trace.states)))
    if any(check_sites(cfg, globals_)):
        result = interval_analyze(cfg, globals_)
        diags.extend(interval_checks(cfg, result, globals_))
    diags.sort(key=Diagnostic.sort_key)
    return diags, created, skipped


def _dead_code_diags(cfg: Cfg, spec: CheckSpec) -> list[Diagnostic]:
    """One diagnostic per region of nodes unreachable from the entry."""
    out: list[Diagnostic] = []
    for region in _dead_regions(cfg, cfg.unreachable):
        head = cfg.nodes[min(region)]
        if head.kind in ("entry", "exit"):
            continue
        out.append(Diagnostic(spec.id, spec.severity, head.loc, "unreachable code",
                              cfg.function, CONFIRMED, (head.loc,)))
    return out


def _dead_regions(cfg: Cfg, dead: frozenset[int]) -> list[set[int]]:
    regions: list[set[int]] = []
    left = set(dead)
    adj: dict[int, set[int]] = {d: set() for d in dead}
    for a, b, _ in cfg.edges:
        if a in dead and b in dead:
            adj[a].add(b)
            adj[b].add(a)
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        left -= comp
        regions.append(comp)
    regions.sort(key=min)
    return regions


# ---------------------------------------------------------------------------
# Unit analysis with caching

def _relativize(diags: list[Diagnostic], f: FunctionDef) -> list[list]:
    """Positional cache form of a function's diagnostics: `[check, severity,
    rel_line, column, message, confirmed, [l0, c0, l1, c1, ...]]`, lines
    relative to the function's own."""
    base = f.loc.line
    return [[d.check_id, d.severity, d.loc.line - base, d.loc.column, d.message,
             d.confidence == CONFIRMED,
             [n for t in d.trace for n in (t.line - base, t.column)]]
            for d in diags]


def _rehydrate(rel: list[list], f: FunctionDef, file: str) -> list[Diagnostic]:
    base = f.loc.line
    return [Diagnostic(check, severity, SourceLocation(file, base + line, column), message,
                       f.name, CONFIRMED if confirmed else UNCONFIRMED,
                       tuple(SourceLocation(file, base + trace[i], trace[i + 1])
                             for i in range(0, len(trace), 2)))
            for check, severity, line, column, message, confirmed, trace in rel]


def analyze_unit(tu: TranslationUnit, checks: list[CheckSpec],
                 db: CacheDb | None, config: EngineConfig,
                 counters: Counters | None = None,
                 ) -> tuple[list[Diagnostic], tuple[str, list] | None]:
    """Analyze one translation unit.  Returns its diagnostics, deduplicated,
    sorted and cache-transparent (byte-identical with and without `db`),
    and, when there is a `db` that does not already hold it, the unit's
    (file key, record) pair for the caller to store.  `db` is only read."""
    errors = check_well_formed(tu)
    if errors:
        raise AnalysisError(errors)
    counters = counters if counters is not None else Counters()
    funcs = {f.name: f for f in tu.functions}
    globals_text = canonical_json(tu.global_texts)
    order, cyclic, callees = call_order(tu.functions)

    cfgs: dict[str, Cfg] = {}  # only functions the cache misses need one
    summaries: dict[str, FunctionSummary] = {}
    keys: dict[str, str] = {}
    entries: dict[str, list] = {}  # function records: cached, or fresh with a store
    indexes: dict[str, dict[Fact, list[int]]] = {}
    for name in order:
        callee_env = {c: summaries[c] for c in callees[name] if c in summaries}
        key = cache_key(funcs[name], config.checkset_text, callee_env,
                        globals_text, config.max_witnesses)
        keys[name] = key
        if db is not None:  # without a store there is nothing to hit or miss
            entry = db.get(key)
            if entry is not None:
                entries[name] = entry
                may_null, frees, derefs = entry[1]
                summaries[name] = FunctionSummary(name, may_null, frozenset(frees),
                                                  frozenset(derefs))
                counters.cache_hits += 1
                continue
            counters.cache_misses += 1
        cfg = cfgs[name] = build_cfg(funcs[name])
        if name in cyclic:  # no index yet: its cycle is not summarized yet
            summaries[name] = pessimistic_summary(funcs[name])
        else:
            indexes[name] = label_index(cfg, apply_summaries(cfg, summaries))
            summaries[name] = compute_summary(funcs[name], cfg, summaries, indexes[name])

    all_diags: list[Diagnostic] = []
    for f in tu.functions:
        counters.functions += 1
        if f.name in entries:
            rel, _, tasks, skipped = entries[f.name]
            counters.merge_content(tasks, skipped)
            all_diags.extend(_rehydrate(rel, f, tu.file))
            continue
        diags, created, skipped = analyze_function(
            f, cfgs[f.name], checks, summaries, tu.globals, config, indexes.get(f.name))
        counters.merge_content(created, skipped)
        if db is not None:
            summary = summaries[f.name]
            entries[f.name] = [
                _relativize(diags, f),
                [summary.may_return_null, sorted(summary.always_frees),
                 sorted(summary.derefs_param_unchecked)],
                created, skipped]
        all_diags.extend(diags)

    record = None
    if db is not None:
        key = file_key(tu.file, config.checkset_text, config.max_witnesses)
        if not db.holds(key, [keys[f.name] for f in tu.functions]):
            record = key, [[keys[f.name], entries[f.name]] for f in tu.functions]
    return _finalize(all_diags), record


def _finalize(diags: list[Diagnostic]) -> list[Diagnostic]:
    best: dict[tuple, Diagnostic] = {}
    for d in diags:
        key = (d.check_id, d.loc, d.function, d.message)
        cur = best.get(key)
        if cur is None or (cur.confidence != CONFIRMED and d.confidence == CONFIRMED):
            best[key] = d
    out = sorted(best.values(), key=Diagnostic.sort_key)
    return out

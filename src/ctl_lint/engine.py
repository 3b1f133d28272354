"""Analysis orchestration: summaries, caching, per-function analysis.

Functions are summarized bottom-up over the call graph (recursion falls
back to pessimistic summaries), then analyzed independently: pattern
labeling, CTL checking, witness refinement, interval checks and the
structural dead-code check.  Results are aggregated into a deterministic
diagnostic list.

Per-function results are cached in a single append-friendly store keyed by
content: the function's source text, the active check-set text, the callee
summary environment, relevant config and the tool version.  Cached
diagnostics are stored positionally with function-relative line numbers so
entries survive moves within and across files.  Each input file also gets
an index record listing its functions' keys; the records no index lists
are dead, and `CacheDb.compact` drops them once they take more than a
quarter of the bytes the live ones take.  `analyze_unit` only reads the
store and returns the records it would add, its index record last; its
caller writes them.
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

CACHE_HEADER = "ctl-lint-cache v2"


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


def _parse(blob: bytes) -> tuple[dict[str, bytes], str | None]:
    """The records of a store's bytes, each key at its last occurrence,
    and the first problem found, if any."""
    entries: dict[str, bytes] = {}
    if not blob:
        return entries, None
    if not blob.startswith(_HEADER_LINE):
        return entries, "bad header, starting fresh"
    problem = None
    pos = len(_HEADER_LINE)
    while pos < len(blob):
        nl = blob.find(b"\n", pos)
        head = _RECORD_HEAD.fullmatch(blob, pos, nl) if nl >= 0 else None
        if head is None:
            return entries, f"corrupt record header at byte {pos}; dropping remainder"
        key = head[1]
        start = nl + 1
        end = start + int(head[2])
        payload = blob[start:end]
        if blob[end:end + 1] != b"\n":
            return entries, f"corrupt payload for {key[:12].decode()}; dropping remainder"
        pos = end + 1
        if zlib.crc32(payload, zlib.crc32(key)) != int(head[3], 16):
            problem = problem or f"corrupt record {key[:12].decode()} (checksum mismatch)"
            continue
        k = key.decode("ascii")
        entries.pop(k, None)
        entries[k] = payload
    return entries, problem


def _is_index(payload: bytes) -> bool:
    """An index record's payload is a list of keys; a function record's
    starts with its diagnostics list."""
    return payload.startswith(b'["') or payload == b"[]"


def _live(entries: dict[str, bytes]) -> dict[str, bytes]:
    """The index records and the records they list, in store order."""
    keep: set[str] = set()
    for key, payload in entries.items():
        if _is_index(payload):
            keep.add(key)
            with contextlib.suppress(ValueError):
                keep.update(json.loads(payload))
    return {k: v for k, v in entries.items() if k in keep}


def _compaction_due(entries: dict[str, bytes], size: int) -> bool:
    """Whether the dead records of a `size`-byte store holding `entries`
    take more than a quarter of the bytes its live records take."""
    live = sum(len(_frame(k, v)) for k, v in _live(entries).items())
    return (size - len(_HEADER_LINE) - live) * 4 > live


class CacheDb:
    """Single-file append-friendly store, shared by concurrent runs.

    Format: header line `ctl-lint-cache v2`, then records of
    `<64-hex key> <byte-length> <8-hex crc32>\\n<payload>\\n`, the CRC
    taken over the key and the payload, which is canonical JSON.  A later
    record for a key supersedes an earlier one.  A function record's
    payload is `[diagnostics, [may_return_null, always_frees,
    derefs_param_unchecked], tasks, skipped]`; an index record's is the
    keys of one input file's functions, in source order.

    A record whose checksum does not match is skipped; one whose framing or
    length does not match is corrupt, and everything after it is dropped.
    Either way the lost records are misses, and the next store rewrites the
    file.  A file with another header (a v1 store, say) starts fresh.

    `compact` rewrites the store with only its live records (the index
    records and the keys they list) once the dead ones take more than a
    quarter of the bytes the live ones take.

    Loading holds a shared `flock` on the store, appending and rewriting an
    exclusive one.  After taking a lock the store is reopened if a rewrite
    renamed a new file over the one it locked.
    """

    def __init__(self, path: str):
        self.path = path
        self._entries: dict[str, bytes] = {}
        self._size = 0  # bytes of the store as this object last saw or wrote it
        self._needs_rewrite = False
        self._fh = None  # the exclusively locked store while writing
        self._load()

    def _load(self) -> None:
        try:
            with self._open_locked("rb", fcntl.LOCK_SH) as fh:
                blob = fh.read()
        except FileNotFoundError:
            return
        self._entries, problem = _parse(blob)
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

    @contextlib.contextmanager
    def _writing(self):
        """Hold the store exclusively locked for appending; nested uses
        share one lock."""
        if self._fh is not None:
            yield
            return
        try:
            self._fh = self._open_locked("a+b", fcntl.LOCK_EX)
        except FileNotFoundError:
            raise OSError(f"cache path is not writable: {self.path}")
        try:
            yield
        finally:
            self._fh.close()
            self._fh = None

    def get(self, key: str) -> list | None:
        raw = self._entries.get(key)
        if raw is None:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            logger.warning("cache %s: undecodable entry %s treated as miss",
                           self.path, key[:12])
            del self._entries[key]
            self._needs_rewrite = True
            return None

    def put(self, key: str, obj) -> None:
        """Store a record; one the store already holds byte for byte is not
        appended again."""
        payload = canonical_json(obj).encode("utf-8")
        if self._entries.get(key) == payload:
            return
        self._entries.pop(key, None)
        self._entries[key] = payload
        with self._writing():
            if self._needs_rewrite:
                self._rewrite(self._entries)
                self._needs_rewrite = False
                return
            record = _frame(key, payload)
            if os.fstat(self._fh.fileno()).st_size == 0:
                record = _HEADER_LINE + record
            self._fh.write(record)
            self._size += len(record)

    def put_all(self, records: list[tuple[str, object]]) -> None:
        """Store one input file's records under one lock, so that a
        compaction in another run never sees its function records without
        the index record that lists them."""
        with self._writing():
            for key, obj in records:
                self.put(key, obj)

    def compact(self) -> bool:
        """Rewrite the store with only its live records when its dead
        records take more than a quarter of the bytes the live ones take,
        or when it is corrupt.  The store is read again under the lock, so
        records other runs appended since this one loaded are kept.
        Returns whether the store was rewritten."""
        if not self._needs_rewrite and not _compaction_due(self._entries, self._size):
            return False
        with self._writing():
            self._fh.seek(0)
            blob = self._fh.read()
            entries, problem = _parse(blob)
            if problem is None and not _compaction_due(entries, len(blob)):
                return False
            self._entries = _live(entries)
            self._rewrite(self._entries)
            self._needs_rewrite = False
        return True

    def _rewrite(self, entries: dict[str, bytes]) -> None:
        """Replace the store, which this object holds locked, with
        `entries`.  The records go to a temporary file in the same
        directory, which is synced, locked and then renamed over the store,
        so a crash leaves the old file or the new one, never a truncated
        one, and a run waiting for the lock finds the new file."""
        tmp = f"{self.path}.{os.getpid()}.tmp"
        blob = _HEADER_LINE + b"".join(_frame(k, v) for k, v in entries.items())
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            new = open(tmp, "a+b", buffering=0)
            try:
                fcntl.flock(new.fileno(), fcntl.LOCK_EX)
                os.replace(tmp, self.path)
            except BaseException:
                new.close()
                raise
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._fh.close()
        self._fh = new
        self._size = len(blob)


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


def index_key(file: str, checkset_text: str, max_witnesses: int) -> str:
    """Key of the index record of input file `file` (the path as given)."""
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
                 ) -> tuple[list[Diagnostic], list[tuple[str, list]]]:
    """Analyze one translation unit.  Returns its diagnostics, deduplicated,
    sorted and cache-transparent (byte-identical with and without `db`),
    and, when there is a `db`, the (key, record) pairs for the caller to
    store: those of the functions analyzed fresh, in source order, then the
    unit's index record, which lists every function's key.  `db` is only
    read."""
    errors = check_well_formed(tu)
    if errors:
        raise AnalysisError(errors)
    counters = counters if counters is not None else Counters()
    funcs = {f.name: f for f in tu.functions}
    globals_text = canonical_json([_global_sig(g) for g in tu.globals])
    order, cyclic, callees = call_order(tu.functions)

    cfgs: dict[str, Cfg] = {}  # only functions the cache misses need one
    summaries: dict[str, FunctionSummary] = {}
    keys: dict[str, str] = {}
    cached_entries: dict[str, list] = {}
    indexes: dict[str, dict[Fact, list[int]]] = {}
    for name in order:
        callee_env = {c: summaries[c] for c in callees[name] if c in summaries}
        key = cache_key(funcs[name], config.checkset_text, callee_env,
                        globals_text, config.max_witnesses)
        keys[name] = key
        if db is not None:  # without a store there is nothing to hit or miss
            entry = db.get(key)
            if entry is not None:
                cached_entries[name] = entry
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
    records: list[tuple[str, list]] = []
    for f in tu.functions:
        counters.functions += 1
        if f.name in cached_entries:
            rel, _, tasks, skipped = cached_entries[f.name]
            counters.merge_content(tasks, skipped)
            all_diags.extend(_rehydrate(rel, f, tu.file))
            continue
        diags, created, skipped = analyze_function(
            f, cfgs[f.name], checks, summaries, tu.globals, config, indexes.get(f.name))
        counters.merge_content(created, skipped)
        if db is not None:
            summary = summaries[f.name]
            records.append((keys[f.name], [
                _relativize(diags, f),
                [summary.may_return_null, sorted(summary.always_frees),
                 sorted(summary.derefs_param_unchecked)],
                created, skipped]))
        all_diags.extend(diags)
    if db is not None:
        records.append((index_key(tu.file, config.checkset_text, config.max_witnesses),
                        [keys[f.name] for f in tu.functions]))

    return _finalize(all_diags), records


def _global_sig(g: ast.VarDecl) -> list:
    return ["global", g.name, str(g.type), ast._sig(g.init)] if g.init is not None \
        else ["global", g.name, str(g.type), None]


def _finalize(diags: list[Diagnostic]) -> list[Diagnostic]:
    best: dict[tuple, Diagnostic] = {}
    for d in diags:
        key = (d.check_id, d.loc, d.function, d.message)
        cur = best.get(key)
        if cur is None or (cur.confidence != CONFIRMED and d.confidence == CONFIRMED):
            best[key] = d
    out = sorted(best.values(), key=Diagnostic.sort_key)
    return out

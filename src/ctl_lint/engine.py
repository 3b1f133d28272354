"""Analysis orchestration: summaries, caching, per-function analysis.

Functions are summarized bottom-up over the call graph (recursion falls
back to pessimistic summaries), then analyzed independently: pattern
labeling, CTL checking, witness refinement, interval checks and the
structural dead-code check.  Results are aggregated into a deterministic
diagnostic list.

Per-function results are cached in a single append-friendly store keyed by
content: the function's source text, the active check-set text, the callee
summary environment, relevant config and the tool version.  Cached
diagnostics are stored with function-relative line numbers so entries
survive moves within and across files.  `analyze_unit` only reads the
store and returns the records it would add; its caller writes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
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

CACHE_HEADER = "ctl-lint-cache v1"


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

    @staticmethod
    def from_json_obj(obj: dict) -> FunctionSummary:
        return FunctionSummary(obj["function"], obj["may_return_null"],
                               frozenset(obj["always_frees"]),
                               frozenset(obj["derefs_param_unchecked"]))


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

_RECORD_HEAD = re.compile(rb"([0-9a-f]{64}) ([0-9]+)")


class CacheDb:
    """Single-file append-friendly store.

    Format: header line `ctl-lint-cache v1`, then records of
    `<64-hex key> <byte-length>\\n<payload>\\n` with the payload being
    canonical JSON.  A record whose framing or length does not match is
    corrupt: it and everything after it are treated as misses and the file
    is rewritten on the next store.
    """

    def __init__(self, path: str):
        self.path = path
        self._entries: dict[str, bytes] = {}
        self._needs_rewrite = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return
        lines = blob.split(b"\n", 1)
        if lines[0].decode("utf-8", "replace") != CACHE_HEADER:
            logger.warning("cache %s: bad header, starting fresh", self.path)
            self._needs_rewrite = True
            return
        rest = lines[1] if len(lines) > 1 else b""
        pos = 0
        while pos < len(rest):
            nl = rest.find(b"\n", pos)
            if nl < 0:
                break
            head = _RECORD_HEAD.fullmatch(rest, pos, nl)
            if head is None:
                logger.warning("cache %s: corrupt record header at byte %d; "
                               "dropping remainder", self.path, pos)
                self._needs_rewrite = True
                return
            key = head[1].decode("ascii")
            length = int(head[2])
            start = nl + 1
            payload = rest[start:start + length]
            if len(payload) != length or rest[start + length:start + length + 1] != b"\n":
                logger.warning("cache %s: corrupt payload for %s; dropping remainder",
                               self.path, key[:12])
                self._needs_rewrite = True
                return
            self._entries[key] = payload
            pos = start + length + 1

    def get(self, key: str) -> dict | None:
        raw = self._entries.get(key)
        if raw is None:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            logger.warning("cache %s: undecodable entry %s treated as miss",
                           self.path, key[:12])
            return None

    def put(self, key: str, obj: dict) -> None:
        """Store a record; one the store already holds byte for byte is not
        appended again."""
        payload = canonical_json(obj).encode("utf-8")
        if self._entries.get(key) == payload:
            return
        self._entries[key] = payload
        if self._needs_rewrite:
            self._rewrite()
            self._needs_rewrite = False
            return
        record = f"{key} {len(payload)}\n".encode("utf-8") + payload + b"\n"
        try:
            with open(self.path, "ab") as fh:
                if fh.tell() == 0:
                    fh.write((CACHE_HEADER + "\n").encode("utf-8"))
                fh.write(record)
        except FileNotFoundError:
            raise OSError(f"cache path is not writable: {self.path}")

    def _rewrite(self) -> None:
        """Replace the store with every held record.  The records go to a
        temporary file in the same directory, which is synced and then
        renamed over the store, so a crash leaves the old file or the new
        one, never a truncated one."""
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write((CACHE_HEADER + "\n").encode("utf-8") + b"".join(
                    f"{k} {len(v)}\n".encode("utf-8") + v + b"\n"
                    for k, v in self._entries.items()))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


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
        result = interval_analyze(cfg, global_names)
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

def _relativize(diags: list[Diagnostic], f: FunctionDef) -> list[dict]:
    base = f.loc.line
    out = []
    for d in diags:
        out.append({
            "check": d.check_id,
            "severity": d.severity,
            "rel_line": d.loc.line - base,
            "column": d.loc.column,
            "message": d.message,
            "confidence": d.confidence,
            "trace": [{"rel_line": t.line - base, "column": t.column} for t in d.trace],
        })
    return out


def _rehydrate(rel: list[dict], f: FunctionDef, file: str) -> list[Diagnostic]:
    base = f.loc.line
    out = []
    for r in rel:
        out.append(Diagnostic(
            r["check"], r["severity"],
            SourceLocation(file, base + r["rel_line"], r["column"]),
            r["message"], f.name, r["confidence"],
            tuple(SourceLocation(file, base + t["rel_line"], t["column"])
                  for t in r["trace"])))
    return out


def analyze_unit(tu: TranslationUnit, checks: list[CheckSpec],
                 db: CacheDb | None, config: EngineConfig,
                 counters: Counters | None = None,
                 ) -> tuple[list[Diagnostic], list[tuple[str, dict]]]:
    """Analyze one translation unit.  Returns its diagnostics, deduplicated,
    sorted and cache-transparent (byte-identical with and without `db`),
    and, when there is a `db`, the (key, record) pairs of the functions
    analyzed fresh, in source order, for the caller to store.  `db` is only
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
    cached_entries: dict[str, dict] = {}
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
                summaries[name] = FunctionSummary.from_json_obj(entry["summary"])
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
    records: list[tuple[str, dict]] = []
    for f in tu.functions:
        counters.functions += 1
        if f.name in cached_entries:
            entry = cached_entries[f.name]
            counters.merge_content(entry["tasks"], entry["skipped"])
            all_diags.extend(_rehydrate(entry["diagnostics"], f, tu.file))
            continue
        diags, created, skipped = analyze_function(
            f, cfgs[f.name], checks, summaries, tu.globals, config, indexes.get(f.name))
        counters.merge_content(created, skipped)
        if db is not None:
            records.append((keys[f.name], {
                "diagnostics": _relativize(diags, f),
                "summary": summaries[f.name].to_json_obj(),
                "tasks": created,
                "skipped": skipped,
            }))
        all_diags.extend(diags)

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

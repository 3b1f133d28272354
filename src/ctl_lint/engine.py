"""Analysis orchestration: summaries, caching, per-function analysis.

Functions are summarized bottom-up over the call graph (recursion falls
back to pessimistic summaries), then analyzed independently: pattern
labeling, CTL checking and witness refinement for each spec check, and the
dead-code and interval checks of `ANALYSIS_CHECKS`.  A unit's result is its
file record: a function found in the store (`cache`) is its stored record,
and any other is packed once analyzed.  `analyze_unit` only reads the
store, and its caller writes it.
"""

from __future__ import annotations

from . import frontend as ast
from .cache import (
    CacheDb, FunctionSummary, cache_key, canonical_json, pack_function, record_summary,
)
from .cfg import Cfg, build_cfg, to_kripke
from .ctl import And, EF, EU, EX, Not, Prop, check
from .ctl import witness  # noqa: F401 (unused: perfbench/traced.py wraps `engine.witness`)
from .diagnostics import (
    ANALYSIS_CHECKS, AnalysisError, CONFIRMED, Counters, DEAD_CODE, Diagnostic, EngineConfig,
)
from .frontend import FunctionDef, TranslationUnit, check_well_formed
from .intervals import analyze as interval_analyze, check_sites, interval_checks
from .refine import SUPPRESSED, refine_diagnostic
from .speclang import (
    CheckSpec, CheckTask, Fact, candidate_variables, instantiate, label_index,
)


# ---------------------------------------------------------------------------
# Summaries

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
_RETURNS_NULLED = EF(And(Prop("nulled"), EX(EU(Not(Prop("assign")), Prop("ret")))))
# a path to the exit that frees nothing
_ESCAPES = EU(Not(Prop("fre")), Prop("ext"))
# a dereference with no null check before it
_UNCHECKED_DEREF = EU(Not(Prop("chk")), Prop("drf"))


def compute_summary(cfg: Cfg, summaries: dict[str, FunctionSummary],
                    index: dict[Fact, list[int]]) -> FunctionSummary:
    """Summarize one function given its callees' summaries and its
    `label_index`, summary facts included.

    may_return_null: some return path yields 0, a malloc result, a may-null
    callee result, or a variable still holding one of those.
    always_frees(i): no path reaches exit without freeing parameter i.
    derefs_param_unchecked(i): some path dereferences parameter i before
    any null check of it.
    A query with an empty trigger label needs no model checking, as in
    `instantiate`: with nothing nulled, freed or dereferenced, no null is
    returned, the exit escapes iff it is reachable, and no deref is unchecked.
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
            if props["nulled"] and check(to_kripke(cfg, props), _RETURNS_NULLED).holds(
                    _RETURNS_NULLED, cfg.entry):
                may_null = True
                break

    always_frees: set[int] = set()
    derefs_unchecked: set[int] = set()
    for i, prm in enumerate(cfg.func.params):
        props = _labeling(index, prm.name, fre=("free_of",))
        props["ext"] = frozenset((cfg.exit,))
        escapes = (check(to_kripke(cfg, props), _ESCAPES).holds(_ESCAPES, cfg.entry)
                   if props["fre"] else cfg.exit not in cfg.unreachable)
        if not escapes:
            always_frees.add(i)

        props = _labeling(index, prm.name, drf=("deref",), chk=("null_check",))
        if props["drf"] and check(to_kripke(cfg, props), _UNCHECKED_DEREF).holds(
                _UNCHECKED_DEREF, cfg.entry):
            derefs_unchecked.add(i)

    return FunctionSummary(cfg.function, may_null, frozenset(always_frees),
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


def _trace_anchor(task: CheckTask, trace: tuple[int, ...]) -> int:
    """Anchor node of a diagnostic: the last trace state carrying a label
    other than the structural entry/exit ones."""
    structural = {name for name, pat in task.check.labels
                  if pat.name in ("at_entry", "at_exit")}
    marked = [states for name, states in task.kripke.props.items() if name not in structural]
    for s in reversed(trace):
        if any(s in states for states in marked):
            return s
    return trace[0]


def analyze_function(cfg: Cfg, checks: list[CheckSpec],
                     summaries: dict[str, FunctionSummary], config: EngineConfig,
                     index: dict[Fact, list[int]] | None = None,
                     ) -> tuple[list[Diagnostic], int, int]:
    """All diagnostics of one function plus (tasks_created, tasks_skipped).
    `index` is the function's `label_index` with summary facts, built here
    when not given."""
    if index is None:
        index = label_index(cfg, apply_summaries(cfg, summaries))
    diags = _dead_code_diags(cfg)
    created = 0
    skipped = 0
    for spec in checks:
        bindings = candidate_variables(spec, cfg)
        tasks = instantiate(spec, cfg, index, bindings)
        created += len(bindings)
        skipped += len(bindings) - len(tasks)
        for task in tasks:
            sat = check(task.kripke, spec.prop)
            if not sat.holds(spec.prop, cfg.entry):
                continue
            confidence, trace = refine_diagnostic(task, cfg, config.max_witnesses, sat)
            if confidence == SUPPRESSED:
                continue
            anchor = _trace_anchor(task, trace)
            diags.append(Diagnostic(
                spec.id, spec.severity, cfg.nodes[anchor].loc,
                _message_for(spec.id, task.var), cfg.function, confidence,
                tuple(cfg.nodes[s].loc for s in trace)))
    if any(check_sites(cfg)):
        diags.extend(interval_checks(cfg, interval_analyze(cfg)))
    diags.sort(key=Diagnostic.sort_key)
    return diags, created, skipped


def _dead_code_diags(cfg: Cfg) -> list[Diagnostic]:
    """One diagnostic per region of nodes unreachable from the entry."""
    severity = ANALYSIS_CHECKS[DEAD_CODE][0]
    out: list[Diagnostic] = []
    for region in _dead_regions(cfg, cfg.unreachable):
        head = cfg.nodes[min(region)]
        if head.kind in ("entry", "exit"):
            continue
        out.append(Diagnostic(DEAD_CODE, severity, head.loc, "unreachable code",
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

def analyze_unit(tu: TranslationUnit, checks: list[CheckSpec],
                 db: CacheDb | None, config: EngineConfig,
                 counters: Counters | None = None) -> list:
    """Analyze one translation unit.  Returns its file record, `[digest,
    starts, [[function key, function record], ...]]` in source order, the
    same with and without `db`: a function `db` holds is its stored record,
    and any other is packed once analyzed.  `db` is only read."""
    errors = check_well_formed(tu)
    if errors:
        raise AnalysisError(errors)
    counters = counters if counters is not None else Counters()
    funcs = {f.name: f for f in tu.functions}
    globals_env = canonical_json([[g.name, str(g.type)] for g in tu.globals])
    order, cyclic, callees = call_order(tu.functions)

    cfgs: dict[str, Cfg] = {}  # only functions the cache misses need one
    summaries: dict[str, FunctionSummary] = {}
    keys: dict[str, str] = {}
    records: dict[str, list] = {}  # the function records the store holds
    indexes: dict[str, dict[Fact, list[int]]] = {}
    for name in order:
        summary_env = canonical_json(
            {c: summaries[c].to_json_obj() for c in callees[name] if c in summaries})
        key = keys[name] = cache_key(funcs[name].source_text, config.checkset_text,
                                     summary_env, globals_env, config.max_witnesses)
        if db is not None:  # without a store there is nothing to hit or miss
            cached = db.get(key)
            if cached is not None:
                records[name] = cached
                summaries[name] = record_summary(cached, name)
                counters.cache_hits += 1
                continue
            counters.cache_misses += 1
        cfg = cfgs[name] = build_cfg(funcs[name], tu.globals)
        if name in cyclic:  # no index yet: its cycle is not summarized yet
            summaries[name] = pessimistic_summary(funcs[name])
        else:
            indexes[name] = label_index(cfg, apply_summaries(cfg, summaries))
            summaries[name] = compute_summary(cfg, summaries, indexes[name])

    functions = []
    for f in tu.functions:
        counters.functions += 1
        record = records.get(f.name)
        if record is None:
            diags, created, skipped = analyze_function(
                cfgs[f.name], checks, summaries, config, indexes.get(f.name))
            record = pack_function(diags, summaries[f.name], created, skipped, f.loc.line)
        counters.merge_content(record[2], record[3])
        functions.append([keys[f.name], record])
    return [tu.digest, [f.offset for f in tu.functions], functions]

from __future__ import annotations

import copy
import heapq
from fractions import Fraction as Fr

import pytest

from ctl_lint import engine, refine
from ctl_lint import frontend as F
from ctl_lint.cfg import COND, FALSE, TRUE, build_cfg
from ctl_lint.ctl import check, is_propositional, witness
from ctl_lint.intervals import IntervalEnv, transfer
from ctl_lint.refine import (
    CONFIRMED, EQ, FEASIBLE, LE, LT, SUPPRESSED, UNCONFIRMED, UNKNOWN, Feasible,
    FeasibilityVerdict, Infeasible, PathConstraint, _Accept, _compile_obligations,
    _constraint, _Gate, _Split, _Stay, _Step, enumerate_witnesses, feasible,
    path_constraints, refine_diagnostic,
)
from ctl_lint.speclang import instantiate, label_index, load_checkset
from fixtures_bugs import FIXTURES
from minic_interp import Interpreter
from program_gen import generate_program

CHECKS = {c.id: c for c in load_checkset()[0]}


def cfg_of(src: str, idx: int = 0):
    tu = F.parse(src, "a.c")
    assert F.check_well_formed(tu) == []
    return build_cfg(tu.functions[idx], tu.globals), tu


def follow(cfg, branches):
    """Walk from entry taking the given labels at conditions."""
    path = [cfg.entry]
    picks = list(branches)
    while path[-1] != cfg.exit:
        outs = cfg.succ[path[-1]]
        if len(outs) == 1:
            path.append(outs[0][0])
        else:
            want = picks.pop(0)
            path.append(next(t for t, lab in outs if lab == want))
    return tuple(path)


class TestPathConstraints:
    def test_store_substitutes_writes_into_guards(self):
        src = """
int f(int y) {
  int x;
  if (y >= 0) {
    x = y + 1;
    if (x <= 0) { return 1; }
  }
  return 0;
}
"""
        g, _ = cfg_of(src)
        ret1 = next(n.id for n in g.nodes
                    if isinstance(n.stmt, F.Return) and n.stmt.value.value == 1)
        trace = follow(g, [TRUE, TRUE])
        assert ret1 in trace
        cs = path_constraints(trace[:trace.index(ret1) + 1], g)
        rendered = sorted(str(c) for c in cs)
        assert rendered == [
            "-1*y <= 0",    # y >= 0
            "y <= -1",      # x <= 0, with x = y + 1
        ]
        assert feasible(cs) == Infeasible

    def test_nonlinear_rhs_havocs(self):
        src = "int f(int x) { x = x * x; if (x < 0) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        trace = follow(g, [TRUE])
        cs = path_constraints(trace, g)
        # x gets the fresh symbol of trace position 1, which nothing ties
        # to the entry value; only the guard constrains it
        assert [str(c) for c in cs] == ["x@1 < 0"]
        assert feasible(cs) == Feasible

    def test_empty_trace(self):
        g, _ = cfg_of("int f() { return 0; }")
        assert path_constraints((), g) == []

    def test_equality_guards_and_false_branch(self):
        src = "int f(int x) { if (x == 3) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs_true = path_constraints(follow(g, [TRUE]), g)
        assert [str(c) for c in cs_true] == ["x = 3"]
        cs_false = path_constraints(follow(g, [FALSE]), g)
        assert cs_false == []  # x != 3 is not convex; dropped

    def test_truth_value_false_branch_pins_zero(self):
        src = "int f(int x) { if (x) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs = path_constraints(follow(g, [FALSE]), g)
        assert [str(c) for c in cs] == ["x = 0"]

    def test_uninit_decl_is_unconstrained(self):
        src = "int f() { int x; if (x < 0) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs = path_constraints(follow(g, [TRUE]), g)
        # the declaration at trace position 1 gives x a fresh symbol
        assert [str(c) for c in cs] == ["x@1 < 0"]
        assert feasible(cs) == Feasible

    @pytest.mark.parametrize("setup, write, clobbers", [
        ("", "g(&x);", True),
        ("", "x = g(&x);", True),
        ("int *q = &x;", "*q = 1;", True),
        ("int *p = &x;", "p[i] = 1;", True),
        ("int *q = &x; int a[4];", "a[i] = 1;", False),
    ], ids=["call", "call-writing-its-argument", "deref", "pointer-index", "array-index"])
    def test_a_clobber_renews_what_the_intervals_drop(self, setup, write, clobbers):
        # one rule for both analyses: after `int x = 0`, node n lets
        # `x == 1` hold in the interval transfer exactly when it gives x a
        # fresh symbol in the path constraints
        g, _ = cfg_of("void g(int *q) { *q = 1; }\n"
                      f"int f(int i) {{ int x = 0; {setup} {write} "
                      "if (x == 1) { return 1; } return 0; }", idx=1)
        decl, = (n.id for n in g.nodes if isinstance(n.stmt, F.VarDecl) and n.stmt.name == "x")
        guard, = (n for n in g.nodes if n.kind == "cond")
        taken, = (t for t, lab in g.succ[guard.id] if lab == TRUE)
        renewed, dropped = set(), set()
        for n in g.nodes:
            if n.kind != "stmt" or n.id == decl:
                continue
            trace = (decl, n.id, guard.id, taken)
            if feasible(path_constraints(trace, g)) == Feasible:
                renewed.add(n.id)
            env = transfer(n, transfer(g.nodes[decl], IntervalEnv(), g.table), g.table)
            if not transfer(guard, env, g.table, TRUE).is_bottom:
                dropped.add(n.id)
        # setup declares only, so `write` is the one assignment or call statement
        node, = (n.id for n in g.nodes if isinstance(n.stmt, (F.Assign, F.ExprStmt)))
        assert renewed == dropped == ({node} if clobbers else set())


    @pytest.mark.parametrize("call", ["a[k()] = 1;", "if (k()) { }"],
                             ids=["assignment-target", "empty-branch-condition"])
    def test_user_call_renews_globals(self, analyze, call):
        # k() may set g to 5, so the path that takes the early return
        # without freeing p is feasible
        src = ("int g; int k() { g = 5; return 0; }\n"
               f"int f(int a[4]) {{ int *p = malloc(4); g = 0; {call}\n"
               "  if (g == 5) { return 0; } free(p); return 0; }\n")
        leaks = [d for d in analyze(src) if d.check_id == "memory-leak"]
        assert [(d.function, d.message) for d in leaks] == [
            ("f", "allocation of 'p' may reach function exit without free")]

    @pytest.mark.parametrize("params, setup, guard", [
        ("int x", "", "x - x"),
        ("", "int g = 1;", "g - 1"),
    ], ids=["cancelled", "constant-folded"])
    def test_a_guard_that_is_always_zero_has_an_infeasible_true_edge(
            self, analyze, params, setup, guard):
        # the guard's form has no terms and a zero constant, so the path
        # that frees p twice is infeasible, and no run ever takes it
        src = (f"int f({params}) {{ {setup} int *p = malloc(4); "
               f"if ({guard}) {{ free(p); }} free(p); return 0; }}")
        assert [d.check_id for d in analyze(src)
                if d.check_id in ("double-free", "use-after-free")] == []
        interp = Interpreter(F.parse(src, "a.c"))
        for arg in range(-3, 4):
            interp.run("f", (arg,) if params else ())
        assert interp.event_kinds().isdisjoint({"double-free", "use-after-free"})


class TestFourierMotzkin:
    def test_direct_contradiction(self):
        cs = [_constraint({"x": Fr(1)}, LT, Fr(0)),
              _constraint({"x": Fr(-1)}, LT, Fr(0))]
        assert feasible(cs) == Infeasible

    def test_substitution_chain(self):
        cs = [_constraint({"x": Fr(1), "y": Fr(-1)}, EQ, Fr(1)),   # x = y + 1
              _constraint({"y": Fr(-1)}, LE, Fr(0)),               # y >= 0
              _constraint({"x": Fr(1)}, LE, Fr(0))]                # x <= 0
        assert feasible(cs) == Infeasible

    def test_single_equality_feasible(self):
        assert feasible([_constraint({"x": Fr(1)}, EQ, Fr(5))]) == Feasible

    def test_strictness_matters(self):
        le = [_constraint({"x": Fr(1)}, LE, Fr(0)),
              _constraint({"x": Fr(-1)}, LE, Fr(0))]   # x <= 0 and x >= 0
        assert feasible(le) == Feasible
        lt = [_constraint({"x": Fr(1)}, LT, Fr(0)),
              _constraint({"x": Fr(-1)}, LE, Fr(0))]   # x < 0 and x >= 0
        assert feasible(lt) == Infeasible

    def test_rational_relaxation_is_feasible_side(self):
        # 2x = 1 has no integer solution but is rationally fine
        assert feasible([_constraint({"x": Fr(2)}, EQ, Fr(1))]) == Feasible

    def test_unbounded_variable_dropped(self):
        cs = [_constraint({"x": Fr(1), "y": Fr(1)}, LE, Fr(10))]
        assert feasible(cs) == Feasible

    def test_budget_gives_unknown(self):
        cs = [_constraint({f"v{i}": Fr(1), f"v{i+1}": Fr(-1)}, LE, Fr(0))
              for i in range(20)]
        verdict = feasible(cs, budget=4)
        assert verdict.kind == "unknown" and verdict.reason == "budget"

    def test_ground_contradiction_in_equalities(self):
        cs = [_constraint({"x": Fr(1)}, EQ, Fr(1)),
              _constraint({"x": Fr(1)}, EQ, Fr(2))]
        assert feasible(cs) == Infeasible

    def test_infeasible_never_has_integer_solutions(self):
        # rational emptiness must imply integer emptiness: brute-force every
        # integer assignment in a small box whenever FM says Infeasible
        import itertools
        import random
        rng = random.Random(404)
        names = ("a", "b", "c")
        for _ in range(200):
            cs = []
            for _ in range(rng.randint(1, 5)):
                terms = {n: Fr(rng.randint(-3, 3)) for n in names if rng.random() < 0.7}
                op = rng.choice((EQ, LE, LT))
                cs.append(_constraint(terms, op, Fr(rng.randint(-6, 6))))
            if feasible(cs).kind != "infeasible":
                continue
            for point in itertools.product(range(-6, 7), repeat=len(names)):
                valuation = dict(zip(names, point))
                ok = True
                for c in cs:
                    val = sum(coef * valuation[v] for v, coef in c.terms)
                    if c.op == EQ and val != c.rhs:
                        ok = False
                    elif c.op == LE and not val <= c.rhs:
                        ok = False
                    elif c.op == LT and not val < c.rhs:
                        ok = False
                    if not ok:
                        break
                assert not ok, (cs, valuation)


def _satisfied_task(src, check_id, var="p"):
    g, _ = cfg_of(src)
    spec = CHECKS[check_id]
    tasks = instantiate(spec, g, label_index(g), [var])
    assert tasks, "fixture must produce a task"
    task = tasks[0]
    sat = check(task.kripke, task.formula)
    assert sat.holds(task.formula, g.entry), "fixture must violate the property"
    return task, g, sat


class TestRefineDiagnostic:
    def test_genuine_bug_confirmed_on_first_trace(self):
        task, g, sat = _satisfied_task(
            "int f(int *p) { free(p); free(p); return 0; }", "double-free")
        verdict, trace = refine_diagnostic(task, g, 5, sat=sat)
        assert verdict == "confirmed"
        assert trace == (0, 1, 2)

    def test_contradictory_guards_suppress(self):
        src = """
int f(int *p, int x) {
  free(p);
  if (x > 0) {
    if (x < 0) {
      free(p);
    }
  }
  return 0;
}
"""
        task, g, sat = _satisfied_task(src, "double-free")
        verdict, trace = refine_diagnostic(task, g, 5, sat=sat)
        assert verdict == "suppressed" and trace is None

    def test_unknown_verdict_keeps_unconfirmed(self, monkeypatch):
        # the contradictory-guards task, whose witnesses are all infeasible,
        # with Fourier-Motzkin giving up on the first one
        src = """
int f(int *p, int x) {
  free(p);
  if (x > 0) {
    if (x < 0) {
      free(p);
    }
  }
  return 0;
}
"""
        task, g, sat = _satisfied_task(src, "double-free")
        traces, _ = enumerate_witnesses(task.kripke, task.formula, g.entry, 5, sat)
        real = refine.feasible
        calls = []

        def first_unknown(cs, *args):
            calls.append(cs)
            return FeasibilityVerdict(UNKNOWN, "budget") if len(calls) == 1 else real(cs, *args)

        monkeypatch.setattr(refine, "feasible", first_unknown)
        assert refine_diagnostic(task, g, 5, sat=sat) == (UNCONFIRMED, traces[0])

    def test_zero_budget_keeps_unconfirmed(self):
        task, g, sat = _satisfied_task(
            "int f(int *p) { free(p); free(p); return 0; }", "double-free")
        verdict, trace = refine_diagnostic(task, g, 0, sat=sat)
        assert verdict == "unconfirmed"
        assert trace is not None and trace[0] == g.entry

    def test_second_witness_rescues_diagnostic(self):
        # the shortest path is infeasible, a longer one is real
        src = """
int f(int *p, int x) {
  free(p);
  if (x > 0) {
    if (x < 0) {
      free(p);
    }
  }
  if (x == 7) {
    free(p);
  }
  return 0;
}
"""
        task, g, sat = _satisfied_task(src, "double-free")
        verdict, trace = refine_diagnostic(task, g, 5, sat=sat)
        assert verdict == "confirmed"
        assert trace is not None

    def test_determinism(self):
        src = "int f(int *p, int c) { free(p); if (c) { free(p); } else { free(p); } return 0; }"
        task, g, sat = _satisfied_task(src, "double-free")
        a = refine_diagnostic(task, g, 5, sat=sat)
        b = refine_diagnostic(task, g, 5, sat=sat)
        assert a == b


class TestEnumeration:
    def test_shortest_first_distinct(self):
        src = "int f(int *p, int c) { free(p); if (c) { free(p); } else { free(p); } return 0; }"
        task, g, sat = _satisfied_task(src, "double-free")
        traces, exhausted = enumerate_witnesses(task.kripke, task.formula, g.entry, 10, sat)
        assert exhausted
        assert len(traces) == 2
        lengths = [len(t) for t in traces]
        assert lengths == sorted(lengths)
        assert traces[0] != traces[1]

    def test_exit_self_loop_not_enumerated_as_variants(self):
        task, g, sat = _satisfied_task(
            "int f(int *p) { int *q = malloc(4); p = q; return 0; }", "memory-leak", var="q")
        traces, exhausted = enumerate_witnesses(task.kripke, task.formula, g.entry, 10, sat)
        assert exhausted
        assert len(traces) == 1  # idling on the exit loop is not a new witness


def _reference_refine(task, cfg, max_witnesses, sat, known):
    """The verdict rule applied to the full `enumerate_witnesses` list: the
    first feasible trace confirms; all infeasible suppresses unless some
    verdict was Unknown or the search did not run to exhaustion.
    `known` maps constraint tuples to verdicts already computed."""
    traces, exhausted = enumerate_witnesses(
        task.kripke, task.formula, cfg.entry, max_witnesses, sat)
    if not traces:
        return UNCONFIRMED, witness(task.kripke, task.formula, cfg.entry, sat)
    saw_unknown = False
    for trace in traces:
        cs = tuple(path_constraints(trace, cfg))
        kind = (known[cs] if cs in known else feasible(list(cs))).kind
        if kind == FEASIBLE:
            return CONFIRMED, trace
        saw_unknown |= kind == UNKNOWN
    if saw_unknown or not exhausted:
        return UNCONFIRMED, traces[0]
    return SUPPRESSED, None


def _analyze_pin_sources(max_witnesses: int) -> None:
    """Analyze the first 50 generated programs and the 48 bug fixtures."""
    sources = ([(f"gen{seed}.c", generate_program(seed)) for seed in range(50)]
               + [(f"{fx.name}.c", fx.source) for fx in FIXTURES])
    config = engine.EngineConfig(checkset_text="builtin", max_witnesses=max_witnesses)
    checks, _ = load_checkset()
    for name, src in sources:
        engine.analyze_unit(F.parse(src, name), checks, None, config)


@pytest.fixture(scope="module")
def pin_tasks():
    """(task, cfg, sat) of every refine call the engine makes
    on the pin sources."""
    calls = []
    real = engine.refine_diagnostic

    def recording(task, cfg, budget, sat):
        calls.append((task, cfg, sat))
        return real(task, cfg, budget, sat)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "refine_diagnostic", recording)
        _analyze_pin_sources(1)
    return calls


@pytest.fixture(scope="module")
def refinement_runs():
    """What refinement does on the pin sources at 300 witnesses: the
    (trace, cfg, constraints) of each `path_constraints` call, and each
    constraint list with the verdict `feasible` gave it."""
    walks, verdicts = [], {}
    real_walk, real_feasible = refine.path_constraints, refine.feasible

    def walking(trace, cfg):
        cs = real_walk(trace, cfg)
        walks.append((trace, cfg, cs))
        return cs

    def recording(cs, *args):
        verdict = verdicts[tuple(cs)] = real_feasible(cs, *args)
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "path_constraints", walking)
        mp.setattr(refine, "feasible", recording)
        _analyze_pin_sources(300)
    return walks, verdicts


@pytest.fixture(scope="module")
def refinement_sets(refinement_runs):
    """Every constraint list `path_constraints` builds on the pin sources
    at 300 witnesses, each with the verdict `feasible` gave it."""
    return refinement_runs[1]


def test_each_constraint_comes_from_its_own_guard_edge(refinement_runs):
    # without the edges that leave conditions a trace gives no constraint,
    # and with them it gives at most one per labelled guard edge it takes
    walks, _ = refinement_runs
    blind = {}
    guards = 0
    for trace, cfg, cs in walks:
        if id(cfg) not in blind:
            blind[id(cfg)] = copy.copy(cfg)
            blind[id(cfg)].succ = [[] if n.kind == COND else outs
                                   for n, outs in zip(cfg.nodes, cfg.succ)]
        assert path_constraints(trace, blind[id(cfg)]) == []
        taken = sum(1 for a, b in zip(trace, trace[1:]) if cfg.nodes[a].kind == COND
                    and len({lab for t, lab in cfg.succ[a] if t == b}) == 1)
        assert len(cs) <= taken, (cfg.function, trace)
        guards += taken
    assert guards > len(walks)


def test_integer_programs_give_integer_constraints(refinement_sets):
    values = [x for cs in refinement_sets for c in cs for x in (c.rhs, *(x for _, x in c.terms))]
    assert len(values) > 10_000
    assert {type(x) for x in values} == {int}


def test_fraction_input_gives_the_same_verdict(refinement_sets):
    for cs, verdict in refinement_sets.items():
        as_fractions = [PathConstraint(tuple((v, Fr(x)) for v, x in c.terms), c.op, Fr(c.rhs))
                        for c in cs]
        assert feasible(as_fractions) == verdict, cs
    assert set(refinement_sets.values()) == {Feasible, Infeasible}


def test_equality_with_a_coefficient_that_does_not_divide():
    # x = y/2 (2x - y = 0), y = 3, x >= 2: 3/2 >= 2 fails only over exact fractions
    cs = [_constraint({"x": 2, "y": -1}, EQ, 0), _constraint({"y": 1}, EQ, 3),
          _constraint({"x": -1}, LE, -2)]
    assert feasible(cs) == Infeasible
    cs[2] = _constraint({"x": -1}, LE, -1)  # x >= 1
    assert feasible(cs) == Feasible


@pytest.mark.parametrize("max_witnesses", [1, 5, 300])
def test_refine_matches_full_enumeration_reference(pin_tasks, monkeypatch, max_witnesses):
    # feasible() is a pure function of its constraints, so the reference
    # reuses the verdicts refine_diagnostic computed instead of repeating
    # the Fourier-Motzkin work
    known = {}
    real = refine.feasible

    def recording(cs, *args):
        verdict = known[tuple(cs)] = real(cs, *args)
        return verdict

    monkeypatch.setattr(refine, "feasible", recording)
    verdicts = set()
    for task, cfg, sat in pin_tasks:
        got = refine_diagnostic(task, cfg, max_witnesses, sat)
        want = _reference_refine(task, cfg, max_witnesses, sat, known)
        assert got == want, (cfg.function, task.check.id, task.bound_var)
        verdicts.add(got[0])
    # every budget both confirms and suppresses on the pin tasks; at 1 the
    # tasks with a single, infeasible witness are the ones suppressed
    assert verdicts >= {CONFIRMED, SUPPRESSED}, verdicts


@pytest.mark.parametrize("max_witnesses", [1, 2, 5])
def test_budget_covering_every_witness_gives_the_full_verdict(pin_tasks, max_witnesses):
    # a search that has found every distinct witness there is has run to
    # exhaustion, whatever the budget, so it decides as a large budget does
    covered = 0
    for task, cfg, sat in pin_tasks:
        traces, exhausted = enumerate_witnesses(task.kripke, task.formula, cfg.entry, 300, sat)
        if not exhausted or len(traces) > max_witnesses:
            continue
        covered += 1
        assert (refine_diagnostic(task, cfg, max_witnesses, sat)
                == refine_diagnostic(task, cfg, 300, sat)), \
            (cfg.function, task.check.id, task.bound_var)
    assert covered


def test_refine_stops_at_first_feasible_witness(monkeypatch):
    src = "int f(int *p, int c) { free(p); if (c) { free(p); } else { free(p); } return 0; }"
    task, g, sat = _satisfied_task(src, "double-free")
    traces, _ = enumerate_witnesses(task.kripke, task.formula, g.entry, 5, sat)
    assert len(traces) == 2
    assert feasible(path_constraints(traces[0], g)) == Feasible
    enumerated, fm_calls = [], []
    real_enum, real_feasible = refine.enumerate_witnesses, refine.feasible

    def counting_enum(*args, **kwargs):
        result = real_enum(*args, **kwargs)
        enumerated.append(len(result[0]))
        return result

    def counting_feasible(*args, **kwargs):
        fm_calls.append(1)
        return real_feasible(*args, **kwargs)

    monkeypatch.setattr(refine, "enumerate_witnesses", counting_enum)
    monkeypatch.setattr(refine, "feasible", counting_feasible)
    assert refine_diagnostic(task, g, 5, sat=sat) == (CONFIRMED, traces[0])
    assert enumerated == [1]
    assert len(fm_calls) == 1


def _unpruned_witnesses(task_kripke, formula, start, limit, sat,
                        budget=refine.DEFAULT_ENUM_BUDGET):
    """`enumerate_witnesses` as it was before it searched only live
    entries: every `(path, phase)` is pushed and popped, and a phase tests
    its own proposition when it is popped."""
    phases, forms = [], []
    entry = _compile_obligations(formula, phases, forms)
    holding = []
    for phase, form in zip(phases, forms):
        if isinstance(phase, _Gate):
            form = form.left if is_propositional(form.left) else form.right
        elif isinstance(phase, _Stay):
            form = phase.prop
        holding.append(sat.states(form) if isinstance(phase, (_Accept, _Gate, _Stay)) else None)
    found, seen_traces, visited = [], set(), set()
    heap = [(0, (start,), entry)]
    expansions = 0
    while heap:
        steps, states, ph = heapq.heappop(heap)
        if (states, ph) in visited:
            continue
        visited.add((states, ph))
        expansions += 1
        if expansions > budget:
            return found, False
        state, phase = states[-1], phases[ph]
        if isinstance(phase, _Accept):
            if state in holding[ph] and states not in seen_traces:
                if len(found) >= limit:
                    return found, False
                seen_traces.add(states)
                found.append(states)
        elif isinstance(phase, _Gate):
            if state in holding[ph]:
                heapq.heappush(heap, (steps, states, phase.nxt))
        elif isinstance(phase, _Split):
            heapq.heappush(heap, (steps, states, phase.a))
            heapq.heappush(heap, (steps, states, phase.b))
        elif isinstance(phase, _Step):
            for t in task_kripke.succ[state]:
                heapq.heappush(heap, (steps + 1, states + (t,), phase.nxt))
        else:
            heapq.heappush(heap, (steps, states, phase.nxt))
            if state in holding[ph]:
                for t in task_kripke.succ[state]:
                    if t != state:
                        heapq.heappush(heap, (steps + 1, states + (t,), ph))
    return found, True


@pytest.mark.parametrize("limit", [1, 5, 300])
def test_live_search_extends_the_unpruned_search(pin_tasks, limit):
    # live entries pop in the order they did among all entries, so the
    # witnesses of the unpruned search come first and in the same order;
    # pruning only frees budget, so it finds more or ends sooner
    exhausted_only_when_pruned = 0
    for task, cfg, sat in pin_tasks:
        want, want_exhausted = _unpruned_witnesses(
            task.kripke, task.formula, cfg.entry, limit, sat)
        got, exhausted = enumerate_witnesses(task.kripke, task.formula, cfg.entry, limit, sat)
        where = (cfg.function, task.check.id, task.bound_var)
        assert got[:len(want)] == want, where
        if want_exhausted:
            assert (got, exhausted) == (want, True), where
        exhausted_only_when_pruned += exhausted and not want_exhausted
    assert exhausted_only_when_pruned


@pytest.mark.parametrize("max_witnesses", [1, 5, 300])
def test_a_leak_only_a_dead_loop_could_reach_is_suppressed(max_witnesses):
    # every path through the loop frees p, and the one that skips it needs
    # 0 >= 2; the loop cannot end in a witness, so the search exhausts
    source = next(fx.source for fx in FIXTURES if fx.name == "df-in-loop")
    task, g, sat = _satisfied_task(source, "memory-leak")
    assert refine_diagnostic(task, g, max_witnesses, sat=sat) == (SUPPRESSED, None)

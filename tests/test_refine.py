from __future__ import annotations

import copy
import time
from fractions import Fraction as Fr

import pytest

from ctl_lint import engine, refine
from ctl_lint import frontend as F
from ctl_lint.cfg import COND, FALSE, TRUE, build_cfg
from ctl_lint.ctl import (
    EF, EU, EX, And, Implies, Not, Or, Prop, TrueF, check, is_propositional, witness,
)
from ctl_lint.intervals import IntervalEnv, transfer
from ctl_lint.refine import (
    CONFIRMED, EQ, LE, LT, SUPPRESSED, UNCONFIRMED, UNKNOWN, Feasible, FeasibilityVerdict,
    Infeasible, PathConstraint, _constraint, enumerate_witnesses, feasible, path_constraints,
    refine_diagnostic,
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


def constraints(trace, cfg):
    return list(path_constraints(trace, cfg).values())


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
        cs = constraints(trace[:trace.index(ret1) + 1], g)
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
        # to the entry value; only the guard, at position 2, constrains it
        assert {i: str(c) for i, c in cs.items()} == {2: "x@1 < 0"}
        assert feasible(list(cs.values())) == Feasible

    def test_empty_trace(self):
        g, _ = cfg_of("int f() { return 0; }")
        assert path_constraints((), g) == {}

    def test_equality_guards_and_false_branch(self):
        src = "int f(int x) { if (x == 3) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs_true = constraints(follow(g, [TRUE]), g)
        assert [str(c) for c in cs_true] == ["x = 3"]
        cs_false = constraints(follow(g, [FALSE]), g)
        assert cs_false == []  # x != 3 is not convex; dropped

    def test_truth_value_false_branch_pins_zero(self):
        src = "int f(int x) { if (x) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs = constraints(follow(g, [FALSE]), g)
        assert [str(c) for c in cs] == ["x = 0"]

    def test_uninit_decl_is_unconstrained(self):
        src = "int f() { int x; if (x < 0) { return 1; } return 0; }"
        g, _ = cfg_of(src)
        cs = constraints(follow(g, [TRUE]), g)
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
            if feasible(constraints(trace, g)) == Feasible:
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


def _satisfied_task(src, check_id, var="p", idx=0):
    g, _ = cfg_of(src, idx)
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
        first = witness(task.kripke, task.formula, g.entry, sat)
        real = refine.feasible
        calls = []

        def first_unknown(cs, *args):
            calls.append(cs)
            return FeasibilityVerdict(UNKNOWN, "budget") if len(calls) == 1 else real(cs, *args)

        monkeypatch.setattr(refine, "feasible", first_unknown)
        assert refine_diagnostic(task, g, 5, sat=sat) == (UNCONFIRMED, first)
        assert len(calls) == 1

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


def _analyze_pin_sources(max_witnesses: int, programs: int = 50) -> None:
    """Analyze the first `programs` generated programs and the 48 bug
    fixtures."""
    sources = ([(f"gen{seed}.c", generate_program(seed)) for seed in range(programs)]
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
    """What refinement does at a witness budget of 300 on the bug fixtures
    and the first 200 generated programs (four times the pin sources, so
    that the constraints hold over 10,000 values): the (trace, cfg,
    constraints) of each `path_constraints` call, and each constraint list
    with the verdict `feasible` gave it."""
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
        _analyze_pin_sources(300, programs=200)
    return walks, verdicts


@pytest.fixture(scope="module")
def refinement_sets(refinement_runs):
    """Every constraint list `feasible` tests in `refinement_runs` (each
    round's, and each core candidate), with the verdict it gave."""
    return refinement_runs[1]


def test_each_constraint_comes_from_its_own_guard_edge(refinement_runs):
    # without the edges that leave conditions a trace gives no constraint,
    # and with them each constraint is keyed by the position of a guard
    # whose edge the trace takes, the one labelled edge to the next state
    walks, _ = refinement_runs
    blind = {}
    keyed = 0
    for trace, cfg, cs in walks:
        if id(cfg) not in blind:
            blind[id(cfg)] = copy.copy(cfg)
            blind[id(cfg)].succ = [[] if n.kind == COND else outs
                                   for n, outs in zip(cfg.nodes, cfg.succ)]
        assert path_constraints(trace, blind[id(cfg)]) == {}
        for i in cs:
            assert cfg.nodes[trace[i]].kind == COND and i + 1 < len(trace), (cfg.function, trace)
            assert len({lab for t, lab in cfg.succ[trace[i]] if t == trace[i + 1]}) == 1
        keyed += len(cs)
    assert keyed > len(walks)


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


@pytest.mark.parametrize("max_witnesses", [1, 3, 9])
def test_a_budget_covering_every_round_gives_the_full_verdict(pin_tasks, max_witnesses):
    # the rounds do not depend on the witness budget, so a budget that
    # covers every round a large one runs decides as the large one does
    covered = several = 0
    for task, cfg, sat in pin_tasks:
        traces, _ = enumerate_witnesses(task, cfg, 300, sat)
        if len(traces) > max_witnesses:
            continue
        covered += 1
        several += len(traces) > 1
        assert (refine_diagnostic(task, cfg, max_witnesses, sat)
                == refine_diagnostic(task, cfg, 300, sat)), \
            (cfg.function, task.check.id, task.bound_var)
    assert covered > several > 0 or max_witnesses == 1


def _holds(k, f, s) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, Prop):
        return s in k.props.get(f.name, ())
    if isinstance(f, Not):
        return not _holds(k, f.sub, s)
    if isinstance(f, Implies):
        return not _holds(k, f.left, s) or _holds(k, f.right, s)
    both = _holds(k, f.left, s), _holds(k, f.right, s)
    return all(both) if isinstance(f, And) else any(both)


def _witness_paths(k, f, s, room):
    """Every path of at most `room` states from `s` that demonstrates `f`,
    by depth-first search over `k` (a reference for the model checker)."""
    if room < 1:
        return
    if is_propositional(f):
        if _holds(k, f, s):
            yield (s,)
    elif isinstance(f, And):
        prop, rest = (f.left, f.right) if is_propositional(f.left) else (f.right, f.left)
        if _holds(k, prop, s):
            yield from _witness_paths(k, rest, s, room)
    elif isinstance(f, Or):
        yield from _witness_paths(k, f.left, s, room)
        yield from _witness_paths(k, f.right, s, room)
    elif isinstance(f, EX):
        for t in k.succ[s]:
            yield from ((s, *w) for w in _witness_paths(k, f.sub, t, room - 1))
    elif isinstance(f, EF):
        yield from _witness_paths(k, EU(TrueF(), f.sub), s, room)
    else:  # EU
        yield from _witness_paths(k, f.right, s, room)
        if _holds(k, f.left, s):
            for t in k.succ[s]:
                yield from ((s, *w) for w in _witness_paths(k, f, t, room - 1))


def test_every_short_witness_of_a_suppressed_finding_is_infeasible(pin_tasks):
    # the observers cut only paths that repeat an infeasible core, so every
    # path the search finds independently of them must be infeasible too
    suppressed = paths = 0
    for task, cfg, sat in pin_tasks:
        if refine_diagnostic(task, cfg, 300, sat)[0] != SUPPRESSED:
            continue
        suppressed += 1
        for w in _witness_paths(task.kripke, task.formula, cfg.entry, 60):
            paths += 1
            assert feasible(constraints(w, cfg)) == Infeasible, (cfg.function, task.check.id, w)
    assert suppressed >= 10 and paths > 500


def test_refine_stops_at_first_feasible_witness(monkeypatch):
    src = "int f(int *p, int c) { free(p); if (c) { free(p); } else { free(p); } return 0; }"
    task, g, sat = _satisfied_task(src, "double-free")
    first = witness(task.kripke, task.formula, g.entry, sat)
    assert feasible(constraints(first, g)) == Feasible
    rounds, fm_calls = [], []
    real_rounds, real_feasible = refine.enumerate_witnesses, refine.feasible

    def counting_rounds(*args, **kwargs):
        result = real_rounds(*args, **kwargs)
        rounds.append(len(result[0]))
        return result

    def counting_feasible(*args, **kwargs):
        fm_calls.append(1)
        return real_feasible(*args, **kwargs)

    monkeypatch.setattr(refine, "enumerate_witnesses", counting_rounds)
    monkeypatch.setattr(refine, "feasible", counting_feasible)
    assert refine_diagnostic(task, g, 5, sat=sat) == (CONFIRMED, first)
    assert rounds == [1]
    assert len(fm_calls) == 1


@pytest.mark.parametrize("max_witnesses", [1, 5, 300])
def test_a_leak_only_a_dead_loop_could_reach_is_suppressed(max_witnesses):
    # every path through the loop frees p, and the one that skips it needs
    # 0 >= 2; the observer of that core cuts every path that skips the loop
    # from `i = 0`, and a path through the loop writes i out of turn but
    # frees p, so the first round suppresses the leak
    source = next(fx.source for fx in FIXTURES if fx.name == "df-in-loop")
    task, g, sat = _satisfied_task(source, "memory-leak")
    assert refine_diagnostic(task, g, max_witnesses, sat=sat) == (SUPPRESSED, None)


def _double_free(body: str, prelude: str = "", idx: int = 0):
    """The double-free task on `p` of a function `f` that frees p and then
    runs `body`; `f` is function `idx` of the unit `prelude` starts."""
    return _satisfied_task(f"{prelude}int f(int *p, int *q, int x, int c, int k, int n) "
                           f"{{ free(p); {body} return 0; }}", "double-free", idx=idx)


class TestObserver:
    """An infeasible core cuts only the paths that get its constraints
    again.  Each case fails if the observer's rule is loosened."""

    @pytest.mark.parametrize("body, first_feasible", [
        ("if (x > 0) { x = x - 5; if (x < 0) { free(p); } }", True),
        ("if (x > 0) { if (c) { x = x - 5; } if (x < 0) { free(p); } }", False),
        ("int y = x; if (y > 0) { if (c) { x = x - 5; } y = x; if (y < 0) { free(p); } }",
         False),
    ], ids=["on-the-path", "on-a-branch", "read-through-a-copy"])
    def test_a_write_between_the_guards_stays_confirmed(self, body, first_feasible):
        # the shortest witness of the branch cases skips the write and is
        # infeasible; the write is a writer of the core's variables (of y,
        # and of x, which the trace's `y = x` reads), so it releases the path
        task, g, sat = _double_free(body)
        first = witness(task.kripke, task.formula, g.entry, sat)
        assert (feasible(constraints(first, g)) == Feasible) == first_feasible
        assert refine_diagnostic(task, g, 5, sat=sat)[0] == CONFIRMED

    @pytest.mark.parametrize("max_witnesses", [1, 5, 300])
    def test_a_loop_that_decrements_between_the_guards_is_never_suppressed(
            self, max_witnesses):
        task, g, sat = _double_free(
            "if (x > 0) { while (k < n) { x = x - 1; k = k + 1; } if (x < 0) { free(p); } }")
        assert refine_diagnostic(task, g, max_witnesses, sat=sat)[0] != SUPPRESSED

    @pytest.mark.parametrize("max_witnesses", [1, 5, 300])
    @pytest.mark.parametrize("write", ["h();", "*q = 1;"], ids=["call", "pointer-write"])
    def test_a_global_written_between_the_guards_is_never_suppressed(self, write,
                                                                     max_witnesses):
        # the guards read only gl, but a global is escaped, so every clobber
        # is a writer of it
        task, g, sat = _double_free(
            f"if (gl > 0) {{ if (c) {{ {write} }} if (gl < 0) {{ free(p); }} }}",
            prelude="int gl; void h() { gl = -1; }\n", idx=1)
        assert refine_diagnostic(task, g, max_witnesses, sat=sat)[0] != SUPPRESSED

    def test_a_loop_between_contradictory_guards_is_suppressed_in_one_round(self):
        # the loop writes only k, which the core does not read, so the one
        # core x > 0, x < 0 cuts every pass count at once
        task, g, sat = _double_free(
            "if (x > 0) { while (k < n) { k = k + 1; } if (x < 0) { free(p); } }")
        assert refine_diagnostic(task, g, 1, sat=sat) == (SUPPRESSED, None)
        traces, verdict = enumerate_witnesses(task, g, 300, sat)
        assert (len(traces), verdict) == (1, SUPPRESSED)


def test_the_state_budget_bounds_a_large_witness_budget():
    start = time.monotonic()
    _analyze_pin_sources(300)
    assert time.monotonic() - start < 5

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ctl_lint import frontend as F
from ctl_lint.cfg import FALSE, TRUE, build_cfg
from ctl_lint.diagnostics import (
    ANALYSIS_CHECKS, BUFFER_OVERRUN, CONFIRMED, DIV_BY_ZERO, UNCONFIRMED,
)
from ctl_lint.intervals import (
    BOTTOM, BOTTOM_ENV, INF, Interval, IntervalEnv, add, analyze, check_sites, const, div,
    env_leq, eval_expr, interval_checks, interval_leq, iteration_cap, join,
    meet, mod, mul, sub, transfer, widen,
)
from minic_interp import Interpreter, tdiv, tmod
from program_gen import generate_program

iv = Interval


def cfg_of(src: str, idx: int = 0):
    tu = F.parse(src, "a.c")
    assert F.check_well_formed(tu) == []
    return build_cfg(tu.functions[idx], tu.globals), tu


def expr_of(src: str):
    tu = F.parse(f"int f() {{ return {src}; }}", "a.c")
    return tu.functions[0].body.stmts[0].value


class TestIntervalValue:
    def test_equality_and_repr(self):
        assert iv(1, 2) == iv(1, 2) and hash(iv(1, 2)) == hash(iv(1, 2))
        assert iv(1, 2) != iv(1, 3) and BOTTOM != iv(-INF, INF)
        assert [repr(i) for i in (iv(1, 2), iv(-INF, 5), iv(-3, INF), BOTTOM)] == \
            ["[1, 2]", "[-oo, 5]", "[-3, +oo]", "<empty>"]


class TestArithmetic:
    def test_literal(self):
        assert eval_expr(expr_of("5"), IntervalEnv()) == const(5)

    def test_add_componentwise(self):
        assert add(iv(1, 3), iv(10, 10)) == iv(11, 13)

    def test_mul_corner_hull(self):
        assert mul(iv(-2, 3), iv(4, 5)) == iv(-10, 15)

    def test_sub(self):
        assert sub(iv(1, 3), iv(0, 2)) == iv(-1, 3)

    def test_div_truncates_toward_zero(self):
        assert div(iv(-7, -7), iv(2, 2)) == const(tdiv(-7, 2)) == const(-3)
        assert div(iv(1, 5), iv(2, 2)) == iv(0, 2)

    def test_div_by_interval_containing_zero_is_top(self):
        assert div(iv(1, 1), iv(-1, 1)).is_top()

    def test_div_with_unbounded_divisor(self):
        assert interval_leq(const(5 // 3), div(iv(5, 5), iv(2, INF)))
        assert div(iv(5, 5), iv(2, INF)) == iv(0, 2)

    def test_mod_sign_follows_dividend(self):
        assert mod(iv(-7, -7), iv(3, 3)) == const(tmod(-7, 3)) == const(-1)
        assert mod(iv(0, 10), iv(4, 4)) == iv(0, 3)
        assert mod(iv(-5, 5), iv(3, 3)) == iv(-2, 2)

    def test_comparison_intervals(self):
        assert eval_expr(expr_of("1 < 2"), IntervalEnv()) == const(1)
        assert eval_expr(expr_of("2 < 1"), IntervalEnv()) == const(0)
        env = IntervalEnv({"x": iv(0, 5)})
        tu = F.parse("int f(int x) { return x < 3; }", "a.c")
        assert eval_expr(tu.functions[0].body.stmts[0].value, env) == iv(0, 1)

    def test_unknown_calls_are_top(self):
        tu = F.parse("int g() { return 1; } int f() { return g(); }", "a.c")
        call = tu.functions[1].body.stmts[0].value
        assert eval_expr(call, IntervalEnv()).is_top()

    def test_lattice_ops(self):
        assert join(iv(0, 1), iv(5, 6)) == iv(0, 6)
        assert meet(iv(0, 5), iv(3, 9)) == iv(3, 5)
        assert meet(iv(0, 1), iv(5, 6)) == BOTTOM
        assert widen(iv(0, 3), iv(0, 4)) == iv(0, INF)
        assert widen(iv(0, 3), iv(-1, 3)) == iv(-INF, 3)
        assert join(BOTTOM, iv(1, 2)) == iv(1, 2)


class TestTransfer:
    def _node(self, src, pick):
        g, _ = cfg_of(src)
        return g, next(n for n in g.nodes if pick(n))

    def test_assignment_updates_target(self):
        g, node = self._node("int f(int x) { x = 5; }",
                             lambda n: isinstance(n.stmt, F.Assign))
        out = transfer(node, IntervalEnv(), g.table)
        assert out.get("x") == const(5)

    def test_true_branch_guard_refines(self):
        g, node = self._node("int f(int x) { if (x < 10) { x = 1; } }",
                             lambda n: n.kind == "cond")
        out = transfer(node, IntervalEnv(), g.table, TRUE)
        assert out.get("x") == iv(-INF, 9)

    def test_contradictory_guard_gives_bottom(self):
        g, node = self._node("int f(int x) { if (x < 10) { x = 1; } }",
                             lambda n: n.kind == "cond")
        out = transfer(node, IntervalEnv({"x": iv(20, 30)}), g.table, TRUE)
        assert out.is_bottom

    def test_false_branch_negates(self):
        g, node = self._node("int f(int x) { if (x < 10) { x = 1; } }",
                             lambda n: n.kind == "cond")
        out = transfer(node, IntervalEnv(), g.table, FALSE)
        assert out.get("x") == iv(10, INF)

    def test_bottom_propagates(self):
        g, node = self._node("int f(int x) { x = 5; }",
                             lambda n: isinstance(n.stmt, F.Assign))
        assert transfer(node, BOTTOM_ENV, g.table).is_bottom

    @pytest.mark.parametrize("call", [
        "h();", "if (h()) { y = 1; }", "int x = h();", "y = h();", "return h();",
    ], ids=["statement", "condition", "declaration", "assignment", "return"])
    def test_call_havocs_globals(self, call):
        src = ("int g;\nint h() { g = 1; return 0; }\n"
               f"int f(int y) {{ g = 5; {call} return g; }}")
        tu = F.parse(src, "a.c")
        cfg = build_cfg(tu.functions[1], tu.globals)
        call_node, = (n for n in cfg.nodes if n.id in cfg.table.user_calls)
        for branch in (TRUE, FALSE) if call_node.kind == "cond" else (None,):
            out = transfer(call_node, IntervalEnv({"g": const(5)}), cfg.table, branch)
            assert out.get("g").is_top()


@st.composite
def env_pairs(draw):
    names = ["x", "y", "z"]
    big: dict[str, Interval] = {}
    small: dict[str, Interval] = {}
    for name in names:
        if draw(st.booleans()):
            lo = draw(st.one_of(st.just(-INF), st.integers(-20, 20)))
            hi = draw(st.one_of(st.just(INF), st.integers(-20, 20)))
            if lo > hi:
                lo, hi = hi, lo
            big[name] = Interval(lo, hi)
    e2 = IntervalEnv(dict(big))
    for name, val in big.items():
        lo = draw(st.one_of(st.just(-INF), st.integers(-20, 20)))
        hi = draw(st.one_of(st.just(INF), st.integers(-20, 20)))
        if lo > hi:
            lo, hi = hi, lo
        shrunk = meet(val, Interval(lo, hi)) if draw(st.booleans()) else val
        if shrunk.empty:
            return BOTTOM_ENV, e2
        small[name] = shrunk
    return IntervalEnv(small), e2


class TestMonotonicity:
    @given(env_pairs(), st.integers(0, 3), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_transfer_monotone(self, pair, node_pick, branch_true):
        small, big = pair
        assert env_leq(small, big)
        src = "int f(int x, int y, int z) { x = y + z; if (x < y) { z = x * y; } z = z / 2; }"
        g, _ = cfg_of(src)
        nodes = [n for n in g.nodes if n.kind in ("stmt", "cond")]
        node = nodes[node_pick % len(nodes)]
        branch = TRUE if branch_true else FALSE
        out_small = transfer(node, small, g.table, branch)
        out_big = transfer(node, big, g.table, branch)
        assert env_leq(out_small, out_big)


class TestAnalyze:
    def test_counted_loop_exact_exit_bound(self):
        g, _ = cfg_of("int f() { int i = 0; while (i < 10) { i = i + 1; } return i; }")
        r = analyze(g)
        ret = next(n.id for n in g.nodes if isinstance(n.stmt, F.Return))
        assert r.at(ret).get("i") == const(10)

    def test_straight_line_constants(self):
        g, _ = cfg_of("int f() { int x = 1; int y = x + 2; return y; }")
        r = analyze(g)
        exit_env = r.at(g.exit)
        assert exit_env.get("x") == const(1)
        assert exit_env.get("y") == const(3)

    def test_infinite_loop_exit_unreachable(self):
        g, _ = cfg_of("int f() { while (1) { } return 0; }")
        r = analyze(g)
        assert r.at(g.exit).is_bottom

    def test_for_loop_body_index_range(self):
        g, _ = cfg_of(
            "int f() { int a[10]; int i; for (i = 0; i < 10; i++) a[i] = 0; return 0; }")
        r = analyze(g)
        store = next(n.id for n in g.nodes
                     if isinstance(n.stmt, F.Assign) and isinstance(n.stmt.target, F.Index))
        assert r.at(store).get("i") == iv(0, 9)

    def test_narrowing_preserves_fixpoint_containment(self):
        for seed in range(40):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                g = build_cfg(f, tu.globals)
                r = analyze(g)
                for a, b, label in g.edges:
                    out = transfer(g.nodes[a], r.at(a), g.table, label)
                    assert env_leq(out, r.at(b)), (seed, f.name, a, b)

    def test_iteration_cap_never_hit_on_corpus(self):
        for seed in range(60):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                g = build_cfg(f, tu.globals)
                r = analyze(g)  # raises if the cap is exceeded
                assert r.iterations <= iteration_cap(
                    len(g.nodes), 64, len(g.loop_heads))


class TestChecks:
    def _diags(self, src):
        tu = F.parse(src, "a.c")
        assert F.check_well_formed(tu) == []
        g = build_cfg(tu.functions[0], tu.globals)
        return interval_checks(g, analyze(g))

    def test_definite_overrun_is_error(self):
        ds = self._diags("int f() { int a[10]; a[12] = 0; return 0; }")
        assert [(d.check_id, d.severity) for d in ds] == [("buffer-overrun", "error")]
        assert ds[0].confidence == "confirmed"

    @pytest.mark.parametrize("table", ["as shipped", "edited"])
    def test_severity_of_a_provable_site_comes_from_the_catalog(self, monkeypatch, table):
        # a confirmed finding has its check's severity in ANALYSIS_CHECKS,
        # whatever that is; a possible one is a warning
        if table == "edited":
            for check_id in (BUFFER_OVERRUN, DIV_BY_ZERO):
                monkeypatch.setitem(ANALYSIS_CHECKS, check_id, ("info", "edited"))
        seen = set()
        for seed in range(60):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                g = build_cfg(f, tu.globals)
                for d in interval_checks(g, analyze(g)):
                    want = (ANALYSIS_CHECKS[d.check_id][0] if d.confidence == CONFIRMED
                            else "warning")
                    assert d.severity == want, (seed, d)
                    seen.add((d.check_id, d.confidence))
        assert seen == {(c, v) for c in (BUFFER_OVERRUN, DIV_BY_ZERO)
                        for v in (CONFIRMED, UNCONFIRMED)}

    def test_counted_loop_store_clean(self):
        ds = self._diags(
            "int f() { int a[10]; int i; for (i = 0; i < 10; i++) a[i] = 0; return 0; }")
        assert ds == []

    def test_possible_overrun_is_warning(self):
        ds = self._diags(
            "int f() { int a[5]; int i; for (i = 0; i <= 5; i++) a[i] = 0; return 0; }")
        assert [(d.check_id, d.severity) for d in ds] == [("buffer-overrun", "warning")]
        assert ds[0].confidence == "unconfirmed"

    def test_division_by_zero_literal(self):
        ds = self._diags("int f(int x) { return x / 0; }")
        assert [(d.check_id, d.severity) for d in ds] == [("div-by-zero", "error")]

    def test_possible_division_by_zero(self):
        ds = self._diags(
            "int f(int c) { int d = 0; if (c) { d = 2; } return 8 / d; }")
        assert [(d.check_id, d.severity) for d in ds] == [("div-by-zero", "warning")]

    @pytest.mark.parametrize("stmt, checks", [
        ("a[i]++;", ["buffer-overrun"]),
        ("--a[i];", ["buffer-overrun"]),
        ("a[x / y]++;", ["buffer-overrun", "div-by-zero"]),
    ])
    def test_incdec_of_element_reports_each_site_once(self, stmt, checks):
        # `a[i]++` desugars to `a[i] = a[i] + 1` with one shared `a[i]`
        ds = self._diags(f"int f(int i, int x, int y) {{ int a[4]; {stmt} return 0; }}")
        assert sorted(d.check_id for d in ds) == checks

    def test_unreachable_node_produces_nothing(self):
        ds = self._diags("int f() { while (1) { } int a[2]; a[9] = 1; return 0; }")
        assert ds == []

    def test_guard_eliminates_overrun(self):
        ds = self._diags(
            "int f(int i) { int a[5]; if (i >= 0 && i < 5) { a[i] = 1; } return 0; }")
        assert ds == []

    @pytest.mark.parametrize("src", [
        "int g[4]; int f() { int x = 0; int *p = &x; g[1] = 5; return 10 / x; }",
        "int f() { int a[4]; int x = 0; int *p = &x; a[1] = 5; return 10 / x; }",
    ], ids=["global-array", "local-array"])
    def test_array_write_havocs_nothing(self, src):
        # a write into a declared array, global or local, cannot reach the
        # address-taken x, so the division is by a definite zero
        ds = self._diags(src)
        assert [(d.check_id, d.severity, d.confidence) for d in ds] == [
            ("div-by-zero", "error", "confirmed")]

    @pytest.mark.parametrize("first, second, is_array", [
        ("int *a = q;", "int a[4];", False),
        ("int a[4];", "int *a = q;", True),
    ])
    def test_first_declaration_governs(self, first, second, is_array):
        # a name declared twice takes the type of its first declaration in
        # the check sites and in the interval transfer alike
        g, _ = cfg_of(f"int f(int i) {{ int x = 1; int *q = &x; "
                       f"if (i) {{ {first} a[i] = 1; a[7] = 1; }} "
                       f"else {{ {second} a[i] = 1; a[7] = 1; }} return x; }}")
        assert isinstance(g.table.types["a"], F.ArrayInt) == is_array
        assert ("a" in g.table.arrays) == is_array
        sizes = [size for _, e, size in check_sites(g) if isinstance(e, F.Index)]
        assert sizes == ([4] * 4 if is_array else [])
        # an array write leaves the address-taken x alone; a pointer write may hit it
        r = analyze(g)
        stores = [n.id for n in g.nodes if isinstance(n.stmt, F.Assign)
                  and isinstance(n.stmt.target, F.Index)
                  and isinstance(n.stmt.target.index, F.IntLit)]
        assert len(stores) == 2
        for sid in stores:
            assert r.at(sid).get("x") == (const(1) if is_array else iv(-INF, INF))
        overruns = [d for d in interval_checks(g, r) if d.severity == "error"]
        assert len(overruns) == (2 if is_array else 0)


class TestInterpreterAgreement:
    def test_soundness_on_small_corpus(self):
        violations = []
        for seed in range(80):
            src = generate_program(seed)
            tu = F.parse(src, "g.c")
            cfgs = {f.name: build_cfg(f, tu.globals) for f in tu.functions}
            results = {name: analyze(g) for name, g in cfgs.items()}

            def observer(fn, node, snapshot):
                env = results[fn].at(node)
                if env.is_bottom:
                    violations.append((seed, fn, node, "unreachable-but-hit"))
                    return
                for var, val in snapshot.items():
                    if not env.get(var).contains(val):
                        violations.append((seed, fn, node, var, val, repr(env.get(var))))

            interp = Interpreter(tu, observer=observer)
            import random as _r
            rng = _r.Random(seed)
            for f in tu.functions:
                for _ in range(2):
                    interp.run(f.name, tuple(rng.randint(-6, 6) for _ in f.params))
        assert violations == []

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ctl_lint import frontend as F
from ctl_lint.cfg import (
    COND, ENTRY, EXIT, FALSE, TRUE, build_cfg, to_dot, to_kripke,
)
from minic_interp import node_of_fragment
from oracle_ctl import kripke, reverse
from program_gen import generate_program


def cfg_of(src: str, idx: int = 0):
    tu = F.parse(src, "a.c")
    assert F.check_well_formed(tu) == []
    return build_cfg(tu.functions[idx], tu.globals)


def test_three_statement_chain():
    g = cfg_of("int f(int a, int b, int c) { a; b; c; }")
    assert len(g.nodes) == 5
    assert len(g.edges) == 4
    chain = [g.entry]
    while g.succ[chain[-1]]:
        chain.append(g.succ[chain[-1]][0][0])
        if chain[-1] == g.exit:
            break
    assert chain[0] == g.entry and chain[-1] == g.exit and len(chain) == 5


def test_if_else_diamond():
    g = cfg_of("int f(int c, int a, int b) { if (c) a = 1; else b = 1; }")
    assert len(g.nodes) == 5
    cond = next(n for n in g.nodes if n.kind == COND)
    labels = sorted(lab for _, lab in g.succ[cond.id])
    assert labels == [FALSE, TRUE]
    for target, _ in g.succ[cond.id]:
        assert g.succ[target] == [(g.exit, "uncond")]


def test_while_back_edge():
    g = cfg_of("int f(int c, int a) { while (c) a = 1; }")
    cond = next(n for n in g.nodes if n.kind == COND)
    assert cond.id in g.loop_heads
    body = next(t for t, lab in g.succ[cond.id] if lab == TRUE)
    assert (body, cond.id, "uncond") in g.edges  # the back edge
    assert next(t for t, lab in g.succ[cond.id] if lab == FALSE) == g.exit


def test_every_return_edges_to_exit():
    g = cfg_of("int f(int c) { if (c) { return 1; } return 0; }")
    returns = [n.id for n in g.nodes if isinstance(n.stmt, F.Return)]
    assert len(returns) == 2
    for r in returns:
        assert g.succ[r] == [(g.exit, "uncond")]


def test_short_circuit_expansion():
    g = cfg_of("int f(int a, int b) { if (a && b) { return 1; } return 0; }")
    conds = [n for n in g.nodes if n.kind == COND]
    assert len(conds) == 2
    first = next(n for n in conds if isinstance(n.expr, F.Var) and n.expr.name == "a")
    second = next(n for n in conds if isinstance(n.expr, F.Var) and n.expr.name == "b")
    assert (second.id, TRUE) in [(t, lab) for t, lab in g.succ[first.id]]


def test_negation_swaps_branches():
    g = cfg_of("int f(int a) { if (!a) { return 1; } return 0; }")
    cond = next(n for n in g.nodes if n.kind == COND)
    assert isinstance(cond.expr, F.Var)  # the `!` vanished into edge routing
    true_target = next(t for t, lab in g.succ[cond.id] if lab == TRUE)
    node = g.nodes[true_target]
    assert isinstance(node.stmt, F.Return) and node.stmt.value.value == 0


def test_break_continue_edges():
    g = cfg_of("int f(int c) { while (c) { if (c > 1) break; continue; } return 0; }")
    brk = next(n.id for n in g.nodes if isinstance(n.stmt, F.Break))
    cont = next(n.id for n in g.nodes if isinstance(n.stmt, F.Continue))
    head = min(g.loop_heads)
    ret = next(n.id for n in g.nodes if isinstance(n.stmt, F.Return))
    assert g.succ[brk] == [(ret, "uncond")]
    assert g.succ[cont] == [(head, "uncond")]


def test_unreachable_nodes_kept_and_flagged():
    g = cfg_of("int f() { return 0; int x = 1; x = 2; }")
    dead_kinds = {type(g.nodes[i].stmt).__name__ for i in g.unreachable}
    assert "VarDecl" in dead_kinds and "Assign" in dead_kinds


def test_single_entry_single_exit():
    g = cfg_of("int f(int c) { for (;;) { if (c) break; } return 0; }")
    assert sum(1 for n in g.nodes if n.kind == ENTRY) == 1
    assert sum(1 for n in g.nodes if n.kind == EXIT) == 1
    assert g.pred[g.entry] == []


def _count_stmts_and_conds(node) -> tuple[int, int]:
    stmts, conds = 0, 0

    def leaves(e):
        if isinstance(e, F.Binary) and e.op in ("&&", "||"):
            return leaves(e.left) + leaves(e.right)
        if isinstance(e, F.Unary) and e.op == "!":
            return leaves(e.operand)
        return 1

    def walk(s):
        nonlocal stmts, conds
        if isinstance(s, F.Block):
            for c in s.stmts:
                walk(c)
            return
        stmts += 1
        if isinstance(s, F.If):
            conds += leaves(s.cond)
            walk(s.then)
            if s.orelse is not None:
                walk(s.orelse)
        elif isinstance(s, F.While):
            conds += leaves(s.cond)
            walk(s.body)
        elif isinstance(s, F.For):
            conds += leaves(s.cond) if s.cond is not None else 1
            for part in (s.init, s.step):
                if part is not None:
                    walk(part)
            walk(s.body)

    walk(node)
    return stmts, conds


@given(st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_node_count_linear_in_program_size(seed):
    tu = F.parse(generate_program(seed), "g.c")
    for f in tu.functions:
        g = build_cfg(f, tu.globals)
        stmts, conds = _count_stmts_and_conds(f.body)
        assert len(g.nodes) <= 2 * (stmts + conds) + 2
        fragments = node_of_fragment(g)
        for s in f.body.stmts:  # every leaf statement owns at least one node
            if not isinstance(s, (F.Block, F.If, F.While, F.For)):
                assert id(s) in fragments


class TestKripke:
    def test_exit_gains_self_loop(self):
        g = cfg_of("int f() { return 0; }")
        k = to_kripke(g)
        assert k.succ[g.exit] == [g.exit]

    def test_totality(self):
        for seed in range(20):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                k = to_kripke(build_cfg(f, tu.globals))
                assert all(len(k.succ[s]) >= 1 for s in range(k.n))

    def test_empty_labeling(self):
        g = cfg_of("int f() { return 0; }")
        k = to_kripke(g)
        assert k.props == {}

    def test_labeling_preserved(self):
        g = cfg_of("int f(int a) { a = 1; a = 2; a = 3; }")
        k = to_kripke(g, {"p": frozenset({1})})
        assert k.props == {"p": frozenset({1})}

    def test_structures_share_the_cfg_transitions(self):
        g = cfg_of("int f(int c) { while (c) { c = c - 1; } return c; }")
        a, b = to_kripke(g), to_kripke(g, {"p": frozenset({1})})
        assert a.succ is b.succ is g.kripke_succ
        assert a.pred is b.pred is g.kripke_pred
        for s in range(a.n):
            assert a.pred[s] == sorted(t for t in range(a.n) if s in a.succ[t])


class TestReverse:
    def _mk(self, succ, labels=None):
        return kripke(succ, labels or [()] * len(succ))

    def test_chain_reversal_adds_self_loop(self):
        k = self._mk([[1], [1]])  # s0 -> s1, s1 self-loop
        r = reverse(k)
        assert r.succ[0] == [0]  # s0 lost its successor, self-loop keeps totality
        assert 0 in r.succ[1] and 1 in r.succ[1]

    def test_self_loop_only_state_unchanged(self):
        k = self._mk([[0]])
        r = reverse(k)
        assert r.succ == [[0]]

    def test_two_cycle_is_symmetric(self):
        k = self._mk([[1], [0]])
        r = reverse(k)
        assert [set(x) for x in r.succ] == [set(x) for x in k.succ]

    def test_double_reverse_on_totalized_graph(self):
        k = self._mk([[1, 2], [2], [2]])
        rr = reverse(reverse(k))
        base_edges = {(a, b) for a in range(k.n) for b in k.succ[a]}
        rr_edges = {(a, b) for a in range(rr.n) for b in rr.succ[a]}
        assert base_edges <= rr_edges
        assert rr_edges - base_edges <= {(s, s) for s in range(k.n)}

    def test_labels_preserved(self):
        k = self._mk([[1], [0]], [{"p"}, set()])
        assert reverse(k).props == {"p": frozenset({0})}


def test_dot_export_mentions_every_node():
    g = cfg_of("int f(int c) { if (c) return 1; return 0; }")
    dot = to_dot(g)
    assert dot.startswith('digraph "f"')
    for n in g.nodes:
        assert f"n{n.id} [" in dot

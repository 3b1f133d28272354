from __future__ import annotations

import pytest

from ctl_lint import frontend as F
from ctl_lint.cfg import build_cfg
from ctl_lint.ctl import EF, EU, EX, And, CtlFormula, Not, Prop, check, props_of
from ctl_lint.speclang import (
    SpecError, candidate_variables, instantiate, label_index,
    load_checkset, parse_checks, parse_checkset,
)
from syntax_helpers import parse_check

DOUBLE_FREE = """
check double-free {
  severity: error
  forall $v: pointer
  label freed := free_of($v)
  label redef := assign_to($v)
  property: EF (freed & EX E[!redef U freed])
}
"""


def cfg_of(src: str, idx: int = 0):
    tu = F.parse(src, "a.c")
    assert F.check_well_formed(tu) == []
    return build_cfg(tu.functions[idx], tu.globals), tu


def tasks_of(spec, g):
    return instantiate(spec, g, label_index(g), candidate_variables(spec, g))


def node_matching(cfg, pred):
    return next(n for n in cfg.nodes if pred(n))


class TestParseCheck:
    def test_double_free_spec(self):
        spec = parse_check(DOUBLE_FREE)
        assert spec.id == "double-free"
        assert spec.severity == "error"
        assert spec.metavar == "$v"
        assert spec.var_class == "pointer"
        assert [name for name, _ in spec.labels] == ["freed", "redef"]
        want = EF(And(Prop("freed"), EX(EU(Not(Prop("redef")), Prop("freed")))))
        assert spec.prop == want

    def test_unknown_label_in_property(self):
        bad = DOUBLE_FREE.replace("E[!redef U freed]", "E[!frozen U freed]")
        with pytest.raises(SpecError) as exc:
            parse_check(bad)
        assert "unknown label 'frozen'" in str(exc.value)

    def test_empty_file(self):
        with pytest.raises(SpecError) as exc:
            parse_checks("   # nothing here\n")
        assert "expected 'check'" in str(exc.value)

    def test_unknown_pattern(self):
        bad = DOUBLE_FREE.replace("free_of", "freeing")
        with pytest.raises(SpecError) as exc:
            parse_check(bad)
        assert "unknown pattern" in str(exc.value)

    def test_unbound_metavariable(self):
        bad = DOUBLE_FREE.replace("free_of($v)", "free_of($w)")
        with pytest.raises(SpecError) as exc:
            parse_check(bad)
        assert "unbound metavariable" in str(exc.value)

    def test_duplicate_ids_rejected(self):
        # the later declaration is the error
        with pytest.raises(SpecError) as exc:
            parse_checkset([("a.chk", DOUBLE_FREE + DOUBLE_FREE)])
        assert str(exc.value) == "a.chk:10:1: duplicate check id 'double-free'"

    @pytest.mark.parametrize("op,prop", [
        ("AX", "EF (a & AX a)"), ("AF", "AF a"), ("AG", "!AG !a"), ("A", "E[a U A[a U a]]"),
    ])
    def test_universal_operators_rejected_at_their_token(self, op, prop):
        text = f"check t {{ severity: info forall $v: any label a := use($v) property: {prop} }}"
        with pytest.raises(SpecError) as exc:
            parse_checks(text, "c.chk")
        column = text.index(prop) + prop.index(op) + 1
        assert str(exc.value) == (
            f"c.chk:1:{column}: '{op}' is a universal operator, which has no single-path witness")

    def test_a_rejected_operator_stays_reserved(self):
        # EG is an error in a property, and no label may take its name
        text = "check t { severity: info forall $v: any label EG := use($v) property: EF EG }"
        with pytest.raises(SpecError) as exc:
            parse_checks(text, "c.chk")
        assert str(exc.value) == "c.chk:1:47: 'EG' is reserved"

    def test_a_refine_line_is_an_error(self):
        # every check is refined; --max-witnesses 0 is the one switch
        bad = DOUBLE_FREE.replace("\n}", "\n  refine: on\n}")
        with pytest.raises(SpecError) as exc:
            parse_checks(bad, "a.chk")
        assert str(exc.value) == "a.chk:8:3: expected '}', found 'refine'"

    def test_bad_severity(self):
        with pytest.raises(SpecError):
            parse_check(DOUBLE_FREE.replace("severity: error", "severity: fatal"))

    def test_property_precedence(self):
        spec = parse_check("""
check t { severity: info forall $v: any
  label a := use($v)
  label b := assign_to($v)
  property: !a & b -> EF a | b
}""")
        # `->` binds loosest, `&`/`|` tighter, `!`/EF tightest
        from ctl_lint.ctl import Implies, Or
        want = Implies(And(Not(Prop("a")), Prop("b")), Or(EF(Prop("a")), Prop("b")))
        assert spec.prop == want

    def test_the_language_writes_every_formula_class(self):
        # the model checker has no operator that a property cannot write
        spec = parse_check("""
check t { severity: info forall $v: any
  label a := use($v)
  label b := assign_to($v)
  property: EF (a & EX E[!b U (a | (b -> a))])
}""")

        def classes(f):
            subs = (getattr(f, name) for name in f._fields)
            return {type(f)}.union(*(classes(g) for g in subs if isinstance(g, CtlFormula)))

        assert classes(spec.prop) == set(CtlFormula.__subclasses__())

    def test_builtin_catalog_loads(self):
        checks, _ = load_checkset()
        assert [c.id for c in checks] == [
            "null-deref", "memory-leak", "use-after-free", "double-free",
            "uninit-read"]
        for c in checks:
            declared = {name for name, _ in c.labels}
            assert props_of(c.prop) <= declared


class TestMatchPattern:
    def test_malloc_assign(self):
        g, _ = cfg_of("int f() { int *p; p = malloc(4); return 0; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.Assign))
        assert ("malloc_assign", "p") in g.table.facts[node.id]
        assert ("malloc_assign", "q") not in g.table.facts[node.id]

    def test_malloc_assign_decl_form(self):
        g, _ = cfg_of("int f() { int *p = malloc(4); return 0; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.VarDecl))
        assert ("malloc_assign", "p") in g.table.facts[node.id]

    def test_null_assign(self):
        g, _ = cfg_of("int f() { int *p; int *q = NULL; p = 0; p = q; return 0; }")
        _, decl_q, zero, copy = [n for n in g.nodes if isinstance(n.stmt, (F.VarDecl, F.Assign))]
        assert ("null_assign", "q") in g.table.facts[decl_q.id]
        assert ("null_assign", "p") in g.table.facts[zero.id]
        assert ("null_assign", "p") not in g.table.facts[copy.id]
        assert ("assign_to", "p") in g.table.facts[copy.id]

    def test_free_of_name_mismatch(self):
        g, _ = cfg_of("int f(int *p, int *q) { free(p); return 0; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.ExprStmt))
        assert ("free_of", "p") in g.table.facts[node.id]
        assert ("free_of", "q") not in g.table.facts[node.id]

    def test_null_check_forms(self):
        g, _ = cfg_of("int f(int *p) { if (p != 0) { return 1; } if (p) { return 2; } return 0; }")
        conds = [n for n in g.nodes if n.kind == "cond"]
        for node in conds:
            assert ("null_check", "p") in g.table.facts[node.id]

    def test_deref_and_use(self):
        g, _ = cfg_of("int f(int *p) { int x = *p + p[2]; return x; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.VarDecl))
        assert ("deref", "p") in g.table.facts[node.id]
        assert ("use", "p") in g.table.facts[node.id]

    def test_assignment_target_is_not_a_use(self):
        g, _ = cfg_of("int f() { int x; x = 1; return x; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.Assign))
        assert ("use", "x") not in g.table.facts[node.id]
        assert ("assign_to", "x") in g.table.facts[node.id]

    def test_address_of_is_not_a_use(self):
        g, _ = cfg_of("int f() { int x = 1; int *p = &x; return 0; }")
        node = g.nodes[2]
        assert isinstance(node.stmt, F.VarDecl) and node.stmt.name == "p"
        assert ("use", "x") not in g.table.facts[node.id]

    def test_decl_uninit(self):
        g, _ = cfg_of("int f() { int x; int y = 1; int a[3]; return y; }")
        decls = {n.stmt.name: n for n in g.nodes if isinstance(n.stmt, F.VarDecl)}
        assert ("decl_uninit", "x") in g.table.facts[decls["x"].id]
        assert ("decl_uninit", "y") not in g.table.facts[decls["y"].id]
        assert ("decl_uninit", "a") not in g.table.facts[decls["a"].id]  # arrays excluded

    def test_entry_exit_and_call(self):
        g, _ = cfg_of("int cb() { return 0; } int f() { cb(); return 0; }", idx=1)
        assert ("at_entry", "") in g.table.facts[g.entry]
        assert ("at_exit", "") in g.table.facts[g.exit]
        call = node_matching(g, lambda n: isinstance(n.stmt, F.ExprStmt))
        assert ("call", "cb") in g.table.facts[call.id]
        assert ("call", "other") not in g.table.facts[call.id]

    def test_index_of(self):
        g, _ = cfg_of("int f(int *p) { p[3] = 1; return 0; }")
        node = node_matching(g, lambda n: isinstance(n.stmt, F.Assign))
        assert ("index_of", "p") in g.table.facts[node.id]


class TestInstantiate:
    def test_two_pointers_both_freed(self, builtin_checks):
        df = next(c for c in builtin_checks if c.id == "double-free")
        g, _ = cfg_of("int f(int *p, int *q) { free(p); free(q); return 0; }")
        tasks = tasks_of(df, g)
        assert [t.var for t in tasks] == ["p", "q"]

    def test_trigger_skip(self, builtin_checks):
        df = next(c for c in builtin_checks if c.id == "double-free")
        g, _ = cfg_of("int f(int *p, int *q) { free(p); return 0; }")
        tasks = tasks_of(df, g)
        assert [t.var for t in tasks] == ["p"]  # q never freed

    def test_no_pointers_no_tasks(self, builtin_checks):
        df = next(c for c in builtin_checks if c.id == "double-free")
        g, _ = cfg_of("int f(int x) { return x; }")
        assert tasks_of(df, g) == []

    def test_single_free_site_labels_one_node(self, builtin_checks):
        df = next(c for c in builtin_checks if c.id == "double-free")
        g, _ = cfg_of("int f(int *p) { free(p); return 0; }")
        (task,) = tasks_of(df, g)
        (freed_node,) = task.kripke.props["freed"]
        assert isinstance(g.nodes[freed_node].stmt, F.ExprStmt)

    def test_determinism(self, builtin_checks):
        src = "int f(int *p, int *q) { free(p); free(q); free(p); return 0; }"
        df = next(c for c in builtin_checks if c.id == "double-free")
        g, _ = cfg_of(src)
        a = tasks_of(df, g)
        b = tasks_of(df, g)
        assert [(t.var, t.kripke.props) for t in a] == [(t.var, t.kripke.props) for t in b]

    def test_task_count_bound(self, builtin_checks):
        src = "int f(int *p, int *q, int x) { free(p); free(q); x = *p; return x; }"
        g, _ = cfg_of(src)
        for spec in builtin_checks:
            tasks = tasks_of(spec, g)
            assert len(tasks) <= len(candidate_variables(spec, g))

    def test_alphabet_closure(self, builtin_checks):
        src = "int f(int *p) { int *q = 0; free(p); *q = 1; free(p); return 0; }"
        g, _ = cfg_of(src)
        for spec in builtin_checks:
            for task in tasks_of(spec, g):
                declared = {name for name, _ in spec.labels}
                assert props_of(task.check.prop) <= declared
                assert task.kripke.props.keys() <= declared

    def test_prop_states_are_the_indexed_nodes(self, builtin_checks):
        from program_gen import generate_program
        from ctl_lint.speclang import _fact
        checked = 0
        for seed in range(30):
            tu = F.parse(generate_program(seed), "g.c")
            for f in tu.functions:
                g = build_cfg(f, tu.globals)
                index = label_index(g)
                for spec in builtin_checks:
                    for task in tasks_of(spec, g):
                        sat = check(task.kripke, task.check.prop)
                        for name, pattern in spec.labels:
                            want = frozenset(index.get(_fact(pattern, task.var), ()))
                            assert sat.states(Prop(name)) == want
                            checked += 1
        assert checked > 500

    def test_array_class_binding(self):
        spec = parse_check("""
check idx { severity: info forall $a: array
  label touch := index_of($a, _)
  property: EF touch
}""")
        g, _ = cfg_of("int f() { int a[4]; int b[2]; a[1] = 0; return 0; }")
        tasks = tasks_of(spec, g)
        assert [t.var for t in tasks] == ["a"]

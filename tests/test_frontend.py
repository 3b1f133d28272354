from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from ctl_lint import frontend as F
from ctl_lint import source
from ctl_lint import speclang as S
from fixtures_bugs import FIXTURES
from program_gen import generate_program
from syntax_helpers import pretty, structurally_equal


def parse(src: str):
    return F.parse(src, "a.c")


class TestParse:
    def test_minimal_program(self):
        tu = parse("int main() { return 0; }")
        assert [f.name for f in tu.functions] == ["main"]
        body = tu.functions[0].body.stmts
        assert len(body) == 1
        assert isinstance(body[0], F.Return)
        assert isinstance(body[0].value, F.IntLit) and body[0].value.value == 0

    def test_decl_with_binary_init(self):
        tu = parse("int f() { int x = 1 + 2; return x; }")
        decl = tu.functions[0].body.stmts[0]
        assert isinstance(decl, F.VarDecl)
        assert isinstance(decl.init, F.Binary) and decl.init.op == "+"
        assert decl.init.left.value == 1 and decl.init.right.value == 2

    def test_malformed_input_has_location(self):
        with pytest.raises(F.ParseError) as exc:
            parse("int f( {")
        assert exc.value.loc.line == 1
        assert "expected" in exc.value.message

    def test_null_is_zero_literal(self):
        tu = parse("int f() { int *p = NULL; return 0; }")
        decl = tu.functions[0].body.stmts[0]
        assert isinstance(decl.init, F.IntLit) and decl.init.value == 0

    def test_incdec_sugar(self):
        tu = parse("int f() { int i = 0; i++; --i; for (i = 0; i < 3; i++) { } return i; }")
        stmts = tu.functions[0].body.stmts
        assert isinstance(stmts[1], F.Assign) and stmts[1].value.op == "+"
        assert isinstance(stmts[2], F.Assign) and stmts[2].value.op == "-"
        assert isinstance(stmts[3].step, F.Assign)

    def test_every_node_has_location(self):
        tu = parse("int f(int a) { if (a > 1) { a = a * 2; } return a; }")

        def walk(node):
            assert node.loc.line >= 1 and node.loc.column >= 1
            for child in (getattr(node, name) for name in _fields(node)):
                if isinstance(child, (F.Stmt, F.Expr)):
                    walk(child)
                elif isinstance(child, list):
                    for c in child:
                        if isinstance(c, (F.Stmt, F.Expr)):
                            walk(c)

        for fdef in tu.functions:
            walk(fdef.body)

    def test_statement_locations_nondecreasing(self):
        tu = parse("int f() {\n  int a = 1;\n  int b = 2;\n  a = b;\n  return a;\n}")
        locs = [(s.loc.line, s.loc.column) for s in tu.functions[0].body.stmts]
        assert locs == sorted(locs)

    def test_function_source_slice(self):
        src = "int one() { return 1; }\n\nint two() { return 2; }\n"
        tu = parse(src)
        assert tu.functions[0].source_text == "int one() { return 1; }"
        assert tu.functions[1].source_text == "int two() { return 2; }"

    @pytest.mark.parametrize("src,needle", [
        ("struct s { int x; };", "struct"),
        ("int f() { goto end; }", "goto"),
        ("int f() { switch (1) { } }", "switch"),
        ("#include <stdio.h>", "preprocessor"),
        ("int f() { char c; }", "char"),
        ("int f() { float x; }", "float"),
        ('int f() { return "hi"; }', "literal"),
        ("int f() { malloc(1, 2); }", "exactly 1"),
        ("int f() { free(); }", "exactly 1"),
        ("int f() { break; }", "break"),
        ("int f() { continue; }", "continue"),
        ("int f() { 3 = x; }", "left of assignment"),
        ("int f() { } int f() { }", "duplicate function"),
        ("int f(int a, int a) { }", "duplicate parameter"),
        ("int a[0];", "size must be"),
        ("int f() { /* open", "unterminated"),
    ])
    def test_subset_violations(self, src, needle):
        with pytest.raises(F.ParseError) as exc:
            parse(src)
        assert needle in exc.value.message


class TestTypes:
    """MiniC types are values of their kind and size; their reprs feed the
    AST digest below."""

    def test_kinds_differ(self):
        assert F.Int() != F.Void() and F.PtrInt() != F.Int()
        assert F.Int() == F.INT and hash(F.Int()) == hash(F.INT)

    def test_arrays(self):
        assert F.ArrayInt(3) == F.ArrayInt(3) and hash(F.ArrayInt(3)) == hash(F.ArrayInt(3))
        assert F.ArrayInt(3) != F.ArrayInt(4)
        assert (repr(F.ArrayInt(3)), repr(F.INT), str(F.ArrayInt(3))) == \
            ("ArrayInt(size=3)", "Int()", "int [3]")


# the FunctionDef fields the digest covers; `calls` is pinned in test_engine
_FUNCTION_FIELDS = ("name", "params", "return_type", "body", "loc", "end_loc", "source_text")
# the TranslationUnit fields it covers; `scope_problems` is pinned in TestWellFormed
_UNIT_FIELDS = ("file", "functions", "globals")


def _fields(node) -> list[str]:
    """A node's fields in declared order: its classes' `__slots__`, base
    class first, so an Expr's or a Stmt's `loc` comes first."""
    return [name for cls in reversed(type(node).__mro__)
            for name in cls.__dict__.get("__slots__", ())]


def _dump(node):
    """Every node's type, fields and location, locations typed as such."""
    if isinstance(node, list):
        return [_dump(x) for x in node]
    if isinstance(node, F.SourceLocation):
        return (type(node).__name__, *node)
    if isinstance(node, (F.Expr, F.Stmt, F.Param, F.FunctionDef, F.TranslationUnit)):
        names = _fields(node)
        if isinstance(node, F.FunctionDef):
            names = [n for n in names if n in _FUNCTION_FIELDS]
        elif isinstance(node, F.TranslationUnit):
            names = [n for n in names if n in _UNIT_FIELDS]
        return (type(node).__name__, *((n, _dump(getattr(node, n))) for n in names))
    return node  # str, int, MiniCType or None


class TestParserPin:
    """The parser, pinned node for node: `structurally_equal` ignores
    locations, so this digest is what holds every `loc` in place."""

    def test_ast_digest(self):
        sources = [generate_program(seed) for seed in range(200)]
        sources += [fixture.source for fixture in FIXTURES]
        rows = [repr(_dump(F.parse(src, "a.c"))) for src in sources]
        digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
        assert digest == "0b3953cf866401f9b4d15a59809bf73b87ebf82291b329376c78ac260fd2b28c"

    @pytest.mark.parametrize("src,error", [
        ("int", "a.c:1:4: expected a name, found end of input"),
        ("int *", "a.c:1:6: expected a name, found end of input"),
        ("int f(", "a.c:1:7: expected 'int' in parameter, found end of input"),
        ("int f(void", "a.c:1:7: expected 'int' in parameter, found 'void'"),
        ("int f(int a", "a.c:1:12: expected ')', found end of input"),
        ("int f() {", "a.c:1:10: expected '}' before end of input"),
        ("int f() { return x", "a.c:1:19: expected ';', found end of input"),
        ("int f() { a[1 }", "a.c:1:15: expected ']', found '}'"),
        ("int f() { g(1,", "a.c:1:15: expected an expression, found end of input"),
        ("int f() { int a[", "a.c:1:17: expected array size"),
        ("int f() { for (;", "a.c:1:17: expected an expression, found end of input"),
        ("int f() { x++", "a.c:1:14: expected ';', found end of input"),
        ("int x =", "a.c:1:8: expected an expression, found end of input"),
    ])
    def test_rejections_at_end_of_input(self, src, error):
        with pytest.raises(F.ParseError) as exc:
            parse(src)
        assert str(exc.value) == error

    @pytest.mark.parametrize("template", ["int f() {{ return {}; }}", "int g[{}];"],
                             ids=["literal", "array-size"])
    def test_integer_literals_up_to_the_digit_limit(self, template):
        longest = "0" * (F.MAX_DIGITS - 1) + "7"
        assert "7" in repr(_dump(parse(template.format(longest))))
        with pytest.raises(F.ParseError) as exc:
            parse(template.format("0" + longest))
        column = template.format("@").index("@") + 1
        assert str(exc.value) == \
            f"a.c:1:{column}: integer literal longer than {F.MAX_DIGITS} digits"


class TestWellFormed:
    def test_clean_program(self):
        tu = parse("int g;\nint f(int a) { int b = a + g; return b; }")
        assert F.check_well_formed(tu) == []

    def test_undeclared_variable_location(self):
        # parse() returns the unit: a scope error is never raised there
        errs = F.check_well_formed(parse("int f() { return y; }"))
        assert len(errs) == 1
        assert errs[0].message == "undeclared 'y'"
        assert (errs[0].loc.line, errs[0].loc.column) == (1, 18)

    def test_duplicate_declaration_one_scope(self):
        errs = F.check_well_formed(parse("int f() { int x; int x; return 0; }"))
        assert [e.message for e in errs] == ["duplicate declaration of 'x'"]

    def test_shadowing_in_nested_scope_allowed(self):
        tu = parse("int f() { int x = 1; if (x) { int x = 2; } return x; }")
        assert F.check_well_formed(tu) == []

    def test_undeclared_function(self):
        errs = F.check_well_formed(parse("int f() { return wat(1); }"))
        assert [e.message for e in errs] == ["call to undeclared function 'wat'"]

    def test_malloc_free_are_known(self):
        tu = parse("int f() { int *p = malloc(4); free(p); return 0; }")
        assert F.check_well_formed(tu) == []

    def test_use_before_declaration(self):
        errs = F.check_well_formed(parse("int f() { x = 1; int x; return x; }"))
        assert errs and errs[0].message == "undeclared 'x'"

    @pytest.mark.parametrize("src,errors", [
        # each branch of an if, and a while body, is a scope of its own
        ("int f(int c){ if (c) int x; int x; return 0; }", []),
        # a global's initializer sees the globals before it and itself
        ("int g = g;", []),
        ("int a = b; int b;", ["a.c:1:9: undeclared 'b'"]),
        # a function sees every global and every function of the unit
        ("int f(){return h;} int h;", []),
        ("int f(){ return y + k(); } int q = z; int k(){ return 0; }",
         ["a.c:1:36: undeclared 'z'", "a.c:1:17: undeclared 'y'"]),
        # parameters share a scope with the top level of the body
        ("int f(int a){ int a; return 0; }", ["a.c:1:15: duplicate declaration of 'a'"]),
        ("int f(){ for (int i = 0; i < 2; i++) { int i; } return i; }",
         ["a.c:1:56: undeclared 'i'"]),
        # a local's initializer does not see the local being declared
        ("int f(){ int x = x; return 0; }", ["a.c:1:18: undeclared 'x'"]),
        ("int g; int g;", ["a.c:1:8: duplicate declaration of 'g'"]),
        # the target of ++ and -- is one name use, reported once
        ("int f(){ y++; return 0; }", ["a.c:1:10: undeclared 'y'"]),
        ("int f(){ int a[2]; --a[i]; return 0; }", ["a.c:1:24: undeclared 'i'"]),
    ])
    def test_scope_rules(self, src, errors):
        assert [str(e) for e in F.check_well_formed(parse(src))] == errors


class TestRoundTrip:
    @pytest.mark.parametrize("src", [
        "int f() { return 0; }",
        "int f(int a, int *p) { if (a && *p || !a) { return 1; } return 0; }",
        "int f() { int a[7]; int i; for (i = 0; i < 7; i = i + 1) a[i] = i * 2; return a[3]; }",
        "int g;\nint f() { while (g < 10) { g = g + 1; if (g == 5) break; } return g; }",
        "int f(int x) { return -(-x) + (x - 1) * (x + 1) / 2 % 3; }",
        "int f(int *p) { *p = 1; int *q = &*p; return p[2] + *q; }",
    ])
    def test_fixed_programs(self, src):
        tu = parse(src)
        printed = pretty(tu)
        tu2 = F.parse(printed, "a.c")
        assert structurally_equal(tu, tu2), printed

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_generated_programs(self, seed):
        src = generate_program(seed)
        tu = F.parse(src, "g.c")
        printed = pretty(tu)
        tu2 = F.parse(printed, "g.c")
        assert structurally_equal(tu, tu2)


class TestScanner:
    def test_both_languages_share_one_token_type(self):
        minic = F._lex("int x;", "a.c")
        chk = S._lex_chk("check x", "c.chk")
        assert {type(t) for t in minic + chk} == {F.Token}
        assert [t.kind for t in minic] == ["keyword", "ident", "punct", "eof"]
        assert [t.kind for t in chk] == ["ident", "ident", "eof"]
        assert chk[1] == ("ident", "x", F.SourceLocation("c.chk", 1, 7), 6)

    def test_scanning_stops_at_the_first_error(self):
        tokens = F.tokenize(F._MINIC_TOKENS, "a /* b /* c /* d", "a.c")
        assert [(t.kind, t.text) for t in tokens] == [("ident", "a"), ("error", "/*")]

    @pytest.mark.parametrize("parse_one,text,error", [
        (F.parse, "int f() { return x // c", "a:1:24: expected ';', found end of input"),
        (S.parse_checks, "check x # c", "a:1:12: expected '{', found end of file"),
    ])
    def test_end_of_input_after_a_trailing_line_comment(self, parse_one, text, error):
        # end of input is where the text ends, after the comment
        with pytest.raises(source.LocatedError) as exc:
            parse_one(text, "a")
        assert str(exc.value) == error


class TestTotality:
    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_parse_never_crashes_on_text(self, text):
        try:
            F.parse(text, "fuzz.c")
        except F.ParseError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_parse_never_crashes_on_bytes(self, data):
        try:
            source.parse_bytes(data, "fuzz.c")
        except F.ParseError:
            pass

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_parse_checks_never_crashes_on_text(self, text):
        try:
            S.parse_checks(text, "fuzz.chk")
        except S.SpecError:
            pass

"""The scanners of both input languages, pinned token for token.

The digests cover every token of the generated test programs and the bug
fixtures: kind, text, line, column and offset.  The rejection tables hold
each lexical error with its exact message and location.
"""

from __future__ import annotations

import hashlib

import pytest

from ctl_lint import frontend as F
from ctl_lint import speclang as S
from fixtures_bugs import FIXTURES
from program_gen import generate_program
from syntax_helpers import parse_check


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(map(repr, rows)).encode("utf-8")).hexdigest()


# comments, every whitespace character and every punctuator
_EDGES = (
    "// lead\r\nint g = 1;\t/* one */ int *h;\f\v\n"
    "int f(int a[3], int *p) {\r\n  /* two\n  lines */ int x = -a[0] % 2;\n"
    "  if (!(x <= 1) && x >= 0 || x != 2 == 1) { x++; --x; }\n"
    "  while (x < 3 & x > 1 | x) { x = x * 2 / 1 + &x - *p; break; } // tail\n"
    "  for (;;) { continue; } free(p); return NULL; }\n"
)


def test_minic_token_stream_digest():
    sources = [generate_program(seed) for seed in range(200)]
    sources += [fixture.source for fixture in FIXTURES]
    sources.append(_EDGES)
    rows = [(t.kind, t.text, t.loc.line, t.loc.column, t.offset)
            for src in sources for t in F._lex(src, "a.c")]
    assert len(rows) == 37_741
    assert _digest(rows) == "bc4a0d32794d3db9fae8a7535c4fd15658a8c9f16370b47ebb40fcb5efdcd90b"


def test_chk_token_stream_digest():
    _, text = S.load_checkset()  # the builtin checks alone
    rows = [(t[0], t[1], t[2].line, t[2].column) for t in S._lex_chk(text, "builtin.chk")]
    assert len(rows) == 244
    assert _digest(rows) == "513d1d5136d77fc1a4a3c118526da54b7ddac4d15f6483a338e8ea6d7fa7c2bd"


@pytest.mark.parametrize("src,error", [
    ("int f() { return 12ab; }", "a.c:1:18: malformed number '12a'"),
    ("int f() { return x @ 1; }", "a.c:1:20: unexpected character '@'"),
    ("int f() { return 1²; }", "a.c:1:19: unexpected character '²'"),
    ("int x; \r\n int y @", "a.c:2:8: unexpected character '@'"),
    ("int f() {\n  /* open\n x", "a.c:2:3: unterminated block comment"),
    ("int f() {}\n/* a */ /* b", "a.c:2:9: unterminated block comment"),
    ("int f() {\n\tx += 'c'; }", "a.c:2:7: character and string literals are not supported"),
    ('int f() {\n\tx = "s"; }', "a.c:2:6: character and string literals are not supported"),
    ("/* a\n */ #include", "a.c:2:5: preprocessor directives are not supported"),
    ("int f() { struct s; }", "a.c:1:11: 'struct' is not supported in this C subset"),
    ("int f() { return 1 /", "a.c:1:21: expected an expression, found end of input"),
    ("int /* a\n */ x", "a.c:2:6: expected ';', found end of input"),
])
def test_minic_rejections(src, error):
    with pytest.raises(F.ParseError) as exc:
        F.parse(src, "a.c")
    assert str(exc.value) == error


def test_minic_form_feed_is_whitespace():
    tu = F.parse("int x;\fint y;\v", "a.c")
    assert [g.name for g in tu.globals] == ["x", "y"]


_CHECK_BODY = "{ severity: error forall $p: pointer label l := use($p) property: EF l }"


@pytest.mark.parametrize("text,error", [
    ("check ²x {", "c.chk:1:7: unexpected character '²'"),
    ("check 3x", "c.chk:1:7: unexpected character '3'"),
    ("check a->b", "c.chk:1:9: unexpected character '>'"),
    ("check x { forall $ :", "c.chk:1:18: expected a name after '$'"),
    ("check x {\f", "c.chk:1:10: unexpected character '\\x0c'"),
    ("check x { severity:\r\n @", "c.chk:2:2: unexpected character '@'"),
    ("check _x", "c.chk:1:7: expected a check id, found '_'"),
    ("# only a comment\n", "c.chk:2:1: expected 'check'"),
])
def test_chk_rejections(text, error):
    with pytest.raises(S.SpecError) as exc:
        S.parse_checks(text, "c.chk")
    assert str(exc.value) == error


@pytest.mark.parametrize("check_id", ["é-x", "x²", "a_1-b"])
def test_chk_unicode_check_ids(check_id):
    assert parse_check(f"check {check_id} {_CHECK_BODY}", "c.chk").id == check_id

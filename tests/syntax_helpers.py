"""Syntax helpers the tests share: one-check parsing, and a MiniC pretty
printer that round-trips through `parse` up to source locations."""

from __future__ import annotations

from ctl_lint import frontend as F
from ctl_lint.speclang import CheckSpec, SpecError, parse_checks


def parse_check(text: str, file: str = "<checks>") -> CheckSpec:
    """Parse a .chk source containing exactly one check."""
    checks = parse_checks(text, file)
    if len(checks) != 1:
        raise SpecError(checks[1].loc, "expected exactly one check")
    return checks[0]


def pretty(tu: F.TranslationUnit) -> str:
    """MiniC source for `tu`; parsing it gives a structurally equal unit."""
    parts: list[str] = []
    for g in tu.globals:
        parts.append(_pp_decl(g) + ";")
    if tu.globals:
        parts.append("")
    for f in tu.functions:
        ret = {F.INT: "int", F.PTR_INT: "int *", F.VOID: "void"}[f.return_type]
        params = ", ".join(_pp_param(p) for p in f.params)
        parts.append(f"{ret} {f.name}({params}) " + _pp_stmt(f.body, 0).lstrip())
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def _pp_param(p: F.Param) -> str:
    if isinstance(p.type, F.PtrInt):
        return f"int *{p.name}"
    if isinstance(p.type, F.ArrayInt):
        return f"int {p.name}[{p.type.size}]"
    return f"int {p.name}"


def _pp_decl(d: F.VarDecl) -> str:
    if isinstance(d.type, F.ArrayInt):
        return f"int {d.name}[{d.type.size}]"
    head = f"int *{d.name}" if isinstance(d.type, F.PtrInt) else f"int {d.name}"
    if d.init is not None:
        return f"{head} = {_pp_expr(d.init, 0)}"
    return head


def _pp_stmt(s: F.Stmt, indent: int) -> str:
    pad = "  " * indent
    if isinstance(s, F.Block):
        inner = "".join(_pp_stmt(c, indent + 1) for c in s.stmts)
        return f"{pad}{{\n{inner}{pad}}}\n"
    if isinstance(s, F.VarDecl):
        return f"{pad}{_pp_decl(s)};\n"
    if isinstance(s, F.Assign):
        return f"{pad}{_pp_expr(s.target, 0)} = {_pp_expr(s.value, 0)};\n"
    if isinstance(s, F.If):
        out = f"{pad}if ({_pp_expr(s.cond, 0)})\n{_pp_stmt(s.then, indent + 1)}"
        if s.orelse is not None:
            out += f"{pad}else\n{_pp_stmt(s.orelse, indent + 1)}"
        return out
    if isinstance(s, F.While):
        return f"{pad}while ({_pp_expr(s.cond, 0)})\n{_pp_stmt(s.body, indent + 1)}"
    if isinstance(s, F.For):
        init = _pp_for_part(s.init)
        cond = _pp_expr(s.cond, 0) if s.cond is not None else ""
        step = _pp_for_part(s.step)
        return f"{pad}for ({init}; {cond}; {step})\n{_pp_stmt(s.body, indent + 1)}"
    if isinstance(s, F.Return):
        if s.value is None:
            return f"{pad}return;\n"
        return f"{pad}return {_pp_expr(s.value, 0)};\n"
    if isinstance(s, F.ExprStmt):
        return f"{pad}{_pp_expr(s.expr, 0)};\n"
    if isinstance(s, F.Break):
        return f"{pad}break;\n"
    if isinstance(s, F.Continue):
        return f"{pad}continue;\n"
    raise AssertionError(f"unhandled statement {s!r}")


def _pp_for_part(s: F.Stmt | None) -> str:
    if s is None:
        return ""
    if isinstance(s, F.VarDecl):
        return _pp_decl(s)
    if isinstance(s, F.Assign):
        return f"{_pp_expr(s.target, 0)} = {_pp_expr(s.value, 0)}"
    if isinstance(s, F.ExprStmt):
        return _pp_expr(s.expr, 0)
    raise AssertionError(f"unhandled for-part {s!r}")


_UNARY_PREC = 7


def _pp_expr(e: F.Expr, parent_prec: int) -> str:
    if isinstance(e, F.IntLit):
        return str(e.value)
    if isinstance(e, F.Var):
        return e.name
    if isinstance(e, F.Unary):
        inner = _pp_expr(e.operand, _UNARY_PREC)
        # parenthesize nested unaries: "--x"/"&&x" would re-lex as one token
        if isinstance(e.operand, F.Unary):
            inner = f"({inner})"
        out = f"{e.op}{inner}"
        return f"({out})" if parent_prec > _UNARY_PREC else out
    if isinstance(e, F.Binary):
        prec = F._BINARY_PREC[e.op]
        left = _pp_expr(e.left, prec)
        right = _pp_expr(e.right, prec + 1)
        out = f"{left} {e.op} {right}"
        return f"({out})" if parent_prec > prec else out
    if isinstance(e, F.Index):
        return f"{_pp_expr(e.base, _UNARY_PREC + 1)}[{_pp_expr(e.index, 0)}]"
    if isinstance(e, F.Call):
        args = ", ".join(_pp_expr(a, 0) for a in e.args)
        return f"{e.name}({args})"
    raise AssertionError(f"unhandled expression {e!r}")


def structurally_equal(a, b) -> bool:
    """AST equality ignoring source locations."""
    return _sig(a) == _sig(b)


def _sig(node):
    """A location-free tuple of `node`'s structure."""
    if isinstance(node, F.TranslationUnit):
        return ("unit", tuple(_sig(g) for g in node.globals),
                tuple(_sig(f) for f in node.functions))
    if isinstance(node, F.FunctionDef):
        return ("func", node.name, tuple((p.name, p.type) for p in node.params),
                node.return_type, _sig(node.body))
    if isinstance(node, F.Block):
        return ("block", tuple(_sig(s) for s in node.stmts))
    if isinstance(node, F.VarDecl):
        return ("decl", node.name, node.type, _sig(node.init))
    if isinstance(node, F.Assign):
        return ("assign", _sig(node.target), _sig(node.value))
    if isinstance(node, F.If):
        return ("if", _sig(node.cond), _sig(node.then), _sig(node.orelse))
    if isinstance(node, F.While):
        return ("while", _sig(node.cond), _sig(node.body))
    if isinstance(node, F.For):
        return ("for", _sig(node.init), _sig(node.cond), _sig(node.step), _sig(node.body))
    if isinstance(node, F.Return):
        return ("return", _sig(node.value))
    if isinstance(node, F.ExprStmt):
        return ("exprstmt", _sig(node.expr))
    if isinstance(node, F.Break):
        return ("break",)
    if isinstance(node, F.Continue):
        return ("continue",)
    if isinstance(node, F.IntLit):
        return ("int", node.value)
    if isinstance(node, F.Var):
        return ("var", node.name)
    if isinstance(node, F.Unary):
        return ("unary", node.op, _sig(node.operand))
    if isinstance(node, F.Binary):
        return ("binary", node.op, _sig(node.left), _sig(node.right))
    if isinstance(node, F.Index):
        return ("index", _sig(node.base), _sig(node.index))
    if isinstance(node, F.Call):
        return ("call", node.name, tuple(_sig(a) for a in node.args))
    if node is None:
        return None
    raise AssertionError(f"unhandled node {node!r}")

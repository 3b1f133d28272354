"""Scanner, parser and well-formedness checks for the MiniC input language.

The parser resolves names against a scope stack as it reads a unit and
records each scope problem in the unit; `check_well_formed` then drops
those a declaration further down resolves.  A scope error is never
raised by `parse`, so a syntax error anywhere in the file wins.

The scanner, the token pattern and the source locations live in `source`,
which a cache hit loads without this module.

MiniC is the analyzable C subset: `int`/`int*`/`int[N]` variables, the
usual expression operators, `if`/`while`/`for`/`return`/`break`/`continue`,
and function calls.  `malloc` and `free` are ordinary calls with fixed
arity 1; `NULL` is sugar for the literal 0.  There is no preprocessor:
a `#` anywhere in the input is a parse error.

Everything outside the subset (structs, unions, goto, switch, strings,
floats, ...) is rejected with a located ParseError rather than silently
mis-parsed.  So is a syntax tree deeper than MAX_NESTING levels: later
passes walk statements and expressions recursively, and a deeper tree
would overflow the interpreter's stack.  Each statement, expression,
operator and subscript on one path down from a function body adds a
level, so the expression `a + b + c` is three levels deep: one for the
expression and one for each operator of its left-deep chain.  So is an
integer literal of more than MAX_DIGITS digits.  That is below 640, the
least limit an interpreter may put on int/str conversion, so neither
reading a literal nor printing an interval bound depends on the interpreter.
"""

from __future__ import annotations

from typing import NamedTuple

from .source import _MINIC_TOKENS, _UNSUPPORTED_KEYWORDS, ParseError, SourceLocation, Token
from .source import source_digest, tokenize


class SemanticError(NamedTuple):
    loc: SourceLocation
    message: str

    def __str__(self) -> str:
        return f"{self.loc}: {self.message}"


class Value:
    """An immutable value that compares, hashes and prints as its type and
    the fields `_fields` names, so values of two types are never equal.
    Each subclass lists its fields once: `__slots__ = _fields = (...)`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            setattr(self, name, value)

    def __reduce__(self):
        # rebuilt through __init__: a hash a subclass keeps differs between processes
        return type(self), self._key()[1:]

    def _key(self) -> tuple:
        return (type(self), *[getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Types

class MiniCType(Value):
    __slots__ = ()


class Int(MiniCType):
    __slots__ = ()

    def __str__(self) -> str:
        return "int"


class PtrInt(MiniCType):
    __slots__ = ()

    def __str__(self) -> str:
        return "int *"


class ArrayInt(MiniCType):
    __slots__ = _fields = ("size",)  # size >= 1

    def __str__(self) -> str:
        return f"int [{self.size}]"


class Void(MiniCType):
    __slots__ = ()

    def __str__(self) -> str:
        return "void"


INT = Int()
PTR_INT = PtrInt()
VOID = Void()


# ---------------------------------------------------------------------------
# AST
#
# Nodes use identity equality: analysis passes key tables by the node object
# itself.  A node's fields are its classes' `__slots__`, base class first;
# `loc` is set by `_at` once the node is built.

class Expr:
    __slots__ = ("loc",)


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: - ! * &

    def __init__(self, op: str, operand: Expr):
        self.op, self.operand = op, operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: + - * / % < <= > >= == != && ||

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op, self.left, self.right = op, left, right


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr):
        self.base, self.index = base, index


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        self.name, self.args = name, args


class Stmt:
    __slots__ = ("loc",)


class VarDecl(Stmt):
    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, type: MiniCType, init: Expr | None):
        self.name, self.type, self.init = name, type, init


class Assign(Stmt):
    __slots__ = ("target", "value")  # target: Var, Unary(*) or Index

    def __init__(self, target: Expr, value: Expr):
        self.target, self.value = target, value


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Stmt, orelse: Stmt | None):
        self.cond, self.then, self.orelse = cond, then, orelse


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt):
        self.cond, self.body = cond, body


class For(Stmt):
    # init: VarDecl, Assign or ExprStmt; step: Assign or ExprStmt
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init: Stmt | None, cond: Expr | None, step: Stmt | None, body: Stmt):
        self.init, self.cond, self.step, self.body = init, cond, step, body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Expr | None):
        self.value = value


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: list[Stmt]):
        self.stmts = stmts


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class Param:
    __slots__ = ("name", "type", "loc")

    def __init__(self, name: str, type: MiniCType, loc: SourceLocation):
        self.name, self.type, self.loc = name, type, loc


class FunctionDef:
    __slots__ = ("name", "params", "return_type", "body", "loc", "end_loc", "source_text",
                 "calls", "offset")

    def __init__(self, name: str, params: list[Param], return_type: MiniCType, body: Block,
                 loc: SourceLocation, end_loc: SourceLocation, source_text: str,
                 calls: set[str], offset: int):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.loc = loc
        self.end_loc = end_loc  # closing brace
        self.source_text = source_text  # exact source slice, used for content hashing
        self.calls = calls  # every name the body calls, builtins and unknown names too
        self.offset = offset  # where its `int`/`void` token starts in the unit's text


# A scope problem the parser saw: (loc, message, kind, name).  `kind` is
# "global" or "function" when a declaration further down the unit can still
# resolve `name`, and None when nothing can.
ScopeProblem = tuple[SourceLocation, str, str | None, str]


class TranslationUnit:
    __slots__ = ("file", "functions", "globals", "scope_problems", "digest")

    def __init__(self, file: str, functions: list[FunctionDef], globals: list[VarDecl],
                 scope_problems: list[ScopeProblem], digest: str):
        self.file = file
        self.functions = functions
        self.globals = globals
        self.scope_problems = scope_problems  # those of the globals first; see check_well_formed
        self.digest = digest  # `source_digest` of the text's UTF-8 bytes


def _at(node, loc: SourceLocation):
    node.loc = loc
    return node


# ---------------------------------------------------------------------------
# Scanner

_LEX_ERRORS = {
    "/*": "unterminated block comment",
    "#": "preprocessor directives are not supported",
    "'": "character and string literals are not supported",
    '"': "character and string literals are not supported",
}


def _lex(source: str, file: str) -> list[Token]:
    tokens = tokenize(_MINIC_TOKENS, source, file)
    kind, text, loc, _ = tokens[-1]
    if kind == "error":
        if text in _UNSUPPORTED_KEYWORDS:
            raise ParseError(loc, f"'{text}' is not supported in this C subset")
        if text in _LEX_ERRORS:
            raise ParseError(loc, _LEX_ERRORS[text])
        # a number run into a name, or one character that starts no token
        what = "malformed number" if len(text) > 1 else "unexpected character"
        raise ParseError(loc, f"{what} {text!r}")
    return tokens


# ---------------------------------------------------------------------------
# Parser

_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

_FIXED_ARITY_CALLS = {"malloc": 1, "free": 1}
BUILTIN_FUNCTIONS = frozenset(_FIXED_ARITY_CALLS)

MAX_NESTING = 100  # deepest syntax tree accepted; see the module docstring
MAX_DIGITS = 600  # longest integer literal accepted; see the module docstring
MAX_MAGNITUDE = 10 ** MAX_DIGITS  # every literal's magnitude is below it


def _number(tok: Token) -> int:
    if len(tok.text) > MAX_DIGITS:
        raise ParseError(tok.loc, f"integer literal longer than {MAX_DIGITS} digits")
    return int(tok.text)


class _Parser:
    def __init__(self, source: str, file: str):
        self.source = source
        self.tokens = _lex(source, file)
        self.pos = 0
        self.loop_depth = 0
        self.depth = 0  # syntax-tree levels open above the current token
        self.calls: set[str] = set()  # names called in the current top-level declaration
        self.scopes: list[set[str]] = [set()]  # the globals so far, then the open local scopes
        self.funcs = set(BUILTIN_FUNCTIONS)  # and the functions defined so far
        self.problems: list[ScopeProblem] = []  # where the current declaration's go

    # `next` never moves past the final `eof` token, so the current token
    # is always `self.tokens[self.pos]`.

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in ("punct", "keyword")

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str, what: str | None = None) -> Token:
        if not self.at(text):
            tok = self.peek()
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError(tok.loc, f"expected '{text}'{' ' + what if what else ''}, found {found}")
        return self.next()

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok.loc, f"nesting deeper than {MAX_NESTING} levels is not supported")

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError(tok.loc, f"expected {what}, found {found}")
        return self.next()

    # -- toplevel

    def parse_unit(self, file: str) -> TranslationUnit:
        functions: list[FunctionDef] = []
        globals_: list[VarDecl] = []
        global_problems: list[ScopeProblem] = []
        function_problems: list[ScopeProblem] = []
        while self.peek().kind != "eof":
            self.calls = set()
            tok = self.peek()
            if tok.text not in ("int", "void"):
                raise ParseError(tok.loc, f"expected 'int' or 'void' at top level, found {tok.text!r}")
            start_tok = self.next()
            is_ptr = self.accept("*") is not None
            if start_tok.text == "void" and is_ptr:
                raise ParseError(start_tok.loc, "'void *' is not supported in this C subset")
            name_tok = self.expect_ident("a name")
            if self.at("("):
                if name_tok.text in _FIXED_ARITY_CALLS:
                    raise ParseError(name_tok.loc, f"'{name_tok.text}' is a builtin and cannot be defined")
                if name_tok.text in self.funcs:
                    raise ParseError(name_tok.loc, f"duplicate function '{name_tok.text}'")
                self.funcs.add(name_tok.text)
                ret = PTR_INT if is_ptr else (VOID if start_tok.text == "void" else INT)
                self.problems = function_problems
                functions.append(self._function_rest(start_tok, name_tok, ret))
            else:
                if start_tok.text == "void":
                    raise ParseError(start_tok.loc, "'void' variables are not allowed")
                self.problems = global_problems
                self._declare(name_tok.text, start_tok.loc)  # its initializer sees it
                globals_.append(self._decl_rest(start_tok, is_ptr, name_tok))
                self.expect(";")
        return TranslationUnit(file, functions, globals_, global_problems + function_problems,
                               source_digest(self.source.encode("utf-8")))

    def _function_rest(self, start_tok: Token, name_tok: Token, ret: MiniCType) -> FunctionDef:
        self.expect("(")
        params: list[Param] = []
        seen: set[str] = set()
        # the current token is `void`, not `eof`, so a next token exists
        if self.at("void") and self.tokens[self.pos + 1].text == ")":
            self.next()
        elif not self.at(")"):
            while True:
                params.append(self._param())
                if params[-1].name in seen:
                    raise ParseError(params[-1].loc, f"duplicate parameter '{params[-1].name}'")
                seen.add(params[-1].name)
                if not self.accept(","):
                    break
        self.expect(")")
        body = self._block(seen)  # the parameters share the body's top-level scope
        end_tok = self.tokens[self.pos - 1]  # closing brace of the body
        src = self.source[start_tok.offset:end_tok.offset + 1]
        return FunctionDef(name_tok.text, params, ret, body, loc=start_tok.loc,
                           end_loc=end_tok.loc, source_text=src, calls=self.calls,
                           offset=start_tok.offset)

    def _param(self) -> Param:
        tok = self.expect("int", "in parameter")
        is_ptr = self.accept("*") is not None
        name_tok = self.expect_ident("a parameter name")
        return Param(name_tok.text, self._var_type(is_ptr), name_tok.loc)

    def _var_type(self, is_ptr: bool) -> MiniCType:
        """The type of a declared name: `int*`, `int`, or `int[N]` when an
        array size follows the name."""
        if is_ptr:
            return PTR_INT
        if not self.accept("["):
            return INT
        size_tok = self.peek()
        if size_tok.kind != "int":
            raise ParseError(size_tok.loc, "expected array size")
        self.next()
        self.expect("]")
        size = _number(size_tok)
        if size < 1:
            raise ParseError(size_tok.loc, "array size must be >= 1")
        return ArrayInt(size)

    def _decl_rest(self, start_tok: Token, is_ptr: bool, name_tok: Token) -> VarDecl:
        ty = self._var_type(is_ptr)
        init = None
        if self.accept("="):
            if isinstance(ty, ArrayInt):
                raise ParseError(name_tok.loc, "array initializers are not supported")
            init = self.expr()
        return _at(VarDecl(name_tok.text, ty, init), start_tok.loc)

    # -- scopes

    def _declare(self, name: str, loc: SourceLocation) -> None:
        scope = self.scopes[-1]
        if name in scope:
            self.problems.append((loc, f"duplicate declaration of '{name}'", None, name))
        scope.add(name)

    def _use(self, tok: Token) -> None:
        for scope in self.scopes:
            if tok.text in scope:
                return
        # in a function, a global declared further down can still resolve it
        kind = "global" if len(self.scopes) > 1 else None
        self.problems.append((tok.loc, f"undeclared '{tok.text}'", kind, tok.text))

    def _scoped_stmt(self) -> Stmt:
        """An if/else branch or a loop body: a scope of its own, even when
        it is not a block."""
        self.scopes.append(set())
        s = self.stmt()
        self.scopes.pop()
        return s

    # -- statements

    def _block(self, scope: set[str] | None = None) -> Block:
        """A block, in `scope` if given, else in a new scope."""
        open_tok = self.expect("{")
        self.scopes.append(set() if scope is None else scope)
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise ParseError(self.peek().loc, "expected '}' before end of input")
            stmts.append(self.stmt())
        self.expect("}")
        self.scopes.pop()
        return _at(Block(stmts), open_tok.loc)

    def stmt(self) -> Stmt:
        self.enter(self.peek())
        s = self._stmt()
        self.depth -= 1
        return s

    def _stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "{":
            return self._block()
        if tok.text == "int":
            decl = self._local_decl()
            self.expect(";")
            return decl
        if tok.text == "void":
            raise ParseError(tok.loc, "'void' variables are not allowed")
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self._scoped_stmt()
            orelse = self._scoped_stmt() if self.accept("else") else None
            return _at(If(cond, then, orelse), tok.loc)
        if tok.text == "while":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            self.loop_depth += 1
            body = self._scoped_stmt()
            self.loop_depth -= 1
            return _at(While(cond, body), tok.loc)
        if tok.text == "for":
            return self._for()
        if tok.text == "return":
            self.next()
            value = None if self.at(";") else self.expr()
            self.expect(";")
            return _at(Return(value), tok.loc)
        if tok.text == "break":
            self.next()
            if self.loop_depth == 0:
                raise ParseError(tok.loc, "'break' outside of a loop")
            self.expect(";")
            return _at(Break(), tok.loc)
        if tok.text == "continue":
            self.next()
            if self.loop_depth == 0:
                raise ParseError(tok.loc, "'continue' outside of a loop")
            self.expect(";")
            return _at(Continue(), tok.loc)
        simple = self._simple_stmt()
        self.expect(";")
        return simple

    def _local_decl(self) -> VarDecl:
        start_tok = self.expect("int")
        is_ptr = self.accept("*") is not None
        name_tok = self.expect_ident("a variable name")
        decl = self._decl_rest(start_tok, is_ptr, name_tok)
        self._declare(decl.name, decl.loc)  # its initializer does not see it
        return decl

    def _simple_stmt(self) -> Stmt:
        """Assignment, call/expression statement, or ++/-- sugar."""
        tok = self.peek()
        if tok.text in ("++", "--"):
            self.next()
            target = self.expr()
            return self._incdec(target, tok)
        e = self.expr()
        if self.at("="):
            self.next()
            self._check_lvalue(e)
            value = self.expr()
            return _at(Assign(e, value), e.loc)
        nxt = self.peek()
        if nxt.text in ("++", "--"):
            self.next()
            return self._incdec(e, nxt)
        return _at(ExprStmt(e), e.loc)

    def _incdec(self, target: Expr, op_tok: Token) -> Assign:
        # `x++` / `--x` desugar to `x = x + 1` / `x = x - 1`
        self._check_lvalue(target)
        op = "+" if op_tok.text == "++" else "-"
        one = _at(IntLit(1), op_tok.loc)
        rhs = _at(Binary(op, target, one), op_tok.loc)
        return _at(Assign(target, rhs), target.loc)

    def _check_lvalue(self, e: Expr) -> None:
        if isinstance(e, Var) or isinstance(e, Index):
            return
        if isinstance(e, Unary) and e.op == "*":
            return
        raise ParseError(e.loc, "expected a variable, '*ptr' or 'arr[i]' on the left of assignment")

    def _for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        self.scopes.append(set())  # the init's scope
        init: Stmt | None = None
        if not self.at(";"):
            init = self._local_decl() if self.at("int") else self._simple_stmt()
        self.expect(";")
        cond = None if self.at(";") else self.expr()
        self.expect(";")
        step: Stmt | None = None
        if not self.at(")"):
            step = self._simple_stmt()
            if isinstance(step, VarDecl):
                raise ParseError(step.loc, "declarations are not allowed in the for step")
        self.expect(")")
        self.loop_depth += 1
        body = self._scoped_stmt()
        self.loop_depth -= 1
        self.scopes.pop()
        return _at(For(init, cond, step, body), tok.loc)

    # -- expressions (precedence climbing)

    def expr(self) -> Expr:
        self.enter(self.peek())
        e = self._binary(1)
        self.depth -= 1
        return e

    def _binary(self, min_prec: int) -> Expr:
        left = self._unary()
        chain = 0  # each operator of a left-deep chain adds a level
        while True:
            tok = self.peek()
            prec = _BINARY_PREC.get(tok.text) if tok.kind == "punct" else None
            if prec is None or prec < min_prec:
                self.depth -= chain
                return left
            self.next()
            self.enter(tok)
            chain += 1
            right = self._binary(prec + 1)
            left = _at(Binary(tok.text, left, right), tok.loc)

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("-", "!", "*", "&"):
            self.next()
            self.enter(tok)
            operand = self._unary()
            self.depth -= 1
            return _at(Unary(tok.text, operand), tok.loc)
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        chain = 0  # each subscript of a chain adds a level
        while self.at("["):
            open_tok = self.next()
            self.enter(open_tok)
            chain += 1
            idx = self.expr()
            self.expect("]")
            e = _at(Index(e, idx), open_tok.loc)
        self.depth -= chain
        return e

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return _at(IntLit(_number(tok)), tok.loc)
        if tok.text == "NULL":
            self.next()
            return _at(IntLit(0), tok.loc)
        if tok.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                if tok.text not in self.funcs:  # a function further down can still define it
                    self.problems.append(
                        (tok.loc, f"call to undeclared function '{tok.text}'", "function", tok.text))
                args: list[Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                want = _FIXED_ARITY_CALLS.get(tok.text)
                if want is not None and len(args) != want:
                    raise ParseError(tok.loc, f"'{tok.text}' takes exactly {want} argument")
                self.calls.add(tok.text)
                return _at(Call(tok.text, args), tok.loc)
            self._use(tok)
            return _at(Var(tok.text), tok.loc)
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(tok.loc, f"expected an expression, found {found}")


def parse(source: str, file: str = "<input>") -> TranslationUnit:
    """Parse MiniC source text. Raises ParseError on any rejection."""
    return _Parser(source, file).parse_unit(file)


# ---------------------------------------------------------------------------
# Expression traversal

def walk(e: Expr):
    """Every subexpression of `e`, `e` included, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Binary):
            stack.append(e.right)
            stack.append(e.left)
        elif isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Index):
            stack.append(e.index)
            stack.append(e.base)
        elif isinstance(e, Call):
            stack.extend(reversed(e.args))


# ---------------------------------------------------------------------------
# Well-formedness

def check_well_formed(tu: TranslationUnit) -> list[SemanticError]:
    """The unit's undeclared variable uses, calls to undeclared functions
    (malloc/free excepted) and duplicate declarations within one scope,
    those in global initializers first, each group in source order.  It
    visits no AST: a function sees every global and function of its unit,
    so this only drops the problems the parser saw that a later
    declaration resolves.  An empty result means the unit is analyzable."""
    later = {"global": {g.name for g in tu.globals},
             "function": {f.name for f in tu.functions}}
    return [SemanticError(loc, message) for loc, message, kind, name in tu.scope_problems
            if kind is None or name not in later[kind]]

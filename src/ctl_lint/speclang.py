"""The check-specification DSL.

A check declares named atomic propositions as syntactic patterns over one
quantified program variable, plus a CTL property over those labels.  Each
CFG node's facts, every (pattern, argument) pair that matches it, come
from the CFG's node table (`Cfg.table`); `label_index` merges them with
the facts callee summaries imply into one index per function.  For every
candidate variable of the quantified class, read from the table's scope
(params, locals and the unit's globals), each label's state set is then
looked up in that index, producing one small model-checking task per
binding over the CFG's shared Kripke skeleton.
Tasks whose trigger label (the first declared one) never matches are
skipped before any checking happens.

Grammar of `.chk` files (# starts a line comment):

    check    := "check" IDENT "{" "severity:" SEV
                "forall" METAVAR ":" ("pointer"|"array"|"any")
                labeldecl+ "property:" ctl "}"
    labeldecl:= "label" IDENT ":=" pattern
    pattern  := PATNAME "(" args? ")"
    ctl      := IDENT | "!" ctl | ctl ("&"|"|"|"->") ctl
              | ("EX"|"EF") ctl | "E" "[" ctl "U" ctl "]" | "(" ctl ")"

A universal operator (AX, AF, AG, A[p U q]) is an error at its token: a
finding's trace is one path, which cannot show a property of all paths.
So is EG: its witness is an infinite path, and a trace is finite.  Their
names stay reserved.  The checks that another analysis decides are
listed in `diagnostics.ANALYSIS_CHECKS`, whose ids no spec check may take.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from . import frontend as ast
from .cfg import Cfg, Fact, KripkeStructure, to_kripke
from .ctl import (
    And, CtlFormula, EF, EU, EX, Implies, Not, Or, Prop, is_witnessable, props_of,
)
from .diagnostics import ANALYSIS_CHECKS, read_checkset
from .source import LocatedError, SourceLocation, Token, tokenize


class SpecError(LocatedError):
    """A check specification that cannot be parsed or is inconsistent."""


PATTERN_NAMES = {
    "call": ("name",),
    "malloc_assign": ("metavar",),
    "null_assign": ("metavar",),
    "assign_to": ("metavar",),
    "free_of": ("metavar",),
    "deref": ("metavar",),
    "use": ("metavar",),
    "decl_uninit": ("metavar",),
    "null_check": ("metavar",),
    "index_of": ("metavar", "wildcard"),
    "at_entry": (),
    "at_exit": (),
}

_RESERVED = {"AX", "EX", "AF", "EF", "AG", "EG", "A", "E", "U"}

VAR_CLASSES = ("pointer", "array", "any")


class Pattern(NamedTuple):
    name: str
    args: tuple[str, ...]  # metavariables ($v), identifiers, or "_"


class CheckSpec(NamedTuple):
    id: str
    severity: str
    metavar: str
    var_class: str  # pointer | array | any
    labels: tuple[tuple[str, Pattern], ...]
    prop: CtlFormula
    loc: SourceLocation


class CheckTask(NamedTuple):
    check: CheckSpec
    var: str  # the variable the check's metavariable is bound to
    kripke: KripkeStructure


# ---------------------------------------------------------------------------
# DSL parsing

# An identifier starts with a letter (checked with str.isalpha in _lex_chk,
# since [^\W\d_] also takes characters like '²') and goes on with letters,
# digits, '_' or '-'.
_CHK_TOKENS = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | \#[^\n]* )
  | (?P<ident> [^\W\d_][\w-]* )
  | (?P<metavar> \$\w* )
  | (?P<punct> := | -> | [{}()\[\]:,!&|_] )
  | (?P<error> . )
""", re.VERBOSE)


def _lex_chk(text: str, file: str) -> list[Token]:
    tokens = tokenize(_CHK_TOKENS, text, file)
    for kind, val, loc, _ in tokens:
        if kind == "error" or kind == "ident" and not val[0].isalpha():
            raise SpecError(loc, f"unexpected character {val[0]!r}")
        if val == "$":
            raise SpecError(loc, "expected a name after '$'")
    return tokens


class _ChkParser:
    def __init__(self, text: str, file: str):
        self.toks = _lex_chk(text, file)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            found = repr(tok.text) if tok.kind != "eof" else "end of file"
            raise SpecError(tok.loc, f"expected '{text}', found {found}")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            found = repr(tok.text) if tok.kind != "eof" else "end of file"
            raise SpecError(tok.loc, f"expected {what}, found {found}")
        return self.next()

    def parse_file(self) -> list[CheckSpec]:
        checks: list[CheckSpec] = []
        if self.peek().kind == "eof":
            raise SpecError(self.peek().loc, "expected 'check'")
        while self.peek().kind != "eof":
            checks.append(self.parse_check())
        return checks

    def parse_check(self) -> CheckSpec:
        loc = self.expect("check").loc
        check_id = self.expect_ident("a check id").text
        self.expect("{")
        self.expect("severity")
        self.expect(":")
        _, severity, sev_loc, _ = self.expect_ident("a severity")
        if severity not in ("error", "warning", "info"):
            raise SpecError(sev_loc, f"severity must be error, warning or info, not '{severity}'")
        self.expect("forall")
        kind, metavar, mv_loc, _ = self.next()
        if kind != "metavar":
            raise SpecError(mv_loc, "expected a metavariable like '$v' after 'forall'")
        self.expect(":")
        _, var_class, vc_loc, _ = self.expect_ident("a variable class")
        if var_class not in VAR_CLASSES:
            raise SpecError(vc_loc, "variable class must be pointer, array or any")

        labels: list[tuple[str, Pattern]] = []
        while self.peek().text == "label":
            self.next()
            _, name, name_loc, _ = self.expect_ident("a label name")
            if name in _RESERVED:
                raise SpecError(name_loc, f"'{name}' is reserved")
            if any(name == seen for seen, _ in labels):
                raise SpecError(name_loc, f"duplicate label '{name}'")
            self.expect(":=")
            labels.append((name, self.parse_pattern(metavar)))
        if not labels:
            raise SpecError(self.peek().loc, "expected at least one 'label' declaration")

        self.expect("property")
        self.expect(":")
        prop = self.parse_ctl()
        label_names = {name for name, _ in labels}
        for p in sorted(props_of(prop)):
            if p not in label_names:
                raise SpecError(loc, f"unknown label '{p}' in property of '{check_id}'")
        self.expect("}")
        return CheckSpec(check_id, severity, metavar, var_class, tuple(labels), prop, loc)

    def parse_pattern(self, quantified: str) -> Pattern:
        _, name, loc, _ = self.expect_ident("a pattern name")
        shape = PATTERN_NAMES.get(name)
        if shape is None:
            raise SpecError(loc, f"unknown pattern '{name}'")
        self.expect("(")
        args: list[str] = []
        if self.peek().text != ")":
            while True:
                kind, val, aloc, _ = self.next()
                if kind not in ("ident", "metavar") and val != "_":
                    raise SpecError(aloc, f"bad pattern argument {val!r}")
                args.append(val)
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(")")
        if len(args) != len(shape):
            raise SpecError(loc, f"'{name}' takes {len(shape)} argument(s)")
        for arg, want in zip(args, shape):
            if want == "metavar":
                if not arg.startswith("$"):
                    raise SpecError(loc, f"'{name}' needs a metavariable argument")
                if arg != quantified:
                    raise SpecError(loc, f"unbound metavariable '{arg}'")
            elif want == "wildcard" and arg != "_":
                raise SpecError(loc, f"the index argument of '{name}' must be '_'")
            elif want == "name" and (arg.startswith("$") or arg == "_"):
                raise SpecError(loc, f"'{name}' needs a function name argument")
        return Pattern(name, tuple(args))

    # CTL precedence: ->  <  |  <  &  <  unary/temporal
    def parse_ctl(self) -> CtlFormula:
        left = self._ctl_or()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self.parse_ctl())
        return left

    def _ctl_or(self) -> CtlFormula:
        left = self._ctl_and()
        while self.peek().text == "|":
            self.next()
            left = Or(left, self._ctl_and())
        return left

    def _ctl_and(self) -> CtlFormula:
        left = self._ctl_unary()
        while self.peek().text == "&":
            self.next()
            left = And(left, self._ctl_unary())
        return left

    _UNARY_OPS = {"EX": EX, "EF": EF}

    def _ctl_unary(self) -> CtlFormula:
        kind, val, loc, _ = self.peek()
        if val == "!":
            self.next()
            return Not(self._ctl_unary())
        if val == "(":
            self.next()
            f = self.parse_ctl()
            self.expect(")")
            return f
        if val in self._UNARY_OPS:
            self.next()
            return self._UNARY_OPS[val](self._ctl_unary())
        if val in ("AX", "AF", "AG", "A"):
            raise SpecError(loc, f"'{val}' is a universal operator, which has no single-path "
                                 "witness")
        if val == "EG":
            raise SpecError(loc, "'EG' has no finite witness: it holds along an infinite path")
        if val == "E":
            self.next()
            self.expect("[")
            left = self.parse_ctl()
            self.expect("U")
            right = self.parse_ctl()
            self.expect("]")
            return EU(left, right)
        if kind == "ident":
            self.next()
            return Prop(val)
        found = repr(val) if kind != "eof" else "end of file"
        raise SpecError(loc, f"expected a CTL formula, found {found}")


def parse_checks(text: str, file: str = "<checks>") -> list[CheckSpec]:
    """Parse a .chk file into check specifications."""
    return _ChkParser(text, file).parse_file()


def load_checkset(spec_paths: Sequence[str] = ()) -> tuple[list[CheckSpec], str]:
    """The checks `read_checkset` reads, parsed, and the text it gives."""
    sources, text = read_checkset(spec_paths)
    return parse_checkset(sources), text


def parse_checkset(sources: list[tuple[str, str]]) -> list[CheckSpec]:
    """The checks of each (file, text) of `read_checkset`, in order.  Check
    ids must be unique, also against `ANALYSIS_CHECKS`, and a later
    declaration of an id is the error.  Each property must have single-path
    witnesses, which every finding reports as its trace."""
    checks = [c for file, text in sources for c in parse_checks(text, file)]
    seen = set(ANALYSIS_CHECKS)
    for c in checks:
        if c.id in seen:
            raise SpecError(c.loc, f"duplicate check id '{c.id}'")
        seen.add(c.id)
        if not is_witnessable(c.prop):
            raise SpecError(c.loc, f"the property of '{c.id}' has no single-path witness")
    return checks


# ---------------------------------------------------------------------------
# Label index

def label_index(cfg: Cfg, extra: dict[int, set[Fact]] | None = None) -> dict[Fact, list[int]]:
    """Map each fact of `cfg`'s node table to its node ids, ascending.

    `extra` adds facts per node id, such as those implied by callee
    summaries at call sites.
    """
    index: dict[Fact, list[int]] = {}
    for nid, facts in enumerate(cfg.table.facts):
        if extra and nid in extra:
            facts = facts | extra[nid]
        for fact in facts:
            index.setdefault(fact, []).append(nid)
    return index


def _fact(p: Pattern, var: str) -> Fact:
    """The fact `p` stands for with its metavariable bound to `var`."""
    arg = p.args[0] if p.args else ""
    return p.name, var if arg.startswith("$") else arg


# ---------------------------------------------------------------------------
# Task instantiation

def candidate_variables(check: CheckSpec, cfg: Cfg) -> list[str]:
    """In-scope variables matching the check's quantified class, in
    declaration order: params, then locals, then globals."""
    types = cfg.table.types
    if check.var_class == "pointer":
        return [n for n, t in types.items() if isinstance(t, ast.PtrInt)]
    if check.var_class == "array":
        return [n for n, t in types.items() if isinstance(t, ast.ArrayInt)]
    return list(types)


def instantiate(check: CheckSpec, cfg: Cfg, index: dict[Fact, list[int]],
                candidates: list[str]) -> list[CheckTask]:
    """One task per binding of `candidates` (the check's
    `candidate_variables`) whose trigger label matches somewhere.

    `index` is the function's `label_index`: each label of a binding is
    the state set of one lookup, and every task shares the CFG's
    transition lists.
    """
    tasks: list[CheckTask] = []
    for var in candidates:
        hits = [(name, index.get(_fact(pattern, var))) for name, pattern in check.labels]
        if not hits[0][1]:
            continue  # the trigger label matches nowhere
        props = {name: frozenset(nodes) for name, nodes in hits if nodes}
        tasks.append(CheckTask(check, var, to_kripke(cfg, props)))
    return tasks

"""Per-function control-flow graphs and the Kripke-structure view.

Granularity is one node per statement or atomic condition.  `&&`, `||`
and `!` in conditions are expanded into chains of single-condition nodes
during construction (short-circuit form), so each Cond node carries an
expression free of boolean connectives and edge labels keep their plain
meaning: the `true` edge is taken when the node's expression is nonzero.

Unreachable nodes are kept in the graph and flagged; the dead-code check
needs to see them.

A CFG is built with its unit's globals, and scanned once into a node table
(`Cfg.table`): every node's expression trees are walked a single time, and
the function's whole scope is folded in, so every later pass that needs
syntax or scope (labeling, summaries, intervals, refinement) reads the
table and none takes the globals itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import frontend
from .frontend import (
    BUILTIN_FUNCTIONS, ArrayInt, Assign, Binary, Block, Break, Call, Continue,
    Expr, ExprStmt, For, FunctionDef, If, Index, IntLit, MiniCType, Return,
    SourceLocation, Stmt, Unary, Var, VarDecl, While,
)

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
COND = "cond"

UNCOND = "uncond"
TRUE = "true"
FALSE = "false"
# the comparison a guard's FALSE branch takes
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class CfgNode:
    __slots__ = ("id", "kind", "loc", "stmt", "expr")

    def __init__(self, id: int, kind: str, loc: SourceLocation, stmt: Stmt | None = None,
                 expr: Expr | None = None):
        self.id = id
        self.kind = kind  # ENTRY | EXIT | STMT | COND
        self.loc = loc
        self.stmt = stmt  # for STMT nodes
        self.expr = expr  # for COND nodes

    @property
    def roots(self) -> list[Expr]:
        """The expression trees this node evaluates; an assignment's target
        comes first."""
        if self.kind == COND:
            return [self.expr]
        s = self.stmt
        if isinstance(s, Assign):
            return [s.target, s.value]
        if isinstance(s, ExprStmt):
            return [s.expr]
        if isinstance(s, VarDecl) and s.init is not None:
            return [s.init]
        if isinstance(s, Return) and s.value is not None:
            return [s.value]
        return []

    def describe(self) -> str:
        if self.kind == ENTRY:
            return "entry"
        if self.kind == EXIT:
            return "exit"
        if self.kind == COND:
            return f"cond @ {self.loc.line}:{self.loc.column}"
        return f"{type(self.stmt).__name__.lower()} @ {self.loc.line}:{self.loc.column}"


class Cfg:
    """A function's CFG, with the globals of its unit.  Its derived views are
    cached properties, kept in the instance's `__dict__`."""

    def __init__(self, function: str, func: FunctionDef, globals_: list[VarDecl],
                 nodes: list[CfgNode], edges: list[tuple[int, int, str]], entry: int,
                 exit: int, loop_heads: frozenset[int]):
        self.function = function
        self.func = func
        self.globals = globals_
        self.nodes = nodes
        self.edges = edges  # (from, to, label)
        self.entry = entry
        self.exit = exit
        self.loop_heads = loop_heads

    @cached_property
    def succ(self) -> list[list[tuple[int, str]]]:
        out: list[list[tuple[int, str]]] = [[] for _ in self.nodes]
        for a, b, lab in self.edges:
            out[a].append((b, lab))
        for lst in out:
            lst.sort()
        return out

    @cached_property
    def pred(self) -> list[list[tuple[int, str]]]:
        out: list[list[tuple[int, str]]] = [[] for _ in self.nodes]
        for a, b, lab in self.edges:
            out[b].append((a, lab))
        for lst in out:
            lst.sort()
        return out

    @cached_property
    def kripke_succ(self) -> list[list[int]]:
        """Sorted successor ids, with a self-loop where there is none
        (the exit), which makes the relation total."""
        return [sorted({b for b, _ in outs}) or [a] for a, outs in enumerate(self.succ)]

    @cached_property
    def kripke_pred(self) -> list[list[int]]:
        return predecessors(self.kripke_succ)

    @cached_property
    def unreachable(self) -> frozenset[int]:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            n = stack.pop()
            for m, _ in self.succ[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return frozenset(n.id for n in self.nodes if n.id not in seen)

    @cached_property
    def table(self) -> NodeTable:
        return _scan(self)


# ---------------------------------------------------------------------------
# The node table

Fact = tuple[str, str]  # (pattern name, argument)

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


class CallSite(NamedTuple):
    node: int
    callee: str
    args: tuple[str | None, ...]  # each argument's variable, None if not a plain one
    target: str | None  # v in `v = f(...)` and `int v = f(...)`


class NodeTable:
    """What one walk of a CFG's expression trees finds, with the function's
    scope.

    `facts[n]` holds every pattern that matches node n, as (pattern name,
    argument) facts.  The argument is the variable bound to the pattern's
    metavariable, the callee name for `call`, and "" for `at_entry` and
    `at_exit`.  A plain assignment's target and a declaration's own name
    are writes, and `&v` takes an address without reading `v`; every other
    variable mention is a `use`.

    A node in `clobbers` may change any `escaped` name: it calls a user
    function, or it writes through `*p` or through an index whose base is
    not a declared array.
    """

    __slots__ = ("facts", "calls", "sites", "user_calls", "types", "arrays", "writes",
                 "escaped", "clobbers", "returns")

    def __init__(self):
        self.facts: list[set[Fact]] = []  # by node id
        self.calls: list[CallSite] = []  # in node and walk order, malloc and free included
        self.sites: list[tuple[int, Expr]] = []  # each index into a variable and each / and %
        self.user_calls: set[int] = set()  # nodes calling a function other than malloc and free
        # each name in scope -> the type of its first declaration: params,
        # then locals in node order, then globals
        self.types: dict[str, MiniCType] = {}
        self.arrays: frozenset[str] = frozenset()  # names whose first declaration is `int[N]`
        # node -> (v, e) for each `v = e` and `int v = e`, (v, None) for `int v`
        self.writes: dict[int, tuple[str, Expr | None]] = {}
        self.escaped: frozenset[str] = frozenset()  # the globals and every v of an `&v`
        self.clobbers: frozenset[int] = frozenset()
        self.returns: list[int] = []  # return statements


def _scan(cfg: Cfg) -> NodeTable:
    t = NodeTable()
    address_taken: set[str] = set()
    indirect: list[tuple[int, str | None]] = []  # each `*p = e` and `b[i] = e`: (node, b)
    for p in cfg.func.params:
        t.types.setdefault(p.name, p.type)
    for node in cfg.nodes:
        if node.kind in (ENTRY, EXIT):
            t.facts.append({("at_entry" if node.kind == ENTRY else "at_exit", "")})
            continue
        nid = node.id
        facts: set[Fact] = set()
        t.facts.append(facts)
        s = node.stmt
        roots = node.roots
        target = rhs = None
        if isinstance(s, Assign) and isinstance(s.target, Var):
            target, rhs = t.writes[nid] = s.target.name, s.value
            roots = roots[1:]  # the target is written, and a Var has no subexpressions
        elif isinstance(s, Assign):
            base = s.target.base if isinstance(s.target, Index) else None
            indirect.append((nid, base.name if isinstance(base, Var) else None))
            if isinstance(s.value, Binary) and s.value.left is s.target:
                roots = roots[1:]  # `a[i]++` shares its target with the value: walk it once
        elif isinstance(s, VarDecl):
            t.types.setdefault(s.name, s.type)
            target, rhs = t.writes[nid] = s.name, s.init
            if rhs is None and not isinstance(s.type, ArrayInt):
                facts.add(("decl_uninit", target))
        elif isinstance(s, Return):
            t.returns.append(nid)
        if rhs is not None:
            facts.add(("assign_to", target))
            if isinstance(rhs, Call) and rhs.name == "malloc":
                facts.add(("malloc_assign", target))
            elif isinstance(rhs, IntLit) and rhs.value == 0:
                facts.add(("null_assign", target))
        if node.kind == COND:
            e = node.expr
            if isinstance(e, Var):
                facts.add(("null_check", e.name))
            elif isinstance(e, Binary) and e.op in _COMPARISONS:
                for a, b in ((e.left, e.right), (e.right, e.left)):
                    if isinstance(a, Var) and isinstance(b, IntLit) and b.value == 0:
                        facts.add(("null_check", a.name))
        # id() of the Var under each `&v`; walk is pre-order, so `&v` comes first
        address_of: set[int] = set()
        for root in roots:
            for e in frontend.walk(root):
                if isinstance(e, Var):
                    if id(e) not in address_of:
                        facts.add(("use", e.name))
                elif isinstance(e, Call):
                    facts.add(("call", e.name))
                    args = tuple(a.name if isinstance(a, Var) else None for a in e.args)
                    if e.name == "free" and args[0] is not None:
                        facts.add(("free_of", args[0]))
                    if e.name not in BUILTIN_FUNCTIONS:
                        t.user_calls.add(nid)
                    t.calls.append(CallSite(nid, e.name, args, target if e is rhs else None))
                elif isinstance(e, Unary) and isinstance(e.operand, Var):
                    if e.op == "*":
                        facts.add(("deref", e.operand.name))
                    elif e.op == "&":
                        address_of.add(id(e.operand))
                        address_taken.add(e.operand.name)
                elif isinstance(e, Index):
                    if isinstance(e.base, Var):
                        facts.add(("deref", e.base.name))
                        facts.add(("index_of", e.base.name))
                        t.sites.append((nid, e))
                elif isinstance(e, Binary) and e.op in ("/", "%"):
                    t.sites.append((nid, e))
    for g in cfg.globals:
        t.types.setdefault(g.name, g.type)
    t.arrays = frozenset(v for v, ty in t.types.items() if isinstance(ty, ArrayInt))
    t.escaped = frozenset(g.name for g in cfg.globals).union(address_taken)
    t.clobbers = frozenset(t.user_calls).union(n for n, b in indirect if b not in t.arrays)
    return t


class _Builder:
    # Sinks passed around below are either a concrete node id or a list
    # collecting dangling (node, label) pairs to be resolved later.

    def __init__(self, f: FunctionDef):
        self.f = f
        self.nodes: list[CfgNode] = []
        self.edges: list[tuple[int, int, str]] = []
        self.loop_heads: set[int] = set()
        self.return_nodes: list[int] = []

    def new_node(self, kind: str, loc: SourceLocation, stmt: Stmt | None = None,
                 expr: Expr | None = None) -> int:
        node = CfgNode(len(self.nodes), kind, loc, stmt=stmt, expr=expr)
        self.nodes.append(node)
        return node.id

    def connect(self, src: int, label: str, sink) -> None:
        if isinstance(sink, int):
            self.edges.append((src, sink, label))
        else:
            sink.append((src, label))

    def resolve(self, dangling: list[tuple[int, str]], target: int) -> None:
        for src, label in dangling:
            self.edges.append((src, target, label))

    # -- conditions, expanded to short-circuit chains

    def cond(self, e: Expr, t_sink, f_sink) -> int:
        if isinstance(e, Binary) and e.op == "&&":
            right = self.cond(e.right, t_sink, f_sink)
            return self.cond(e.left, right, f_sink)
        if isinstance(e, Binary) and e.op == "||":
            right = self.cond(e.right, t_sink, f_sink)
            return self.cond(e.left, t_sink, right)
        if isinstance(e, Unary) and e.op == "!":
            return self.cond(e.operand, f_sink, t_sink)
        nid = self.new_node(COND, e.loc, expr=e)
        self.connect(nid, TRUE, t_sink)
        self.connect(nid, FALSE, f_sink)
        return nid

    # -- statements; a segment is (entry id or None when empty, dangling outs)

    def seq(self, stmts: list[Stmt], brk, cont) -> tuple[int | None, list[tuple[int, str]]]:
        entry: int | None = None
        outs: list[tuple[int, str]] = []
        first = True
        for s in stmts:
            s_entry, s_outs = self.stmt(s, brk, cont)
            if s_entry is None:
                continue
            if first:
                entry = s_entry
                first = False
            else:
                self.resolve(outs, s_entry)
            outs = s_outs
        return entry, outs

    def stmt(self, s: Stmt, brk, cont) -> tuple[int | None, list[tuple[int, str]]]:
        if isinstance(s, Block):
            return self.seq(s.stmts, brk, cont)
        if isinstance(s, (VarDecl, Assign, ExprStmt)):
            nid = self.new_node(STMT, s.loc, stmt=s)
            return nid, [(nid, UNCOND)]
        if isinstance(s, Return):
            nid = self.new_node(STMT, s.loc, stmt=s)
            self.return_nodes.append(nid)
            return nid, []
        if isinstance(s, Break):
            nid = self.new_node(STMT, s.loc, stmt=s)
            self.connect(nid, UNCOND, brk)
            return nid, []
        if isinstance(s, Continue):
            nid = self.new_node(STMT, s.loc, stmt=s)
            self.connect(nid, UNCOND, cont)
            return nid, []
        if isinstance(s, If):
            outs: list[tuple[int, str]] = []
            t_entry, t_outs = self.stmt(s.then, brk, cont)
            t_sink = t_entry if t_entry is not None else outs
            if s.orelse is not None:
                e_entry, e_outs = self.stmt(s.orelse, brk, cont)
                f_sink = e_entry if e_entry is not None else outs
                outs.extend(e_outs)
            else:
                f_sink = outs
            entry = self.cond(s.cond, t_sink, f_sink)
            outs.extend(t_outs)
            return entry, outs
        if isinstance(s, While):
            after: list[tuple[int, str]] = []
            body_sink: list[tuple[int, str]] = []
            head = self.cond(s.cond, body_sink, after)
            self.loop_heads.add(head)
            b_entry, b_outs = self.stmt(s.body, after, head)
            self.resolve(body_sink, b_entry if b_entry is not None else head)
            self.resolve(b_outs, head)
            return head, after
        if isinstance(s, For):
            after: list[tuple[int, str]] = []
            cond_expr = s.cond
            if cond_expr is None:
                cond_expr = IntLit(1)
                cond_expr.loc = s.loc
            body_sink: list[tuple[int, str]] = []
            head = self.cond(cond_expr, body_sink, after)
            self.loop_heads.add(head)
            if s.step is not None:
                step_entry, step_outs = self.stmt(s.step, None, None)
                self.resolve(step_outs, head)
                cont_target: int = step_entry  # type: ignore[assignment]
            else:
                cont_target = head
            b_entry, b_outs = self.stmt(s.body, after, cont_target)
            self.resolve(body_sink, b_entry if b_entry is not None else cont_target)
            self.resolve(b_outs, cont_target)
            if s.init is not None:
                i_entry, i_outs = self.stmt(s.init, None, None)
                self.resolve(i_outs, head)
                return i_entry, after
            return head, after
        raise AssertionError(f"unhandled statement {s!r}")

    def build(self, globals_: list[VarDecl]) -> Cfg:
        entry = self.new_node(ENTRY, self.f.loc)
        body_entry, outs = self.seq(self.f.body.stmts, None, None)
        exit_ = self.new_node(EXIT, self.f.end_loc)
        if body_entry is None:
            self.edges.append((entry, exit_, UNCOND))
        else:
            self.edges.append((entry, body_entry, UNCOND))
            self.resolve(outs, exit_)
        for r in self.return_nodes:
            self.edges.append((r, exit_, UNCOND))
        return Cfg(self.f.name, self.f, globals_, self.nodes, self.edges, entry, exit_,
                   frozenset(self.loop_heads))


def build_cfg(f: FunctionDef, globals_: list[VarDecl]) -> Cfg:
    """Build the statement-level control-flow graph of a well-formed
    function of a unit whose globals are `globals_`."""
    return _Builder(f).build(globals_)


# ---------------------------------------------------------------------------
# Kripke structures

class KripkeStructure:
    """Finite transition system; a state may have no successor.

    States are the dense ids 0..n-1; `succ[s]` and `pred[s]` are sorted id
    lists, and `props[p]` is the set of states where proposition p holds
    (absent means nowhere).  The structures of one CFG share its `succ` and
    `pred` lists, so building one costs only its `props`.
    """

    __slots__ = ("n", "succ", "pred", "props")

    def __init__(self, succ: list[list[int]], pred: list[list[int]],
                 props: dict[str, frozenset[int]]):
        self.n = len(succ)
        self.succ = succ
        self.pred = pred
        self.props = props


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The reversed relation, each list ascending."""
    pred: list[list[int]] = [[] for _ in succ]
    for s, outs in enumerate(succ):
        for t in outs:
            pred[t].append(s)
    return pred


def to_kripke(cfg: Cfg, props: dict[str, frozenset[int]] | None = None) -> KripkeStructure:
    """View a CFG as a Kripke structure, totalized with an exit self-loop,
    with `props` as its labeling."""
    return KripkeStructure(cfg.kripke_succ, cfg.kripke_pred, props or {})


def to_dot(cfg: Cfg) -> str:
    """DOT rendering of the CFG for debugging."""
    lines = [f'digraph "{cfg.function}" {{']
    for n in cfg.nodes:
        shape = {ENTRY: "circle", EXIT: "doublecircle", COND: "diamond", STMT: "box"}[n.kind]
        dead = " (dead)" if n.id in cfg.unreachable else ""
        lines.append(f'  n{n.id} [shape={shape} label="{n.id}: {n.describe()}{dead}"];')
    for a, b, lab in cfg.edges:
        attr = "" if lab == UNCOND else f' [label="{lab}"]'
        lines.append(f"  n{a} -> n{b}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"

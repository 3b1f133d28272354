"""Intraprocedural interval analysis over the CFG.

Classic integer intervals with widening at loop heads and a single
meet-based narrowing pass.  Division and modulo follow C semantics
(truncation toward zero, remainder takes the dividend's sign); analysis
integers are unbounded, so machine wraparound is out of scope.  A bound is
a Python int, or `-INF`/`INF` where that end is unbounded.  Bound arithmetic
returns an infinite operand before any `+` or `*`, because Python would
turn the int into a float, and one past about 1e308 does not convert;
comparisons between an int and `INF` are exact.  A sum or product bound
past `ast.MAX_MAGNITUDE` widens outward to `-INF`/`INF`, so every finite
bound prints, and a chain of squarings stays cheap.

Backs the buffer-overrun and division-by-zero checks: a definitely-bad
operation escalates to an error, a possibly-bad one stays a warning.
Everything syntactic and the whole scope come from the CFG's node table
(`Cfg.table`): each node's write, the declared types (globals included,
first declaration wins), and the index and `/`/`%` sites the checks report
on.  At a `clobbers` node (a user call, or a write through a pointer) every
`escaped` name (globals and address-taken names) drops to Top; refinement
renews the same names at the same nodes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from . import frontend as ast
from .cfg import COND, Cfg, CfgNode, FALSE, NEGATED, NodeTable, TRUE
from .diagnostics import (
    ANALYSIS_CHECKS, BUFFER_OVERRUN, CONFIRMED, DIV_BY_ZERO, Diagnostic, UNCONFIRMED,
)

INF = float("inf")  # the bound of an end that is unbounded, as -INF or INF
_INFS = (-INF, INF)


def tdiv(a: int, b: int) -> int:
    """C integer division: truncation toward zero."""
    q, r = divmod(a, b)
    if r != 0 and (a < 0) != (b < 0):
        q += 1
    return q


def tmod(a: int, b: int) -> int:
    """C remainder: same sign as the dividend."""
    return a - b * tdiv(a, b)


class Interval(ast.Value):
    __slots__ = _fields = ("lo", "hi", "empty")

    def __init__(self, lo: int | float, hi: int | float, empty: bool = False):
        assert empty or lo <= hi, f"malformed interval [{lo}, {hi}]"
        self.lo = lo  # an int, or -INF
        self.hi = hi  # an int, or INF
        self.empty = empty

    def __repr__(self) -> str:
        if self.empty:
            return "<empty>"
        lo = "-oo" if self.lo == -INF else str(self.lo)
        hi = "+oo" if self.hi == INF else str(self.hi)
        return f"[{lo}, {hi}]"

    def is_top(self) -> bool:
        return not self.empty and self.lo == -INF and self.hi == INF

    def is_const(self) -> bool:
        return not self.empty and self.lo == self.hi

    def contains(self, v: int) -> bool:
        return not self.empty and self.lo <= v <= self.hi


TOP = Interval(-INF, INF)
BOTTOM = Interval(INF, -INF, empty=True)
BOOL = Interval(0, 1)


def _mk(lo, hi) -> Interval:
    return BOTTOM if lo > hi else Interval(lo, hi)


def const(v: int) -> Interval:
    return Interval(v, v)


def join(a: Interval, b: Interval) -> Interval:
    if a.empty:
        return b
    if b.empty:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def meet(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOTTOM
    return _mk(max(a.lo, b.lo), min(a.hi, b.hi))


def widen(old: Interval, new: Interval) -> Interval:
    """[a,b] widened by [c,d]: bounds that grew jump to infinity."""
    if old.empty:
        return new
    if new.empty:
        return old
    return Interval(-INF if new.lo < old.lo else old.lo, INF if new.hi > old.hi else old.hi)


def interval_leq(a: Interval, b: Interval) -> bool:
    if a.empty:
        return True
    if b.empty:
        return False
    return b.lo <= a.lo and a.hi <= b.hi


def _capped(lo, hi) -> Interval:
    return Interval(lo if abs(lo) <= ast.MAX_MAGNITUDE else -INF,
                    hi if abs(hi) <= ast.MAX_MAGNITUDE else INF)


def _bsum(x, y):
    """x + y for two lower bounds or two upper bounds."""
    return x if x in _INFS else y if y in _INFS else x + y


def add(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOTTOM
    return _capped(_bsum(a.lo, b.lo), _bsum(a.hi, b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    return add(a, neg(b))


def neg(a: Interval) -> Interval:
    return BOTTOM if a.empty else Interval(-a.hi, -a.lo)


def _bmul(x, y):
    if x == 0 or y == 0:
        return 0
    if x in _INFS or y in _INFS:
        return INF if (x > 0) == (y > 0) else -INF
    return x * y


def mul(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOTTOM
    corners = [_bmul(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return _capped(min(corners), max(corners))


def _bdiv(x, y):
    if x in _INFS:
        return x if y > 0 else -x
    if y in _INFS:
        return 0
    return tdiv(x, y)


def div(a: Interval, b: Interval) -> Interval:
    """Truncating division; a divisor interval containing 0 yields Top."""
    if a.empty or b.empty:
        return BOTTOM
    if b.contains(0):
        return TOP
    corners = [_bdiv(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(corners), max(corners))


def mod(a: Interval, b: Interval) -> Interval:
    """C remainder bounds: |a % b| < |b| and |a % b| <= |a|, sign of a."""
    if a.empty or b.empty:
        return BOTTOM
    if b.contains(0):
        return TOP
    if a.is_const() and b.is_const():
        return const(tmod(a.lo, b.lo))
    mag = min(max(-a.lo, a.hi), max(-b.lo, b.hi) - 1)
    return Interval(0 if a.lo >= 0 else -mag, 0 if a.hi <= 0 else mag)


def _cmp(op: str, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOTTOM
    if op == "<":
        if a.hi < b.lo:
            return const(1)
        if a.lo >= b.hi:
            return const(0)
    elif op == "<=":
        if a.hi <= b.lo:
            return const(1)
        if a.lo > b.hi:
            return const(0)
    elif op == ">":
        return _cmp("<", b, a)
    elif op == ">=":
        return _cmp("<=", b, a)
    elif op == "==":
        if a.is_const() and b.is_const() and a.lo == b.lo:
            return const(1)
        if a.hi < b.lo or b.hi < a.lo:
            return const(0)
    elif op == "!=":
        r = _cmp("==", a, b)
        if r.is_const():
            return const(1 - r.lo)
    return BOOL


def truthiness(a: Interval) -> Interval:
    """Map an interval to the {0,1} truth interval of `x != 0`."""
    if a.empty:
        return BOTTOM
    if a.is_const() and a.lo == 0:
        return const(0)
    if not a.contains(0):
        return const(1)
    return BOOL


def logic_not(a: Interval) -> Interval:
    t = truthiness(a)
    if t.is_const():
        return const(1 - t.lo)
    return t


# ---------------------------------------------------------------------------
# Environments

class IntervalEnv:
    """Variable valuation; absent variables are Top, `is_bottom` marks an
    unreachable state."""

    __slots__ = ("vars", "is_bottom")

    def __init__(self, vars: dict[str, Interval] | None = None, is_bottom: bool = False):
        self.vars = vars or {}
        self.is_bottom = is_bottom

    def __repr__(self) -> str:
        if self.is_bottom:
            return "<unreachable>"
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.vars.items()))
        return "{" + inner + "}"

    def get(self, name: str) -> Interval:
        if self.is_bottom:
            return BOTTOM
        return self.vars.get(name, TOP)

    def set(self, name: str, value: Interval) -> IntervalEnv:
        if self.is_bottom:
            return self
        if value.empty:
            return BOTTOM_ENV
        out = dict(self.vars)
        if value.is_top():
            out.pop(name, None)
        else:
            out[name] = value
        return IntervalEnv(out)

    def drop(self, names) -> IntervalEnv:
        if self.is_bottom:
            return self
        out = {k: v for k, v in self.vars.items() if k not in names}
        return IntervalEnv(out)


BOTTOM_ENV = IntervalEnv(is_bottom=True)


def env_join(a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    out = {}
    for k in a.vars.keys() & b.vars.keys():
        v = join(a.vars[k], b.vars[k])
        if not v.is_top():
            out[k] = v
    return IntervalEnv(out)


def env_meet(a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
    if a.is_bottom or b.is_bottom:
        return BOTTOM_ENV
    out = dict(a.vars)
    for k, v in b.vars.items():
        m = meet(out.get(k, TOP), v)
        if m.empty:
            return BOTTOM_ENV
        out[k] = m
    return IntervalEnv(out)


def env_widen(old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
    if old.is_bottom:
        return new
    if new.is_bottom:
        return old
    out = {}
    for k in old.vars.keys() & new.vars.keys():
        v = widen(old.vars[k], new.vars[k])
        if not v.is_top():
            out[k] = v
    return IntervalEnv(out)


def env_leq(a: IntervalEnv, b: IntervalEnv) -> bool:
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    return all(interval_leq(a.get(k), v) for k, v in b.vars.items())


# ---------------------------------------------------------------------------
# Expression evaluation and transfer

def eval_expr(e: ast.Expr, env: IntervalEnv) -> Interval:
    if env.is_bottom:
        return BOTTOM
    if isinstance(e, ast.IntLit):
        return const(e.value)
    if isinstance(e, ast.Var):
        return env.get(e.name)
    if isinstance(e, ast.Unary):
        if e.op == "-":
            return neg(eval_expr(e.operand, env))
        if e.op == "!":
            return logic_not(eval_expr(e.operand, env))
        return TOP  # * and &: values behind pointers are untracked
    if isinstance(e, ast.Binary):
        if e.op == "&&":
            lt = truthiness(eval_expr(e.left, env))
            rt = truthiness(eval_expr(e.right, env))
            if (lt.is_const() and lt.lo == 0) or (rt.is_const() and rt.lo == 0):
                return const(0)
            if lt.is_const() and rt.is_const():
                return const(1)
            return BOOL
        if e.op == "||":
            lt = truthiness(eval_expr(e.left, env))
            rt = truthiness(eval_expr(e.right, env))
            if (lt.is_const() and lt.lo == 1) or (rt.is_const() and rt.lo == 1):
                return const(1)
            if lt.is_const() and rt.is_const():
                return const(0)
            return BOOL
        l = eval_expr(e.left, env)
        r = eval_expr(e.right, env)
        if e.op == "+":
            return add(l, r)
        if e.op == "-":
            return sub(l, r)
        if e.op == "*":
            return mul(l, r)
        if e.op == "/":
            return div(l, r)
        if e.op == "%":
            return mod(l, r)
        return _cmp(e.op, l, r)
    if isinstance(e, (ast.Index, ast.Call)):
        return TOP  # array cells and call results are untracked
    raise AssertionError(f"unhandled expression {e!r}")


def _refine_by_cmp(iv: Interval, op: str, c: int) -> Interval:
    if op == "<":
        return meet(iv, Interval(-INF, c - 1))
    if op == "<=":
        return meet(iv, Interval(-INF, c))
    if op == ">":
        return meet(iv, Interval(c + 1, INF))
    if op == ">=":
        return meet(iv, Interval(c, INF))
    if op == "==":
        return meet(iv, const(c))
    if op == "!=":
        return _mk(c + 1 if iv.lo == c else iv.lo, c - 1 if iv.hi == c else iv.hi)
    raise AssertionError(op)


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_guard(expr: ast.Expr, env: IntervalEnv, branch: str) -> IntervalEnv:
    """Meet the environment with what a guard implies along a branch."""
    guard = eval_expr(expr, env)
    if branch == TRUE and guard.is_const() and guard.lo == 0:
        return BOTTOM_ENV
    if branch == FALSE and not guard.contains(0):
        return BOTTOM_ENV
    if isinstance(expr, ast.Var):
        iv = env.get(expr.name)
        iv = _refine_by_cmp(iv, "!=" if branch == TRUE else "==", 0)
        return env.set(expr.name, iv)
    if isinstance(expr, ast.Binary) and expr.op in NEGATED:
        op = expr.op if branch == TRUE else NEGATED[expr.op]
        out = env
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        if isinstance(expr.left, ast.Var) and rv.is_const():
            iv = _refine_by_cmp(out.get(expr.left.name), op, rv.lo)
            out = out.set(expr.left.name, iv)
        if isinstance(expr.right, ast.Var) and lv.is_const() and not out.is_bottom:
            iv = _refine_by_cmp(out.get(expr.right.name), _FLIPPED[op], lv.lo)
            out = out.set(expr.right.name, iv)
        return out
    return env


def transfer(node: CfgNode, env: IntervalEnv, table: NodeTable,
             branch: str | None = None) -> IntervalEnv:
    """Abstract effect of executing `node` of the CFG whose node table is
    `table`, leaving along `branch`.

    At a `clobbers` node every `escaped` name drops to Top first, since a
    call may run before sibling operands are read.  A write into a declared
    array touches only untracked cells and drops nothing.
    """
    if env.is_bottom:
        return BOTTOM_ENV
    if node.id in table.clobbers:
        env = env.drop(table.escaped)
    if node.kind == COND:
        return _refine_guard(node.expr, env, branch if branch is not None else TRUE)
    if node.id in table.writes:
        name, value = table.writes[node.id]
        return env.set(name, eval_expr(value, env) if value is not None else TOP)
    return env


# ---------------------------------------------------------------------------
# Fixpoint

class AbsResult:
    """Per-node abstract environments at node entry."""

    def __init__(self, envs: list[IntervalEnv], iterations: int):
        self.envs = envs
        self.iterations = iterations

    def at(self, node_id: int) -> IntervalEnv:
        return self.envs[node_id]


_WIDEN_DELAY = 3


def iteration_cap(n_nodes: int, n_vars: int, n_heads: int) -> int:
    """Hard bound on worklist pops: the 3-per-head plain phase plus a
    widening-bounded tail. Exceeding it is a bug, not an input property."""
    return 64 + 6 * n_nodes * (n_vars + 2) * (n_heads + 2)


def analyze(cfg: Cfg) -> AbsResult:
    """Worklist fixpoint with widening at loop heads after three plain
    joins per head, then one meet-based narrowing pass in reverse postorder."""
    n = len(cfg.nodes)
    table = cfg.table
    envs: list[IntervalEnv] = [BOTTOM_ENV] * n
    envs[cfg.entry] = IntervalEnv()

    cap = iteration_cap(n, len(table.types), len(cfg.loop_heads))
    update_count = [0] * n
    work = deque([cfg.entry])
    queued = [False] * n
    queued[cfg.entry] = True
    pops = 0
    while work:
        m = work.popleft()
        queued[m] = False
        pops += 1
        if pops > cap:
            raise RuntimeError(
                f"interval fixpoint exceeded its iteration cap ({cap}) in '{cfg.function}'")
        for t, label in cfg.succ[m]:
            out = transfer(cfg.nodes[m], envs[m], table, label)
            if env_leq(out, envs[t]):
                continue
            update_count[t] += 1
            if t in cfg.loop_heads and update_count[t] > _WIDEN_DELAY:
                envs[t] = env_widen(envs[t], env_join(envs[t], out))
            else:
                envs[t] = env_join(envs[t], out)
            if not queued[t]:
                queued[t] = True
                work.append(t)

    # narrowing: one in-order re-propagation, meeting with the fixpoint
    for t in _reverse_postorder(cfg):
        if t == cfg.entry:
            continue
        inflow = BOTTOM_ENV
        for m, label in cfg.pred[t]:
            inflow = env_join(inflow, transfer(cfg.nodes[m], envs[m], table, label))
        envs[t] = env_meet(envs[t], inflow)
    return AbsResult(envs, pops)


def _reverse_postorder(cfg: Cfg) -> list[int]:
    seen = set()
    order: list[int] = []

    def dfs(start: int):
        stack = [(start, iter([t for t, _ in cfg.succ[start]]))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if t not in seen:
                    seen.add(t)
                    stack.append((t, iter([u for u, _ in cfg.succ[t]])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    dfs(cfg.entry)
    order.reverse()
    return order


# ---------------------------------------------------------------------------
# Checks

def check_sites(cfg: Cfg) -> Iterator[tuple[CfgNode, ast.Expr, int | None]]:
    """(node, expression, array size) for each expression `interval_checks`
    reports on, in node and walk order: an index into a variable whose
    first declaration is `int[N]`, with size N, and a `/` or `%`, with
    size None."""
    types = cfg.table.types
    for nid, e in cfg.table.sites:
        if isinstance(e, ast.Binary):
            yield cfg.nodes[nid], e, None
        elif isinstance(ty := types.get(e.base.name), ast.ArrayInt):
            yield cfg.nodes[nid], e, ty.size


def interval_checks(cfg: Cfg, result: AbsResult) -> list[Diagnostic]:
    """Array-bound and divisor checks from the interval fixpoint.

    Certainly-failing operations are confirmed, with their check's
    severity in `ANALYSIS_CHECKS`; possibly-failing ones are warnings left
    unconfirmed.  Nodes with a Bottom environment are unreachable and
    produce nothing.  A site is read with the `escaped` names dropped at a
    user-call node, as `transfer` drops them, but not at a write through a
    pointer, which happens after its operands are read.
    """
    table = cfg.table
    out: list[Diagnostic] = []
    for node, e, size in check_sites(cfg):
        env = result.at(node.id)
        if env.is_bottom:
            continue
        if node.id in table.user_calls:
            env = env.drop(table.escaped)
        if size is not None:
            idx = eval_expr(e.index, env)
            if idx.empty:
                continue
            bound = Interval(0, size - 1)
            check_id, array = BUFFER_OVERRUN, f"'int {e.base.name}[{size}]'"
            if meet(idx, bound).empty:
                provable, message = True, f"index {idx!r} is outside {array}"
            elif not interval_leq(idx, bound):
                provable, message = False, f"index {idx!r} may fall outside {array}"
            else:
                continue
        else:
            dv = eval_expr(e.right, env)
            if dv.empty:
                continue
            check_id = DIV_BY_ZERO
            if dv.is_const() and dv.lo == 0:
                provable, message = True, "division by zero"
            elif dv.contains(0):
                provable, message = False, "possible division by zero"
            else:
                continue
        out.append(Diagnostic(
            check_id, ANALYSIS_CHECKS[check_id][0] if provable else "warning", e.loc,
            message, cfg.function, CONFIRMED if provable else UNCONFIRMED))
    return out

"""Concrete MiniC interpreter used as a test oracle.

Executes the AST with real C-like semantics: truncating division,
zero-initialized globals, a heap with allocation states, and runtime
detection of the bug classes the analyzer reports (double free, reads of
freed or uninitialized storage, null dereference, out-of-bounds indexing,
division by zero, leaked allocations).

An observer callback fires at every statement/condition entry with the
current integer-variable valuation and the matching CFG node id; the
interval-soundness tests compare these against the abstract fixpoint.
Faulty operations record an event and continue with a neutral value so one
bug does not mask another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ctl_lint import frontend as ast
from ctl_lint.cfg import Cfg, build_cfg


class InterpError(Exception):
    pass


class StepBudgetExceeded(InterpError):
    pass


@dataclass
class Event:
    kind: str  # double-free | use-after-free | null-deref | uninit-read
    #           | buffer-overrun | div-by-zero | leak | bad-free | bad-deref
    var: str | None
    function: str
    loc: ast.SourceLocation | None


class Scalar:
    """One storage cell. `value` is an int, a Pointer, or UNINIT."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Block:
    __slots__ = ("cells", "freed")

    def __init__(self, cells):
        self.cells = cells
        self.freed = False


@dataclass
class Pointer:
    container: object  # Scalar or list of values
    offset: int = 0
    block: Block | None = None  # set for heap pointers (freeable)

    def shifted(self, delta: int) -> "Pointer":
        return Pointer(self.container, self.offset + delta, self.block)

    def same_target(self, other: "Pointer") -> bool:
        return self.container is other.container and self.offset == other.offset


UNINIT = object()


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def tdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def tmod(a: int, b: int) -> int:
    return a - b * tdiv(a, b)


def node_of_fragment(cfg: Cfg) -> dict[int, int]:
    """Map id(ast node) -> cfg node id, for statements and cond expressions."""
    out: dict[int, int] = {}
    for n in cfg.nodes:
        if n.stmt is not None:
            out[id(n.stmt)] = n.id
        if n.expr is not None:
            out[id(n.expr)] = n.id
    return out


@dataclass
class _Frame:
    function: str
    fragments: dict[int, int] | None  # node_of_fragment of its CFG
    scopes: list = field(default_factory=lambda: [{}])
    allocs: list = field(default_factory=list)  # (varname|None, Block, loc)


class Interpreter:
    def __init__(self, tu: ast.TranslationUnit, step_budget: int = 500_000,
                 observer=None):
        self.tu = tu
        self.funcs = {f.name: f for f in tu.functions}
        self.fragments = {f.name: node_of_fragment(build_cfg(f, tu.globals))
                          for f in tu.functions}
        self.step_budget = step_budget
        self.observer = observer
        self.events: list[Event] = []
        self.steps = 0
        self.depth = 0
        self.globals: dict[str, object] = {}
        self._init_globals()

    def _init_globals(self) -> None:
        for g in self.tu.globals:  # C zero-initializes globals
            if isinstance(g.type, ast.ArrayInt):
                self.globals[g.name] = [0] * g.type.size
            else:
                self.globals[g.name] = Scalar(0)
        frame = _Frame("<global-init>", None)
        for g in self.tu.globals:
            if g.init is not None and not isinstance(g.type, ast.ArrayInt):
                self.globals[g.name].value = self._eval(g.init, frame)

    def run(self, name: str, args: tuple[int, ...] = ()):
        return self._call(name, [int(a) for a in args])

    def event_kinds(self) -> set[str]:
        return {e.kind for e in self.events}

    # -- plumbing

    def _emit(self, kind, var, func, loc) -> None:
        self.events.append(Event(kind, var, func, loc))

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise StepBudgetExceeded(f"exceeded {self.step_budget} steps")

    def _call(self, name: str, args: list):
        f = self.funcs.get(name)
        if f is None:
            raise InterpError(f"call to unknown function {name}")
        if self.depth > 96:
            raise InterpError("call depth exceeded")
        if len(args) != len(f.params):
            raise InterpError(f"arity mismatch calling {name}")
        frame = _Frame(name, self.fragments[name])
        for prm, value in zip(f.params, args):
            frame.scopes[-1][prm.name] = Scalar(value)
        self.depth += 1
        try:
            self._exec_block(f.body, frame, new_scope=False)
            result = None
        except _Return as r:
            result = r.value
        finally:
            self.depth -= 1
        for var, block, loc in frame.allocs:
            escaped = isinstance(result, Pointer) and result.block is block
            if not block.freed and not escaped:
                self._emit("leak", var, name, loc)
        return result

    def _observe(self, frame: _Frame, fragment) -> None:
        if self.observer is None or frame.fragments is None:
            return
        node = frame.fragments.get(id(fragment))
        if node is None:
            return
        snapshot: dict[str, int] = {}
        for name, storage in self.globals.items():
            if isinstance(storage, Scalar) and isinstance(storage.value, int):
                snapshot[name] = storage.value
        for scope in frame.scopes:
            for name, storage in scope.items():
                if isinstance(storage, Scalar) and isinstance(storage.value, int):
                    snapshot[name] = storage.value
                else:
                    snapshot.pop(name, None)
        self.observer(frame.function, node, snapshot)

    def _lookup(self, frame: _Frame, name: str):
        for scope in reversed(frame.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise InterpError(f"undefined variable {name}")

    # -- statements

    def _exec_block(self, block: ast.Block, frame: _Frame, new_scope: bool = True):
        if new_scope:
            frame.scopes.append({})
        try:
            for s in block.stmts:
                self._exec(s, frame)
        finally:
            if new_scope:
                frame.scopes.pop()

    def _exec_scoped(self, s: ast.Stmt, frame: _Frame):
        if isinstance(s, ast.Block):
            self._exec_block(s, frame)
        else:
            frame.scopes.append({})
            try:
                self._exec(s, frame)
            finally:
                frame.scopes.pop()

    def _exec(self, s: ast.Stmt, frame: _Frame):
        self._tick()
        self._observe(frame, s)
        if isinstance(s, ast.VarDecl):
            if isinstance(s.type, ast.ArrayInt):
                frame.scopes[-1][s.name] = [UNINIT] * s.type.size
            else:
                value = self._eval(s.init, frame) if s.init is not None else UNINIT
                frame.scopes[-1][s.name] = Scalar(value)
                self._note_alloc(s.init, s.name, frame)
        elif isinstance(s, ast.Assign):
            value = self._eval(s.value, frame)
            if isinstance(s.target, ast.Var):
                self._lookup_scalar(frame, s.target, write=True).value = value
                self._note_alloc(s.value, s.target.name, frame)
            else:
                place = self._locate(s.target, frame)
                if place is not None:
                    container, idx = place
                    if isinstance(container, Scalar):
                        container.value = value
                    else:
                        container[idx] = value
        elif isinstance(s, ast.If):
            if self._cond(s.cond, frame):
                self._exec_scoped(s.then, frame)
            elif s.orelse is not None:
                self._exec_scoped(s.orelse, frame)
        elif isinstance(s, ast.While):
            while self._cond(s.cond, frame):
                try:
                    self._exec_scoped(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(s, ast.For):
            frame.scopes.append({})
            try:
                if s.init is not None:
                    self._exec(s.init, frame)
                while s.cond is None or self._cond(s.cond, frame):
                    try:
                        self._exec_scoped(s.body, frame)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if s.step is not None:
                        self._exec(s.step, frame)
            finally:
                frame.scopes.pop()
        elif isinstance(s, ast.Return):
            raise _Return(self._eval(s.value, frame) if s.value is not None else None)
        elif isinstance(s, ast.ExprStmt):
            self._eval(s.expr, frame)
        elif isinstance(s, ast.Block):
            self._exec_block(s, frame)
        elif isinstance(s, ast.Break):
            raise _Break()
        elif isinstance(s, ast.Continue):
            raise _Continue()
        else:
            raise InterpError(f"unhandled statement {s!r}")

    def _note_alloc(self, rhs: ast.Expr | None, var: str, frame: _Frame) -> None:
        # remember which variable received a fresh allocation, for leak events
        if isinstance(rhs, ast.Call) and rhs.name == "malloc" and frame.allocs:
            name, block, loc = frame.allocs[-1]
            if name is None:
                frame.allocs[-1] = (var, block, loc)

    def _lookup_scalar(self, frame: _Frame, var: ast.Var, write: bool = False) -> Scalar:
        storage = self._lookup(frame, var.name)
        if not isinstance(storage, Scalar):
            raise InterpError(f"array {var.name} used as a scalar")
        return storage

    def _cond(self, e: ast.Expr, frame: _Frame) -> bool:
        """Short-circuit evaluation, observing at each atomic condition to
        mirror the CFG's condition expansion."""
        self._tick()
        if isinstance(e, ast.Binary) and e.op == "&&":
            return self._cond(e.left, frame) and self._cond(e.right, frame)
        if isinstance(e, ast.Binary) and e.op == "||":
            return self._cond(e.left, frame) or self._cond(e.right, frame)
        if isinstance(e, ast.Unary) and e.op == "!":
            return not self._cond(e.operand, frame)
        self._observe(frame, e)
        return self._truthy(self._eval(e, frame))

    @staticmethod
    def _truthy(v) -> bool:
        return True if isinstance(v, Pointer) else bool(v)

    # -- lvalues

    def _locate(self, e: ast.Expr, frame: _Frame):
        """Resolve *p or a[i] to (container, index) or None after a fault."""
        if isinstance(e, ast.Unary) and e.op == "*":
            var = e.operand.name if isinstance(e.operand, ast.Var) else None
            return self._deref(self._eval(e.operand, frame), 0, var, frame, e.loc)
        if isinstance(e, ast.Index):
            idx = self._eval(e.index, frame)
            if isinstance(idx, Pointer):
                raise InterpError("pointer used as an index")
            var = e.base.name if isinstance(e.base, ast.Var) else None
            if isinstance(e.base, ast.Var):
                storage = self._lookup(frame, e.base.name)
                if isinstance(storage, list):  # direct array storage
                    if idx < 0 or idx >= len(storage):
                        self._emit("buffer-overrun", var, frame.function, e.loc)
                        return None
                    return storage, idx
            return self._deref(self._eval(e.base, frame), idx, var, frame, e.loc)
        raise InterpError(f"not an lvalue: {e!r}")

    def _deref(self, base, idx: int, var, frame: _Frame, loc):
        if isinstance(base, int):
            self._emit("null-deref" if base == 0 else "bad-deref", var, frame.function, loc)
            return None
        if not isinstance(base, Pointer):
            raise InterpError(f"cannot dereference {base!r}")
        if base.block is not None and base.block.freed:
            self._emit("use-after-free", var, frame.function, loc)
            return None
        if isinstance(base.container, Scalar):
            if base.offset + idx != 0:
                self._emit("buffer-overrun", var, frame.function, loc)
                return None
            return base.container, 0
        pos = base.offset + idx
        if pos < 0 or pos >= len(base.container):
            self._emit("buffer-overrun", var, frame.function, loc)
            return None
        return base.container, pos

    # -- expressions

    def _eval(self, e: ast.Expr, frame: _Frame):
        self._tick()
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.Var):
            storage = self._lookup(frame, e.name)
            if isinstance(storage, list):
                return Pointer(storage, 0)  # array decays to a pointer
            return self._read_scalar(storage, e.name, frame, e.loc)
        if isinstance(e, ast.Unary):
            if e.op == "&":
                if isinstance(e.operand, ast.Var):
                    return Pointer(self._lookup(frame, e.operand.name), 0)
                place = self._locate(e.operand, frame)
                if place is None:
                    return 0
                return Pointer(place[0], place[1] if isinstance(place[0], list) else 0)
            if e.op == "*":
                var = e.operand.name if isinstance(e.operand, ast.Var) else None
                place = self._deref(self._eval(e.operand, frame), 0, var, frame, e.loc)
                return self._read_place(place, var, frame, e.loc)
            v = self._eval(e.operand, frame)
            if e.op == "-":
                return -self._as_int(v)
            if e.op == "!":
                return 0 if self._truthy(v) else 1
            raise InterpError(f"unhandled unary {e.op}")
        if isinstance(e, ast.Binary):
            if e.op == "&&":
                if not self._truthy(self._eval(e.left, frame)):
                    return 0
                return 1 if self._truthy(self._eval(e.right, frame)) else 0
            if e.op == "||":
                if self._truthy(self._eval(e.left, frame)):
                    return 1
                return 1 if self._truthy(self._eval(e.right, frame)) else 0
            l = self._eval(e.left, frame)
            r = self._eval(e.right, frame)
            if isinstance(l, Pointer) or isinstance(r, Pointer):
                return self._pointer_binop(e.op, l, r)
            if e.op == "+":
                return self._guard_magnitude(l + r)
            if e.op == "-":
                return self._guard_magnitude(l - r)
            if e.op == "*":
                return self._guard_magnitude(l * r)
            if e.op in ("/", "%"):
                if r == 0:
                    self._emit("div-by-zero", None, frame.function, e.loc)
                    return 0
                return tdiv(l, r) if e.op == "/" else tmod(l, r)
            return 1 if self._int_cmp(e.op, l, r) else 0
        if isinstance(e, ast.Index):
            var = e.base.name if isinstance(e.base, ast.Var) else None
            place = self._locate(e, frame)
            return self._read_place(place, var, frame, e.loc, scalar_events=False)
        if isinstance(e, ast.Call):
            return self._eval_call(e, frame)
        raise InterpError(f"unhandled expression {e!r}")

    def _read_scalar(self, storage: Scalar, name: str, frame: _Frame, loc):
        v = storage.value
        if v is UNINIT:
            self._emit("uninit-read", name, frame.function, loc)
            return 0
        if isinstance(v, Pointer) and v.block is not None and v.block.freed:
            self._emit("use-after-free", name, frame.function, loc)
        return v

    def _read_place(self, place, var, frame: _Frame, loc, scalar_events: bool = True):
        if place is None:
            return 0
        container, idx = place
        v = container.value if isinstance(container, Scalar) else container[idx]
        if v is UNINIT:
            if scalar_events and isinstance(container, Scalar):
                self._emit("uninit-read", var, frame.function, loc)
            return 0  # uninitialized cell: arbitrary value
        return v

    @staticmethod
    def _int_cmp(op: str, l: int, r: int) -> bool:
        return {"<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r,
                "==": l == r, "!=": l != r}[op]

    def _pointer_binop(self, op: str, l, r):
        if op in ("==", "!="):
            if isinstance(l, Pointer) and isinstance(r, Pointer):
                eq = l.same_target(r)
            else:
                eq = False  # a Pointer value is never null; null is the int 0
            return (1 if eq else 0) if op == "==" else (0 if eq else 1)
        if op == "+" and isinstance(l, Pointer) and isinstance(r, int):
            return l.shifted(r)
        if op == "+" and isinstance(r, Pointer) and isinstance(l, int):
            return r.shifted(l)
        if op == "-" and isinstance(l, Pointer) and isinstance(r, int):
            return l.shifted(-r)
        raise InterpError(f"unsupported pointer operation {op}")

    def _as_int(self, v) -> int:
        if isinstance(v, Pointer):
            raise InterpError("pointer used as an integer")
        return v

    _MAGNITUDE_LIMIT = 1 << 4096

    def _guard_magnitude(self, v: int) -> int:
        # surfaces runaway value growth as an error instead of a bignum hang
        if v > self._MAGNITUDE_LIMIT or v < -self._MAGNITUDE_LIMIT:
            raise InterpError("integer magnitude exploded")
        return v

    def _eval_call(self, e: ast.Call, frame: _Frame):
        if e.name == "malloc":
            n = self._as_int(self._eval(e.args[0], frame))
            block = Block([UNINIT] * max(n, 1))
            frame.allocs.append((None, block, e.loc))
            return Pointer(block.cells, 0, block)
        if e.name == "free":
            var = e.args[0].name if isinstance(e.args[0], ast.Var) else None
            target = self._eval(e.args[0], frame)
            if isinstance(target, int):
                if target != 0:
                    self._emit("bad-free", var, frame.function, e.loc)
                return 0  # free(NULL) is a no-op
            if target.block is None or target.offset != 0:
                self._emit("bad-free", var, frame.function, e.loc)
                return 0
            if target.block.freed:
                self._emit("double-free", var, frame.function, e.loc)
                return 0
            target.block.freed = True
            return 0
        args = [self._eval(a, frame) for a in e.args]
        return self._call(e.name, args)


def run_program(source: str, func: str, args: tuple[int, ...] = (),
                observer=None, step_budget: int = 500_000) -> Interpreter:
    """Parse, execute and return the interpreter with its event log."""
    tu = ast.parse(source, "<test>")
    errors = ast.check_well_formed(tu)
    if errors:
        raise InterpError(f"not well-formed: {errors[0]}")
    interp = Interpreter(tu, step_budget, observer)
    interp.run(func, args)
    return interp

"""Counterexample feasibility refinement.

A witness trace is compiled into linear path constraints by symbolic
execution: a store maps each variable to an affine form over symbols.  A
name never written is its own symbol (its value on entry); a linear write
sets its target's form, and anything nonlinear or unknown, or a product
whose numbers outgrow the longest literal, gives the target a fresh
symbol.  A node that may change variables it does not name, one of
the node table's `clobbers` (a user call, or a write through a pointer),
gives every `escaped` name (the globals and the address-taken names) a
fresh symbol, as the interval analysis drops the same names there.  Only
branch guards add constraints: comparisons substituted through the store,
with equalities only from `==` and from the false edge of a truth-value
guard.  The conjunction is then tested for rational satisfiability by
Fourier-Motzkin elimination.  Coefficients and constants are ints, and
stay ints; the arithmetic is generic, so rational (`Fraction`) input works
alike.  An Infeasible verdict is trusted (rational emptiness implies
integer emptiness, and dropped constraints only over-approximate), so a
diagnostic is suppressed only when the enumeration ran to exhaustion and
every witness it found is infeasible; a search cut short leaves it
unconfirmed.

Feasible verdicts over-approximate twice, by design: fresh symbols are
unconstrained, and integer tightening is not performed, so a path that is
rationally but not integrally satisfiable still confirms its diagnostic.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import NamedTuple

from . import frontend as ast
from .cfg import COND, Cfg, FALSE, NEGATED, TRUE
from .ctl import (
    And, CtlFormula, EF, EX, Or, SatSets, TrueF, check, is_propositional, witness,
)
from .diagnostics import CONFIRMED, UNCONFIRMED
from .speclang import CheckTask

EQ, LE, LT = "=", "<=", "<"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"


class PathConstraint(NamedTuple):
    """Sum of coeff*symbol  (= | <= | <)  constant.  A symbol is a
    variable's value on entry (`x`), or a fresh value given at trace
    position i by a nonlinear write (`x@i`) or a clobber (`x@i'`)."""

    terms: tuple[tuple[str, int], ...]  # sorted by variable, no zero coefficient
    op: str  # EQ | LE | LT
    rhs: int

    def __str__(self) -> str:
        if not self.terms:
            lhs = "0"
        else:
            lhs = " + ".join(f"{c}*{v}" if c != 1 else v for v, c in self.terms)
        return f"{lhs} {self.op} {self.rhs}"


class FeasibilityVerdict(NamedTuple):
    kind: str  # FEASIBLE | INFEASIBLE | UNKNOWN
    reason: str | None = None  # for UNKNOWN: "budget"


Feasible = FeasibilityVerdict(FEASIBLE)
Infeasible = FeasibilityVerdict(INFEASIBLE)


def _constraint(terms: dict[str, int], op: str, rhs: int) -> PathConstraint:
    return PathConstraint(tuple(sorted((v, c) for v, c in terms.items() if c != 0)), op, rhs)


# ---------------------------------------------------------------------------
# Trace -> constraints

Form = tuple[dict[str, int], int]  # sum of coeff*symbol, plus a constant


def _linear(e: ast.Expr, store: dict[str, Form]) -> Form | None:
    """Affine form of an expression over the store's symbols, or None.
    A name the store does not hold is its own symbol."""
    if isinstance(e, ast.IntLit):
        return {}, e.value
    if isinstance(e, ast.Var):
        return store[e.name] if e.name in store else ({e.name: 1}, 0)
    if isinstance(e, ast.Unary) and e.op == "-":
        sub = _linear(e.operand, store)
        if sub is None:
            return None
        terms, c = sub
        return {k: -x for k, x in terms.items()}, -c
    if isinstance(e, ast.Binary) and e.op in ("+", "-"):
        l = _linear(e.left, store)
        r = _linear(e.right, store)
        if l is None or r is None:
            return None
        lt, lc = l
        rt, rc = r
        sign = 1 if e.op == "+" else -1
        out = dict(lt)
        for k, x in rt.items():
            out[k] = out.get(k, 0) + sign * x
        return {k: x for k, x in out.items() if x}, lc + sign * rc
    if isinstance(e, ast.Binary) and e.op == "*":
        l = _linear(e.left, store)
        r = _linear(e.right, store)
        if l is None or r is None:
            return None
        lt, lc = l
        rt, rc = r
        if lt and rt:
            return None
        (terms, c), k = (r, lc) if not lt else (l, rc)
        out = {v: k * x for v, x in terms.items()} if k else {}
        if any(abs(x) > ast.MAX_MAGNITUDE for x in (k * c, *out.values())):
            return None  # squaring could grow it without bound; dropping is sound
        return out, k * c
    return None  # division, modulo, comparisons, calls, derefs: nonlinear


_CMP_TRUE = {
    # l ? r rewritten as (l - r) op 0
    "<": (LT, False), "<=": (LE, False), ">": (LT, True), ">=": (LE, True),
}


def path_constraints(trace: tuple[int, ...], cfg: Cfg) -> list[PathConstraint]:
    """Linear constraints implied by walking the trace's states, one at
    most per labelled guard edge, over the symbols of the store.  Strict
    integer guards stay strict over the rationals.
    """
    table = cfg.table
    store: dict[str, Form] = {}
    out: list[PathConstraint] = []
    for i, sid in enumerate(trace):
        node = cfg.nodes[sid]
        nxt = trace[i + 1] if i + 1 < len(trace) else None
        if sid in table.clobbers:
            for name in table.escaped:
                store[name] = {f"{name}@{i}'": 1}, 0
        if sid in table.writes:
            target, rhs = table.writes[sid]
            lin = _linear(rhs, store) if rhs is not None else None
            store[target] = lin if lin is not None else ({f"{target}@{i}": 1}, 0)
        elif node.kind == COND and nxt is not None:
            label = _edge_label(cfg, sid, nxt)
            if label is None:
                continue
            c = _guard_constraint(node.expr, label, store)
            if c is not None:
                out.append(c)
    return out


def _edge_label(cfg: Cfg, a: int, b: int) -> str | None:
    labels = [lab for t, lab in cfg.succ[a] if t == b]
    if not labels:
        return None
    if TRUE in labels and FALSE in labels:
        return None  # both branches join at the same node: guard is vacuous
    return labels[0]


def _guard_constraint(e: ast.Expr, branch: str, store: dict[str, Form]) -> PathConstraint | None:
    if isinstance(e, ast.Binary) and e.op in ("<", "<=", ">", ">=", "==", "!="):
        op = e.op if branch == TRUE else NEGATED[e.op]
        if op == "!=":
            return None  # not expressible as a convex constraint
        l = _linear(e.left, store)
        r = _linear(e.right, store)
        if l is None or r is None:
            return None
        lt, lc = l
        rt, rc = r
        diff = dict(lt)
        for k, x in rt.items():
            diff[k] = diff.get(k, 0) - x
        rhs = rc - lc
        if op == "==":
            return _constraint(diff, EQ, rhs)
        cmp_op, flip = _CMP_TRUE[op]
        if flip:
            diff = {k: -x for k, x in diff.items()}
            rhs = -rhs
        return _constraint(diff, cmp_op, rhs)
    # truth-value guard: the false branch pins a linear expression to 0
    lin = _linear(e, store)
    if lin is None:
        return None
    terms, c = lin
    if branch == FALSE:
        return _constraint(terms, EQ, -c)
    if not terms and c == 0:
        # constant-zero guard taken on its true edge: impossible path
        return _constraint({}, LT, 0)
    return None


# ---------------------------------------------------------------------------
# Fourier-Motzkin over the rationals

DEFAULT_FM_BUDGET = 20_000


def feasible(cs: list[PathConstraint], budget: int = DEFAULT_FM_BUDGET) -> FeasibilityVerdict:
    """Rational satisfiability of a constraint conjunction.

    An equality is split into two `<=` rows; then variables are
    eliminated pairwise, cheapest first.  When the remaining
    variable-count x constraint-count product exceeds `budget`, gives up
    with Unknown(budget).
    """
    ineqs = []
    for c in cs:
        if c.op == EQ:
            ineqs.append(PathConstraint(c.terms, LE, c.rhs))
            c = PathConstraint(tuple((v, -x) for v, x in c.terms), LE, -c.rhs)
        ineqs.append(c)
    ineqs = _dedup(ineqs)
    while True:
        ground_bad = any(_ground_violated(c) for c in ineqs if not c.terms)
        if ground_bad:
            return Infeasible
        ineqs = [c for c in ineqs if c.terms]
        variables = sorted({v for c in ineqs for v, _ in c.terms})
        if not variables:
            return Feasible
        if len(variables) * len(ineqs) > budget:
            return FeasibilityVerdict(UNKNOWN, "budget")
        var = min(variables, key=lambda v: (_elim_cost(ineqs, v), v))
        pos = [c for c in ineqs if _coef(c, var) > 0]
        neg = [c for c in ineqs if _coef(c, var) < 0]
        rest = [c for c in ineqs if _coef(c, var) == 0]
        if not pos or not neg:
            ineqs = rest  # var unbounded on one side: always satisfiable
            continue
        for p in pos:
            a = _coef(p, var)
            for q in neg:
                b = -_coef(q, var)
                terms: dict[str, int] = {}
                for k, x in p.terms:
                    terms[k] = terms.get(k, 0) + b * x
                for k, x in q.terms:
                    terms[k] = terms.get(k, 0) + a * x
                op = LT if LT in (p.op, q.op) else LE
                rest.append(_constraint(terms, op, b * p.rhs + a * q.rhs))
        ineqs = _dedup(rest)


def _coef(c: PathConstraint, var: str) -> int:
    for v, x in c.terms:
        if v == var:
            return x
    return 0


def _elim_cost(cs: list[PathConstraint], var: str) -> int:
    pos = sum(1 for c in cs if _coef(c, var) > 0)
    neg = sum(1 for c in cs if _coef(c, var) < 0)
    return pos * neg


def _dedup(cs: list[PathConstraint]) -> list[PathConstraint]:
    seen = set()
    out = []
    for c in cs:
        key = (c.terms, c.op, c.rhs)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _ground_violated(c: PathConstraint) -> bool:
    return c.rhs < 0 if c.op == LE else c.rhs <= 0


# ---------------------------------------------------------------------------
# Witness enumeration

class _Phase(ast.Value):
    """A state of the obligation automaton `_compile_obligations` builds;
    `nxt`, `a` and `b` are the indices of the phases that follow it."""

    __slots__ = ()


class _Gate(_Phase):
    __slots__ = _fields = ("nxt",)


class _Step(_Phase):
    __slots__ = _fields = ("nxt",)


class _Stay(_Phase):
    __slots__ = _fields = ("prop", "nxt")


class _Split(_Phase):
    __slots__ = _fields = ("a", "b")


class _Accept(_Phase):
    __slots__ = ()


def _compile_obligations(f: CtlFormula, phases: list, forms: list[CtlFormula]) -> int:
    """Obligation automaton of a formula in the fragment `is_witnessable`
    defines: linear EX/EU/EF chains, split at each Or.  `forms[i]` is the
    sub-formula phase `phases[i]` must complete."""
    if is_propositional(f):
        phase = _Accept()
    elif isinstance(f, And):
        temporal = f.right if is_propositional(f.left) else f.left
        phase = _Gate(_compile_obligations(temporal, phases, forms))
    elif isinstance(f, Or):
        phase = _Split(_compile_obligations(f.left, phases, forms),
                       _compile_obligations(f.right, phases, forms))
    elif isinstance(f, EX):
        phase = _Step(_compile_obligations(f.sub, phases, forms))
    elif isinstance(f, EF):
        phase = _Stay(TrueF(), _compile_obligations(f.sub, phases, forms))
    else:  # E[p U g], p propositional
        phase = _Stay(f.left, _compile_obligations(f.right, phases, forms))
    phases.append(phase)
    forms.append(f)
    return len(phases) - 1


DEFAULT_ENUM_BUDGET = 4_000


def enumerate_witnesses(task_kripke, formula: CtlFormula, start: int, limit: int,
                        sat: SatSets | None = None,
                        budget: int = DEFAULT_ENUM_BUDGET,
                        stop: Callable[[tuple[int, ...]], bool] | None = None,
                        ) -> tuple[list[tuple[int, ...]], bool]:
    """Up to `limit` distinct finite witnesses, shortest first with
    lowest-state-id tie-breaks; second result reports whether enumeration
    ran to exhaustion: past `limit` the search goes on, unrecorded, until
    another distinct witness or the expansion budget ends it unexhausted.
    Only live entries are pushed, so only they count toward `budget`
    (`DEFAULT_ENUM_BUDGET` expansions): a path whose last state satisfies
    its phase's sub-formula, from where the phase can still be completed.
    Exhaustion thus means every such path was tried; a loop that can never
    end in a witness does not keep the search from ending.
    Distinct means differing in at least one edge; idling on self-loops
    is not a distinct witness.  `stop(trace)` is called on each witness
    as it is found; when it returns true, the search ends with that
    witness last.
    """
    phases: list = []
    forms: list[CtlFormula] = []
    entry = _compile_obligations(formula, phases, forms)
    sat = sat or check(task_kripke, formula)
    # live[i]: where phase i can still be completed; it lies within what
    # an _Accept or _Gate phase tests, so neither tests again
    live = [sat.states(f) for f in forms]
    holding = [sat.states(p.prop) if isinstance(p, _Stay) else None for p in phases]
    found: list[tuple[int, ...]] = []
    seen_traces: set[tuple[int, ...]] = set()
    heap: list[tuple[int, tuple[int, ...], int]] = (
        [(0, (start,), entry)] if start in live[entry] else [])
    visited: set[tuple[tuple[int, ...], int]] = set()
    expansions = 0
    while heap:
        steps, states, ph = heapq.heappop(heap)
        key = (states, ph)
        if key in visited:
            continue
        visited.add(key)
        expansions += 1
        if expansions > budget:
            return found, False
        state = states[-1]
        phase = phases[ph]
        if isinstance(phase, _Accept):
            if states not in seen_traces:
                if len(found) >= limit:
                    return found, False
                seen_traces.add(states)
                found.append(states)
                if stop is not None and stop(found[-1]):
                    break
            continue
        if isinstance(phase, _Gate):
            heapq.heappush(heap, (steps, states, phase.nxt))
            continue
        if isinstance(phase, _Split):
            for nxt in (phase.a, phase.b):
                if state in live[nxt]:
                    heapq.heappush(heap, (steps, states, nxt))
            continue
        if isinstance(phase, _Step):
            for t in task_kripke.succ[state]:
                if t in live[phase.nxt]:
                    heapq.heappush(heap, (steps + 1, states + (t,), phase.nxt))
            continue
        if isinstance(phase, _Stay):
            if state in live[phase.nxt]:
                heapq.heappush(heap, (steps, states, phase.nxt))
            if state in holding[ph]:
                for t in task_kripke.succ[state]:
                    # a product self-loop is idling and adds nothing
                    if t != state and t in live[ph]:
                        heapq.heappush(heap, (steps + 1, states + (t,), ph))
            continue
        raise AssertionError(phase)
    return found, not heap


# ---------------------------------------------------------------------------
# The refinement loop

SUPPRESSED = "suppressed"


def refine_diagnostic(task: CheckTask, cfg: Cfg, max_witnesses: int,
                      sat: SatSets | None = None) -> tuple[str, tuple[int, ...] | None]:
    """Feasibility-filter a satisfied check task: the verdict is the
    diagnostic's confidence, `CONFIRMED` or `UNCONFIRMED`, or `SUPPRESSED`.

    Enumerates up to `max_witnesses` distinct traces shortest-first and
    tests each as it is found: the first feasible one confirms the
    diagnostic and ends the search; if every enumerated trace is
    infeasible and enumeration was exhaustive, the diagnostic is
    suppressed; any Unknown, or an enumeration cut short by the witness
    budget or the expansion budget, leaves it unconfirmed instead.
    """
    sat = sat or check(task.kripke, task.formula)
    assert sat.holds(task.formula, cfg.entry), "refine requires a satisfied task"
    if max_witnesses <= 0:
        return UNCONFIRMED, witness(task.kripke, task.formula, cfg.entry, sat)
    kinds: list[str] = []

    def is_feasible(trace: tuple[int, ...]) -> bool:
        kinds.append(feasible(path_constraints(trace, cfg)).kind)
        return kinds[-1] == FEASIBLE

    traces, exhausted = enumerate_witnesses(
        task.kripke, task.formula, cfg.entry, max_witnesses, sat, stop=is_feasible)
    if not traces:
        return UNCONFIRMED, witness(task.kripke, task.formula, cfg.entry, sat)
    if kinds[-1] == FEASIBLE:
        return CONFIRMED, traces[-1]
    if UNKNOWN in kinds or not exhausted:
        return UNCONFIRMED, traces[0]
    return SUPPRESSED, None

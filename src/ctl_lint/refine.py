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
alike.

Refinement runs in rounds on one task, with the model checker as the only
source of witnesses.  A round tests the witness `ctl.witness` gives on the
current structure.  Feasible confirms the diagnostic and Unknown leaves it
unconfirmed.  An Infeasible verdict is trusted (rational emptiness implies
integer emptiness, and dropped constraints only over-approximate): the
constraints are shrunk to a minimal infeasible core, the structure is
replaced by its product with an observer that cuts every path repeating
the core, and the property is checked again.  Where it no longer holds at
the product's entry, the diagnostic is suppressed; when the rounds or the
state budget run out first, it is unconfirmed.

Feasible verdicts over-approximate twice, by design: fresh symbols are
unconstrained, and integer tightening is not performed, so a path that is
rationally but not integrally satisfiable still confirms its diagnostic.
"""

from __future__ import annotations

from typing import NamedTuple

from . import frontend as ast
from .cfg import COND, Cfg, FALSE, KripkeStructure, NEGATED, NodeTable, TRUE, predecessors
from .ctl import SatSets, check, witness
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


def path_constraints(trace: tuple[int, ...], cfg: Cfg) -> dict[int, PathConstraint]:
    """Linear constraints implied by walking the trace's states, over the
    symbols of the store, each keyed by the trace position of the guard
    whose labelled edge gives it (at most one per edge).  Strict integer
    guards stay strict over the rationals.
    """
    table = cfg.table
    store: dict[str, Form] = {}
    out: dict[int, PathConstraint] = {}
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
                out[i] = c
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


def feasible(cs: list[PathConstraint], budget: int = DEFAULT_FM_BUDGET) -> str:
    """Rational satisfiability of a constraint conjunction: `FEASIBLE`,
    `INFEASIBLE` or `UNKNOWN`.

    An equality is split into two `<=` rows; then variables are
    eliminated pairwise, cheapest first.  When the remaining
    variable-count x constraint-count product exceeds `budget`, gives up
    with `UNKNOWN`.
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
            return INFEASIBLE
        ineqs = [c for c in ineqs if c.terms]
        variables = sorted({v for c in ineqs for v, _ in c.terms})
        if not variables:
            return FEASIBLE
        if len(variables) * len(ineqs) > budget:
            return UNKNOWN
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
# The refinement loop

SUPPRESSED = "suppressed"
DEFAULT_ENUM_BUDGET = 10_000


def refine_diagnostic(task: CheckTask, cfg: Cfg, max_witnesses: int,
                      sat: SatSets | None = None) -> tuple[str, tuple[int, ...] | None]:
    """Feasibility-filter a satisfied check task: the verdict is the
    diagnostic's confidence, `CONFIRMED` or `UNCONFIRMED`, or `SUPPRESSED`;
    the trace is the confirming witness, or else the first one tested."""
    prop = task.check.prop
    sat = sat or check(task.kripke, prop)
    assert sat.holds(prop, cfg.entry), "refine requires a satisfied task"
    if max_witnesses <= 0:
        return UNCONFIRMED, witness(task.kripke, prop, cfg.entry, sat)
    traces, verdict = enumerate_witnesses(task, cfg, max_witnesses, sat)
    if verdict == SUPPRESSED:
        return SUPPRESSED, None
    return verdict, traces[-1] if verdict == CONFIRMED else traces[0]


def enumerate_witnesses(task: CheckTask, cfg: Cfg, rounds: int,
                        sat: SatSets) -> tuple[list[tuple[int, ...]], str]:
    """The witness each refinement round tested, and the verdict.  The
    diagnostic is unconfirmed after `rounds` rounds, or once the products
    have built more than `DEFAULT_ENUM_BUDGET` states in all."""
    prop, k, node_of, start = task.check.prop, task.kripke, range(task.kripke.n), cfg.entry
    budget = DEFAULT_ENUM_BUDGET
    traces: list[tuple[int, ...]] = []
    for _ in range(rounds):
        traces.append(tuple(node_of[s] for s in witness(k, prop, start, sat)))
        cs = path_constraints(traces[-1], cfg)
        kind = feasible(list(cs.values()))
        if kind != INFEASIBLE:
            return traces, CONFIRMED if kind == FEASIBLE else UNCONFIRMED
        product = _exclude(k, node_of, start, *_observer(traces[-1], _core(cs), cfg.table),
                           budget)
        if product is None:
            break
        k, node_of = product
        start = 0
        budget -= k.n
        sat = check(k, prop)
        if not sat.holds(prop, start):
            return traces, SUPPRESSED
    return traces, UNCONFIRMED


def _core(cs: dict[int, PathConstraint]) -> set[int]:
    """The positions of a minimal infeasible subset of infeasible
    constraints: each is deleted in turn, and stays out if the rest is
    still infeasible."""
    core = list(cs)
    for i in list(core):
        rest = [j for j in core if j != i]
        if feasible([cs[j] for j in rest]) == INFEASIBLE:
            core = rest
    return set(core)


def _observer(trace: tuple[int, ...], core: set[int],
              table: NodeTable) -> tuple[tuple, frozenset[int]]:
    """The events a path must pass, in order, to repeat the trace's core
    guards (each writer node it enters, each core guard edge (a, b) it
    takes), and the writers whose entry out of turn releases it.

    The needed variables are those the core guards read, closed under the
    right-hand sides of the trace's writes to them; the writers are the
    nodes that write one, and every clobber if an escaped name is needed.
    A path that passes the trace's writers up to the last core guard and
    the core guard edges in trace order, and no other writer, gets the
    core's constraints up to renaming of fresh symbols.
    """
    last = max(core)

    def uses(n: int) -> set[str]:
        return {v for name, v in table.facts[n] if name == "use"}

    needed = set().union(*(uses(trace[i]) for i in core))
    for n in reversed(trace[:last]):
        if n in table.writes and table.writes[n][0] in needed:
            needed |= uses(n)
    writers = {n for n, (target, _) in table.writes.items() if target in needed}
    if not needed.isdisjoint(table.escaped):
        writers |= table.clobbers
    events: list = []
    for i, n in enumerate(trace[:last + 1]):
        if n in writers:
            events.append(n)
        if i in core:
            events.append((n, trace[i + 1]))
    return tuple(events), frozenset(writers)


def _exclude(k: KripkeStructure, node_of: range | list[int], start: int, events: tuple,
             writers: frozenset[int], budget: int) -> tuple[KripkeStructure, list[int]] | None:
    """The product of `k` with an observer, from (`start`, 0) as state 0,
    and each state's CFG node; None past `budget` states.  A state of `k`
    is paired with the count of events seen, or -1 once a writer entered
    out of turn; the edge that completes the events is cut.
    """
    index = {(start, 0): 0}
    states = [(start, 0)]  # the entry is no writer
    succ: list[list[int]] = []
    for s, seen in states:  # grows as it is walked
        outs = []
        for t in k.succ[s]:
            at = seen
            if at >= 0:
                if events[at] == (node_of[s], node_of[t]):
                    at += 1
                    if at == len(events):
                        continue
                if node_of[t] in writers:
                    at = at + 1 if events[at] == node_of[t] else -1
            if (t, at) not in index:
                if len(states) >= budget:
                    return None
                index[t, at] = len(states)
                states.append((t, at))
            outs.append(index[t, at])
        succ.append(sorted(outs))
    props = {name: frozenset(i for i, (s, _) in enumerate(states) if s in held)
             for name, held in k.props.items()}
    return (KripkeStructure(succ, predecessors(succ), props),
            [node_of[s] for s, _ in states])

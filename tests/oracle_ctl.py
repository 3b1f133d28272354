"""Independent CTL semantics for cross-checking the fixpoint checker.

`sat_oracle` evaluates formulas by bounded forward path enumeration with
memoization: an EU witness needs at most |S| states.  No fixpoints, no backward worklists, so agreement with the
production checker is meaningful evidence.

`trace_demonstrates` judges whether a concrete trace is self-contained
evidence for an existential formula, used to validate extracted witnesses.
"""

from __future__ import annotations

import random

from ctl_lint.cfg import KripkeStructure, predecessors
from ctl_lint.ctl import (
    And, CtlFormula, EF, EU, EX, Implies, Not, Or, Prop, is_propositional,
)

# holds in every state: no state carries the empty label
TOP = Not(Prop(""))


def kripke(succ: list[list[int]], labels) -> KripkeStructure:
    """A structure from successor lists and each state's label names; a
    state may have no successor."""
    props: dict[str, set[int]] = {}
    for s, names in enumerate(labels):
        for name in names:
            props.setdefault(name, set()).add(s)
    return KripkeStructure(succ, predecessors(succ),
                           {name: frozenset(states) for name, states in props.items()})


def reverse(k: KripkeStructure) -> KripkeStructure:
    """Flip all transitions; self-loops keep the reversed relation total."""
    succ = [outs or [s] for s, outs in enumerate(k.pred)]
    return KripkeStructure(succ, predecessors(succ), k.props)


def sat_oracle(k: KripkeStructure, f: CtlFormula, s: int,
               memo: dict | None = None) -> bool:
    memo = memo if memo is not None else {}
    return _sat(k, f, s, memo)


def _sat(k: KripkeStructure, f: CtlFormula, s: int, memo: dict) -> bool:
    key = (f, s)
    got = memo.get(key)
    if got is not None:
        return got
    n = k.n
    if isinstance(f, Prop):
        result = s in k.props.get(f.name, ())
    elif isinstance(f, Not):
        result = not _sat(k, f.sub, s, memo)
    elif isinstance(f, And):
        result = _sat(k, f.left, s, memo) and _sat(k, f.right, s, memo)
    elif isinstance(f, Or):
        result = _sat(k, f.left, s, memo) or _sat(k, f.right, s, memo)
    elif isinstance(f, Implies):
        result = (not _sat(k, f.left, s, memo)) or _sat(k, f.right, s, memo)
    elif isinstance(f, EX):
        result = any(_sat(k, f.sub, t, memo) for t in k.succ[s])
    elif isinstance(f, EF):
        result = _eu_bounded(k, TOP, f.sub, s, n, memo)
    elif isinstance(f, EU):
        result = _eu_bounded(k, f.left, f.right, s, n, memo)
    else:
        raise TypeError(f)
    memo[key] = result
    return result


def _eu_bounded(k, left, right, s, d, memo) -> bool:
    # a shortest E[left U right] witness visits at most |S| states
    key = ("EU", left, right, s, d)
    got = memo.get(key)
    if got is not None:
        return got
    if _sat(k, right, s, memo):
        result = True
    elif d == 0 or not _sat(k, left, s, memo):
        result = False
    else:
        result = any(_eu_bounded(k, left, right, t, d - 1, memo) for t in k.succ[s])
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Witness validation

def edge_valid(k: KripkeStructure, trace: tuple[int, ...]) -> bool:
    return all(b in k.succ[a] for a, b in zip(trace, trace[1:]))


def trace_demonstrates(k: KripkeStructure, f: CtlFormula, trace: tuple[int, ...]) -> bool:
    """Is the trace, the tuple of a path's states, self-contained evidence
    for f at its first state?

    Only the states listed in the trace may be used; propositional facts
    are read from labels, temporal obligations must be discharged along
    the trace itself.
    """

    def state_sat(g: CtlFormula, state: int) -> bool:
        if isinstance(g, Prop):
            return state in k.props.get(g.name, ())
        if isinstance(g, Not):
            return not state_sat(g.sub, state)
        if isinstance(g, And):
            return state_sat(g.left, state) and state_sat(g.right, state)
        if isinstance(g, Or):
            return state_sat(g.left, state) or state_sat(g.right, state)
        if isinstance(g, Implies):
            return (not state_sat(g.left, state)) or state_sat(g.right, state)
        raise TypeError(g)

    def demo(i: int, g: CtlFormula) -> bool:
        if i >= len(trace):
            return False
        if is_propositional(g):
            return state_sat(g, trace[i])
        if isinstance(g, And):
            return demo(i, g.left) and demo(i, g.right)
        if isinstance(g, Or):
            return demo(i, g.left) or demo(i, g.right)
        if isinstance(g, EX):
            return demo(i + 1, g.sub)
        if isinstance(g, EF):
            return any(demo(j, g.sub) for j in range(i, len(trace)))
        if isinstance(g, EU):
            if demo(i, g.right):
                return True
            if not is_propositional(g.left):
                return False  # non-propositional left: only immediate discharge
            for j in range(i + 1, len(trace)):
                if all(state_sat(g.left, trace[m]) for m in range(i, j)) \
                        and demo(j, g.right):
                    return True
            return False
        return False

    return demo(0, f)


# ---------------------------------------------------------------------------
# Random structures and formulas

def random_kripke(rng: random.Random, max_states: int = 8,
                  props: tuple[str, ...] = ("p", "q", "r"),
                  dead_ends: bool = False) -> KripkeStructure:
    """A random structure; with `dead_ends`, a state may have no successor,
    and otherwise one without is given a self-loop."""
    n = rng.randint(1, max_states)
    density = rng.uniform(0.1, 0.9)
    succ: list[list[int]] = []
    for s in range(n):
        outs = sorted(t for t in range(n) if rng.random() < density)
        if not outs and not dead_ends:
            outs = [s]
        succ.append(outs)
    labels = [frozenset(p for p in props if rng.random() < 0.4) for _ in range(n)]
    return kripke(succ, labels)


def random_formula(rng: random.Random, props: tuple[str, ...] = ("p", "q", "r"),
                   depth: int = 3) -> CtlFormula:
    """A random formula.  The universal shapes AX and AG are drawn as
    their existential duals, so negated EX and EF are exercised too."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.12:
            return TOP
        return Prop(rng.choice(props))
    op = rng.choice(("not", "and", "or", "implies", "AX", "EX", "EF", "AG", "EU"))
    sub = lambda: random_formula(rng, props, depth - 1)
    if op == "not":
        return Not(sub())
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return Or(sub(), sub())
    if op == "implies":
        return Implies(sub(), sub())
    if op == "AX":
        return Not(EX(Not(sub())))
    if op == "EX":
        return EX(sub())
    if op == "EF":
        return EF(sub())
    if op == "AG":
        return Not(EF(Not(sub())))
    return EU(sub(), sub())

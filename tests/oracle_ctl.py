"""Independent CTL semantics for cross-checking the fixpoint checker.

`sat_oracle` evaluates formulas by bounded forward path enumeration with
memoization: an EU witness needs at most |S| states and an EG lasso at
most 2|S|.  No fixpoints, no backward worklists, so agreement with the
production checker is meaningful evidence.

`trace_demonstrates` judges whether a concrete trace is self-contained
evidence for an existential formula, used to validate extracted witnesses.
"""

from __future__ import annotations

import random

from ctl_lint.cfg import KripkeStructure, predecessors
from ctl_lint.ctl import (
    And, CtlFormula, EF, EG, EU, EX, Implies, Not, Or, Prop, TrueF, WitnessTrace,
    is_propositional,
)


def kripke(succ: list[list[int]], labels) -> KripkeStructure:
    """A structure from successor lists and each state's label names."""
    assert all(succ), "the transition relation must be total"
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
    if isinstance(f, TrueF):
        result = True
    elif isinstance(f, Prop):
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
        result = _eu_bounded(k, TrueF(), f.sub, s, n, memo)
    elif isinstance(f, EU):
        result = _eu_bounded(k, f.left, f.right, s, n, memo)
    elif isinstance(f, EG):
        result = _eg_bounded(k, f.sub, s, 2 * n, memo)
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


def _eg_bounded(k, body, s, d, memo) -> bool:
    # a body-only path of length 2|S| must revisit a state, closing a lasso
    key = ("EG", body, s, d)
    got = memo.get(key)
    if got is not None:
        return got
    if not _sat(k, body, s, memo):
        result = False
    elif d == 0:
        result = True
    else:
        result = any(_eg_bounded(k, body, t, d - 1, memo) for t in k.succ[s])
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Witness validation

def edge_list(trace: WitnessTrace) -> list[tuple[int, int]]:
    """The trace's transitions, a lasso's closing one last."""
    edges = list(zip(trace.states, trace.states[1:]))
    if trace.cycle_start is not None:
        edges.append((trace.states[-1], trace.states[trace.cycle_start]))
    return edges


def edge_valid(k: KripkeStructure, trace: WitnessTrace) -> bool:
    for a, b in edge_list(trace):
        if b not in k.succ[a]:
            return False
    return True


def trace_demonstrates(k: KripkeStructure, f: CtlFormula, trace: WitnessTrace) -> bool:
    """Is the trace self-contained evidence for f at its first state?

    Only the states listed in the trace may be used; propositional facts
    are read from labels, temporal obligations must be discharged along
    the trace itself (around the cycle, for lassos).
    """
    states = list(trace.states)
    if trace.cycle_start is not None:
        cycle = states[trace.cycle_start:]
        virtual = states + cycle * 2  # two unrolled laps are enough evidence
        looped = True
    else:
        virtual = states
        looped = False

    def state_sat(g: CtlFormula, state: int) -> bool:
        if isinstance(g, TrueF):
            return True
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
        if i >= len(virtual):
            return False
        if is_propositional(g):
            return state_sat(g, virtual[i])
        if isinstance(g, And):
            return demo(i, g.left) and demo(i, g.right)
        if isinstance(g, Or):
            return demo(i, g.left) or demo(i, g.right)
        if isinstance(g, EX):
            return demo(i + 1, g.sub)
        if isinstance(g, EF):
            return any(demo(j, g.sub) for j in range(i, len(virtual)))
        if isinstance(g, EU):
            if demo(i, g.right):
                return True
            if not is_propositional(g.left):
                return False  # non-propositional left: only immediate discharge
            for j in range(i + 1, len(virtual)):
                if all(state_sat(g.left, virtual[m]) for m in range(i, j)) \
                        and demo(j, g.right):
                    return True
            return False
        if isinstance(g, EG):
            if not looped:
                return False
            return all(state_sat(g.sub, virtual[j]) for j in range(i, len(virtual)))
        return False

    return demo(0, f)


# ---------------------------------------------------------------------------
# Random structures and formulas

def random_kripke(rng: random.Random, max_states: int = 8,
                  props: tuple[str, ...] = ("p", "q", "r")) -> KripkeStructure:
    n = rng.randint(1, max_states)
    density = rng.uniform(0.1, 0.9)
    succ: list[list[int]] = []
    for s in range(n):
        outs = sorted(t for t in range(n) if rng.random() < density)
        if not outs:
            outs = [s]  # keep the relation total
        succ.append(outs)
    labels = [frozenset(p for p in props if rng.random() < 0.4) for _ in range(n)]
    return kripke(succ, labels)


def random_formula(rng: random.Random, props: tuple[str, ...] = ("p", "q", "r"),
                   depth: int = 3) -> CtlFormula:
    """A random formula.  The universal shapes are drawn as their
    existential duals, so negated EX, EG and EU are exercised too."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.12:
            return TrueF()
        return Prop(rng.choice(props))
    op = rng.choice(("not", "and", "or", "implies",
                     "AX", "EX", "AF", "EF", "AG", "EG", "AU", "EU"))
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
    if op == "AF":
        return Not(EG(Not(sub())))
    if op == "EF":
        return EF(sub())
    if op == "AG":
        return Not(EF(Not(sub())))
    if op == "EG":
        return EG(sub())
    if op == "AU":  # A[l U r] = !(E[!r U (!l & !r)] | EG !r)
        left, right = sub(), sub()
        return Not(Or(EU(Not(right), And(Not(left), Not(right))), EG(Not(right))))
    return EU(sub(), sub())

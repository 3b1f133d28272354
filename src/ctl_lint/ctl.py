"""Explicit-state CTL model checker.

Formulas are built from propositions, the Boolean connectives and the
existential operators EX, EF and E[p U q].  Every finding shows one finite
path as its trace, so the language has no universal operators and none
whose witness is an infinite path.  Each operator is evaluated as written
by global fixed-point labeling: EU is a least fixpoint, computed with a
backward worklist, and EF is EU with every state on its left.  Each
(sub)formula is labeled once per structure; results are memoized by
structural identity, so repeated queries on the same structure are cheap.

Witness extraction covers the existential-positive fragment used by the
check catalog: EF / EX / EU nesting over propositional cores, with
Or-choice and at most one temporal conjunct per And.  A witness is the
tuple of its states, a finite path: BFS-shortest through each EU/EX
obligation, with lowest-successor-id tie-breaks.
"""

from __future__ import annotations

import functools
from collections import deque

from .cfg import KripkeStructure
from .frontend import Value


class CtlFormula(Value):
    """A formula tree.  Every node is immutable and hashes its structure
    once, when it is built (its children's hashes are already known), so
    memo lookups keyed by formulas cost no tree walk."""

    __slots__ = ("_hash",)

    def __init__(self, *values) -> None:
        super().__init__(*values)
        self._hash = hash((type(self), *values))

    def __hash__(self) -> int:
        return self._hash


class Prop(CtlFormula):
    __slots__ = _fields = ("name",)


class Not(CtlFormula):
    __slots__ = _fields = ("sub",)


class And(CtlFormula):
    __slots__ = _fields = ("left", "right")


class Or(CtlFormula):
    __slots__ = _fields = ("left", "right")


class Implies(CtlFormula):
    __slots__ = _fields = ("left", "right")


class EX(CtlFormula):
    __slots__ = _fields = ("sub",)


class EF(CtlFormula):
    __slots__ = _fields = ("sub",)


class EU(CtlFormula):
    __slots__ = _fields = ("left", "right")


def props_of(f: CtlFormula) -> frozenset[str]:
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, (Not, EX, EF)):
        return props_of(f.sub)
    return props_of(f.left) | props_of(f.right)


_NOWHERE: frozenset[int] = frozenset()


class SatSets:
    """Satisfaction sets of a formula and its subformulas on one structure,
    evaluated on demand and memoized by structural identity."""

    def __init__(self, kripke: KripkeStructure):
        self.kripke = kripke
        self._all = frozenset(range(kripke.n))
        self._memo: dict[CtlFormula, frozenset[int]] = {}

    def holds(self, f: CtlFormula, state: int) -> bool:
        return state in self.states(f)

    def states(self, f: CtlFormula) -> frozenset[int]:
        got = self._memo.get(f)
        if got is not None:
            return got
        if isinstance(f, Prop):
            result = self.kripke.props.get(f.name, _NOWHERE)
        elif isinstance(f, Not):
            result = self._all - self.states(f.sub)
        elif isinstance(f, And):
            result = self.states(f.left) & self.states(f.right)
        elif isinstance(f, Or):
            result = self.states(f.left) | self.states(f.right)
        elif isinstance(f, Implies):
            result = (self._all - self.states(f.left)) | self.states(f.right)
        elif isinstance(f, EX):
            result = self._pre_exists(self.states(f.sub))
        elif isinstance(f, EF):
            result = self._eval_eu(self._all, self.states(f.sub))
        elif isinstance(f, EU):
            result = self._eval_eu(self.states(f.left), self.states(f.right))
        else:
            raise TypeError(f"not a CTL formula: {f!r}")
        self._memo[f] = result
        return result

    def _pre_exists(self, target: frozenset[int]) -> frozenset[int]:
        pred = self.kripke.pred
        out: set[int] = set()
        for t in target:
            out.update(pred[t])
        return frozenset(out)

    def _eval_eu(self, sat_l: frozenset[int], sat_r: frozenset[int]) -> frozenset[int]:
        # least fixpoint Z = sat_r | (sat_l & pre_exists(Z)), backward worklist
        pred = self.kripke.pred
        result = set(sat_r)
        work = deque(sat_r)
        while work:
            t = work.popleft()
            for s in pred[t]:
                if s in sat_l and s not in result:
                    result.add(s)
                    work.append(s)
        return frozenset(result)


def check(k: KripkeStructure, f: CtlFormula) -> SatSets:
    """Label every state of `k` with the subformulas of `f` it satisfies."""
    sets = SatSets(k)
    sets.states(f)
    return sets


# ---------------------------------------------------------------------------
# Witness extraction

def is_propositional(f: CtlFormula) -> bool:
    if isinstance(f, Prop):
        return True
    if isinstance(f, Not):
        return is_propositional(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return is_propositional(f.left) and is_propositional(f.right)
    return False


@functools.cache  # `witness` asks again in every refinement round
def is_witnessable(f: CtlFormula) -> bool:
    """Existential-positive fragment with single-path witnesses."""
    if is_propositional(f):
        return True
    if isinstance(f, And):
        if is_propositional(f.left):
            return is_witnessable(f.right)
        if is_propositional(f.right):
            return is_witnessable(f.left)
        return False
    if isinstance(f, Or):
        return is_witnessable(f.left) and is_witnessable(f.right)
    if isinstance(f, (EX, EF)):
        return is_witnessable(f.sub)
    if isinstance(f, EU):
        return is_propositional(f.left) and is_witnessable(f.right)
    return False


def witness(k: KripkeStructure, f: CtlFormula, s: int,
            sat: SatSets | None = None) -> tuple[int, ...] | None:
    """The states of a path demonstrating `f` from `s`, or None if s does
    not satisfy f.  `f` must lie in the witnessable fragment."""
    if not is_witnessable(f):
        raise ValueError(f"no single-path witness exists for {f!r}")
    sat = sat or check(k, f)
    if not sat.holds(f, s):
        return None
    return tuple(_demonstrate(k, sat, f, s))


def _demonstrate(k: KripkeStructure, sat: SatSets, f: CtlFormula, s: int) -> list[int]:
    if is_propositional(f):
        return [s]
    if isinstance(f, And):
        inner = f.right if is_propositional(f.left) else f.left
        return _demonstrate(k, sat, inner, s)
    if isinstance(f, Or):
        side = f.left if sat.holds(f.left, s) else f.right
        return _demonstrate(k, sat, side, s)
    if isinstance(f, EX):
        sat_sub = sat.states(f.sub)
        t = min(t for t in k.succ[s] if t in sat_sub)
        return [s] + _demonstrate(k, sat, f.sub, t)
    if isinstance(f, (EF, EU)):
        left = range(k.n) if isinstance(f, EF) else sat.states(f.left)
        right = f.sub if isinstance(f, EF) else f.right
        path = _bfs_until(k, left, sat.states(right), s)
        return path[:-1] + _demonstrate(k, sat, right, path[-1])
    raise AssertionError(f"unreachable for witnessable formula {f!r}")


def _bfs_until(k: KripkeStructure, sat_left: frozenset[int] | range,
               sat_right: frozenset[int], s: int) -> list[int]:
    """Shortest path from s to a `sat_right` state through `sat_left`
    states, expanding successors in id order."""
    if s in sat_right:
        return [s]
    parent: dict[int, int] = {s: -1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u not in sat_left:
            continue
        for t in k.succ[u]:  # already sorted
            if t in parent:
                continue
            parent[t] = u
            if t in sat_right:
                path = [t]
                while path[-1] != s:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(t)
    raise AssertionError("witness search failed on a satisfying state")


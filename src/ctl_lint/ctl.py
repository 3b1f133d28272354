"""Explicit-state CTL model checker.

Formulas are built from propositions, the Boolean connectives and the
existential operators EX, EF and E[p U q].  Every finding shows one finite
path as its trace, so the language has no universal operators and none
whose witness is an infinite path.  Formulas are rewritten into the
adequate set {True, Prop, Not, And, EX, EU} and evaluated by global
fixed-point labeling: EU is a least fixpoint, computed with a backward
worklist.  Each (sub)formula is labeled once per structure; results are
memoized by structural identity, so repeated queries on the same
structure are cheap.

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


class TrueF(CtlFormula):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class Prop(CtlFormula):
    __slots__ = _fields = ("name",)

    def __str__(self) -> str:
        return self.name


class Not(CtlFormula):
    __slots__ = _fields = ("sub",)

    def __str__(self) -> str:
        return f"!{_wrap(self.sub)}"


class And(CtlFormula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"{_wrap(self.left)} & {_wrap(self.right)}"


class Or(CtlFormula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"{_wrap(self.left)} | {_wrap(self.right)}"


class Implies(CtlFormula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"{_wrap(self.left)} -> {_wrap(self.right)}"


class EX(CtlFormula):
    __slots__ = _fields = ("sub",)

    def __str__(self) -> str:
        return f"EX {_wrap(self.sub)}"


class EF(CtlFormula):
    __slots__ = _fields = ("sub",)

    def __str__(self) -> str:
        return f"EF {_wrap(self.sub)}"


class EU(CtlFormula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"E[{self.left} U {self.right}]"


TRUE = TrueF()


def _wrap(f: CtlFormula) -> str:
    if isinstance(f, (TrueF, Prop, Not, EX, EF, EU)):
        return str(f)
    return f"({f})"


def props_of(f: CtlFormula) -> frozenset[str]:
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, (TrueF,)):
        return frozenset()
    if isinstance(f, (Not, EX, EF)):
        return props_of(f.sub)
    return props_of(f.left) | props_of(f.right)


@functools.cache
def normalize(f: CtlFormula) -> CtlFormula:
    """Rewrite into the adequate set {True, Prop, Not, And, EX, EU}.

    EF p = E[true U p], with Or and Implies removed by De Morgan.  Double
    negations are collapsed.
    """
    if isinstance(f, (TrueF, Prop)):
        return f
    if isinstance(f, Not):
        sub = normalize(f.sub)
        if isinstance(sub, Not):
            return sub.sub
        return Not(sub)
    if isinstance(f, And):
        return And(normalize(f.left), normalize(f.right))
    if isinstance(f, Or):
        return normalize(Not(And(Not(f.left), Not(f.right))))
    if isinstance(f, Implies):
        return normalize(Not(And(f.left, Not(f.right))))
    if isinstance(f, EX):
        return EX(normalize(f.sub))
    if isinstance(f, EF):
        return EU(TRUE, normalize(f.sub))
    if isinstance(f, EU):
        return EU(normalize(f.left), normalize(f.right))
    raise TypeError(f"not a CTL formula: {f!r}")


_NOWHERE: frozenset[int] = frozenset()


class SatSets:
    """Satisfaction sets of a formula and its subformulas on one structure.

    Lookups accept any formula; it is normalized and evaluated on demand,
    memoized by structural identity.
    """

    def __init__(self, kripke: KripkeStructure):
        self.kripke = kripke
        self._all = frozenset(range(kripke.n))
        self._memo: dict[CtlFormula, frozenset[int]] = {}

    def states(self, f: CtlFormula) -> frozenset[int]:
        return self._eval(normalize(f))

    def holds(self, f: CtlFormula, state: int) -> bool:
        return state in self.states(f)

    def _eval(self, f: CtlFormula) -> frozenset[int]:
        got = self._memo.get(f)
        if got is not None:
            return got
        k = self.kripke
        if isinstance(f, TrueF):
            result = self._all
        elif isinstance(f, Prop):
            result = k.props.get(f.name, _NOWHERE)
        elif isinstance(f, Not):
            result = self._all - self._eval(f.sub)
        elif isinstance(f, And):
            result = self._eval(f.left) & self._eval(f.right)
        elif isinstance(f, EX):
            result = self._pre_exists(self._eval(f.sub))
        elif isinstance(f, EU):
            result = self._eval_eu(self._eval(f.left), self._eval(f.right))
        else:
            raise AssertionError(f"non-normalized operator reached evaluator: {f!r}")
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
    if isinstance(f, (TrueF, Prop)):
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
        raise ValueError(f"no single-path witness exists for {f}")
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
    if isinstance(f, EF):
        return _demonstrate(k, sat, EU(TRUE, f.sub), s)
    if isinstance(f, EU):
        path = _bfs_until(k, sat.states(f.left), sat.states(f.right), s)
        return path[:-1] + _demonstrate(k, sat, f.right, path[-1])
    raise AssertionError(f"unreachable for witnessable formula {f!r}")


def _bfs_until(k: KripkeStructure, sat_left: frozenset[int],
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


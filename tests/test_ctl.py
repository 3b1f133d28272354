from __future__ import annotations

import random

import pytest

from ctl_lint.ctl import (
    And, EF, EU, EX, Implies, Not, Or, Prop,
    check, is_witnessable, witness,
)
from oracle_ctl import (
    TOP, edge_valid, kripke as mk, random_formula, random_kripke, sat_oracle,
    trace_demonstrates,
)

p, q = Prop("p"), Prop("q")


def test_derived_operators_match_their_definitions():
    # |, -> and EF are evaluated directly; each must equal its definition
    # in terms of !, & and EU, also on structures with dead ends
    rng = random.Random(8)
    for _ in range(60):
        k = random_kripke(rng, dead_ends=True)
        a, b = random_formula(rng), random_formula(rng)
        sat = check(k, a)
        assert sat.states(Or(a, b)) == sat.states(Not(And(Not(a), Not(b))))
        assert sat.states(Implies(a, b)) == sat.states(Not(And(a, Not(b))))
        assert sat.states(EF(a)) == sat.states(EU(TOP, a))


class TestFormulaValues:
    def test_operators_tell_formulas_apart(self):
        assert And(p, q) != Or(p, q) and EX(p) != EF(p)

    def test_a_formula_built_twice_is_equal(self):
        def build():
            return EU(Not(Prop("p")), And(Prop("q"), EX(TOP)))

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(And(p, q)) == "And(left=Prop(name='p'), right=Prop(name='q'))"


class TestCheck:
    def test_single_state_self_loop(self):
        k = mk([[0]], [{"p"}])
        assert check(k, EF(p)).states(EF(p)) == frozenset({0})

    def test_chain_to_self_loop(self):
        k = mk([[1], [1]], [set(), {"p"}])
        sat = check(k, EU(TOP, p))
        assert sat.states(EU(TOP, p)) == frozenset({0, 1})

    def test_two_cycle(self):
        k = mk([[1], [0]], [{"p"}, set()])
        always_p = Not(EF(Not(p)))
        sat = check(k, always_p)
        assert sat.states(always_p) == frozenset()

    def test_true_and_not_invariants(self):
        k = mk([[1], [0, 1]], [{"p"}, set()])
        sat = check(k, p)
        assert sat.states(TOP) == frozenset({0, 1})
        assert sat.states(Not(p)) == frozenset({0, 1}) - sat.states(p)


class TestOracleEquivalence:
    def test_random_structures(self):
        # the structures may be partial, like a product whose cut edges
        # leave states with no successor
        rng = random.Random(2024)
        dead_ends = 0
        for _ in range(250):
            k = random_kripke(rng, dead_ends=True)
            f = random_formula(rng)
            sat = check(k, f)
            memo = {}
            for s in range(k.n):
                assert sat.holds(f, s) == sat_oracle(k, f, s, memo), (f, s, k.succ, k.props)
            dead_ends += sum(1 for outs in k.succ if not outs)
        assert dead_ends > 50


class TestFixpointShape:
    def _eu_rounds(self, k, sat_l, sat_r):
        rounds = [frozenset(sat_r)]
        while True:
            cur = rounds[-1]
            nxt = cur | {s for s in sat_l if any(t in cur for t in k.succ[s])}
            if nxt == cur:
                return rounds
            rounds.append(nxt)

    def test_eu_increasing_bounded(self):
        rng = random.Random(5)
        for _ in range(60):
            k = random_kripke(rng)
            a = random_formula(rng, depth=1)
            b = random_formula(rng, depth=1)
            sat = check(k, EU(a, b))
            sat_a, sat_b = sat.states(a), sat.states(b)
            eu_rounds = self._eu_rounds(k, sat_a, sat_b)
            assert all(x <= y for x, y in zip(eu_rounds, eu_rounds[1:]))
            assert len(eu_rounds) <= k.n + 1
            assert eu_rounds[-1] == sat.states(EU(a, b))


class TestWitness:
    def test_ef_two_steps_minimal(self):
        k = mk([[1, 2], [3], [3], [3]], [set(), set(), set(), {"p"}])
        w = witness(k, EF(p), 0)
        assert w == (0, 1, 3)  # shortest, lowest-id tie-break

    def test_ex_direct_successor(self):
        k = mk([[1], [1]], [set(), {"p"}])
        w = witness(k, EX(p), 0)
        assert w == (0, 1)

    def test_unsatisfied_returns_none(self):
        k = mk([[0]], [set()])
        assert witness(k, EF(p), 0) is None

    def test_nonwitnessable_fragment_rejected(self):
        k = mk([[0]], [{"p"}])
        with pytest.raises(ValueError):
            witness(k, Not(EF(Not(p))), 0)
        assert not is_witnessable(And(EF(p), EF(q)))
        assert is_witnessable(EF(And(p, EX(EU(Not(q), p)))))

    def test_fragment_is_walked_once_per_formula(self):
        # refinement asks `witness` again in every round; a formula outside
        # the fragment is still rejected on every call
        k = mk([[1], [1]], [{"q"}, {"p"}])
        f = EX(EU(q, And(p, EX(p))))
        outside = EX(Not(EF(Not(q))))
        for _ in range(3):
            assert witness(k, f, 0) == (0, 1, 1)
            with pytest.raises(ValueError):
                witness(k, outside, 0)
            walked = is_witnessable.cache_info().currsize
            assert is_witnessable(f) and not is_witnessable(outside)
            assert is_witnessable.cache_info().currsize == walked

    def test_random_witnesses_validate(self):
        rng = random.Random(77)
        validated = 0
        for _ in range(300):
            k = random_kripke(rng)
            f = random_formula(rng)
            if not is_witnessable(f):
                continue
            sat = check(k, f)
            for s in range(k.n):
                if sat.holds(f, s):
                    w = witness(k, f, s, sat)
                    assert edge_valid(k, w)
                    assert trace_demonstrates(k, f, w), (f, w)
                    validated += 1
        assert validated > 100

"""Hyperoperation tower against a plain-int fold oracle, plus the identity
results and the left/right divergence that motivates the ordinal ladder."""
import random

import pytest

from transfinite.budget import EvalBudget
from transfinite.errors import BudgetExceeded, OrdinalDomainError
from transfinite.hyper import hyper, left_hyper, no_left_identity_witness, right_identity


def fold(n: int, a: int, b: int, leftward: bool = False) -> int:
    """Independent route: the defining fold written directly on ints."""
    if n == 1:
        return a + b
    if n == 2:
        return a * b
    acc = 1
    for _ in range(b):
        acc = fold(n - 1, acc, a, leftward) if leftward else fold(n - 1, a, acc, leftward)
    return acc


class TestAgainstFoldOracle:
    def test_rightward_grid(self):
        for n in (1, 2, 3, 4):
            for a in range(5):
                for b in range(4):
                    assert hyper(n, a, b) == fold(n, a, b), (n, a, b)

    def test_leftward_grid(self):
        for n in (1, 2, 3, 4):
            for a in range(5):
                for b in range(4):
                    assert left_hyper(n, a, b) == fold(n, a, b, leftward=True), (n, a, b)

    def test_level_five_small_bases(self):
        # Base 3 already towers out of reach at level 5, so stop at 2.
        # Bases 0 and 1 stay small at every level, so they also run
        # through levels 6-9, where the evaluator uses closed rules.
        cases = [(5, a, b) for a in (0, 1, 2) for b in range(4)]
        cases += [(n, a, b) for n in range(6, 10) for a in (0, 1) for b in range(7)]
        for n, a, b in cases:
            assert hyper(n, a, b) == fold(n, a, b), (n, a, b)
            assert left_hyper(n, a, b) == fold(n, a, b, leftward=True), (n, a, b)

    def test_low_levels_match_native_operators(self):
        for a in range(0, 51, 7):
            for b in range(0, 51, 7):
                assert hyper(1, a, b) == a + b
                assert hyper(2, a, b) == a * b
        for a in range(9):
            for b in range(9):
                assert hyper(3, a, b) == a**b


class TestFrozenValues:
    def test_exponentiation_rung(self):
        assert hyper(3, 2, 10) == 1024
        assert hyper(3, 10, 5) == 100000

    def test_tetration_rung(self):
        assert hyper(4, 2, 4) == 65536
        assert hyper(4, 3, 3) == 7625597484987

    def test_level_five(self):
        assert [hyper(5, 2, b) for b in range(4)] == [1, 2, 4, 65536]


class TestDefiningRecursion:
    def test_rightward_step(self):
        for n in (2, 3):
            for a in range(4):
                for b in range(4):
                    if n == 3 and a == 3 and b == 3:
                        continue  # 3**(3**27) overflows any sane cap
                    assert hyper(n + 1, a, b + 1) == hyper(n, a, hyper(n + 1, a, b))

    def test_leftward_step(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 4)
            a = rng.randint(0, 3)
            b = rng.randint(0, 3)
            assert left_hyper(n + 1, a, b + 1) == left_hyper(n, left_hyper(n + 1, a, b), a)


class TestLeftRightDivergence:
    def test_agree_up_to_exponentiation(self):
        # Levels 1..3 fold commutative steps, so the variants coincide.
        for n in (1, 2, 3):
            for a in range(6):
                for b in range(5):
                    assert hyper(n, a, b) == left_hyper(n, a, b)

    def test_divergence_pair_at_tetration(self):
        assert (hyper(4, 2, 3), left_hyper(4, 2, 3)) == (16, 1)

    def test_leftward_collapse_from_level_four(self):
        # The seed accumulator is 1 and 1**a = 1, so the left fold never
        # escapes it once the step is exponentiation.
        for a in range(2, 6):
            for b in range(1, 5):
                assert left_hyper(4, a, b) == 1
        assert left_hyper(5, 3, 3) == 1


class TestIdentities:
    def test_right_identity_values(self):
        assert right_identity(1) == 0
        assert all(right_identity(n) == 1 for n in range(2, 8))

    def test_right_identity_acts(self):
        for n in range(1, 7):
            for a in range(5):
                assert hyper(n, a, right_identity(n)) == a

    def test_right_identity_fails_leftward_at_tetration(self):
        assert left_hyper(4, 5, right_identity(4)) == 1

    def test_witness_refutes_each_candidate(self):
        for e in range(60):
            a = no_left_identity_witness(e)
            assert 0 <= a <= 3
            assert e**a != a

    def test_witness_rejects_non_naturals(self):
        with pytest.raises(OrdinalDomainError):
            no_left_identity_witness(-1)
        with pytest.raises(OrdinalDomainError):
            no_left_identity_witness("2")


class TestDomainAndBudget:
    def test_level_must_be_positive_int(self):
        for bad in (0, -3, 1.5, "3", True):
            with pytest.raises(OrdinalDomainError):
                hyper(bad, 2, 2)

    def test_operands_must_be_naturals(self):
        for bad in (-1, 2.0, "4", False):
            with pytest.raises(OrdinalDomainError):
                hyper(3, bad, 2)
            with pytest.raises(OrdinalDomainError):
                hyper(3, 2, bad)

    def test_tower_hits_bit_cap(self):
        with pytest.raises(BudgetExceeded):
            hyper(4, 2, 6)
        with pytest.raises(BudgetExceeded):
            hyper(5, 3, 3)

    def test_bit_cap_is_adjustable(self):
        roomy = EvalBudget(max_bits=70000)
        assert hyper(4, 2, 5, roomy) == 2**65536
        with pytest.raises(BudgetExceeded):
            hyper(4, 2, 5)

    def test_deep_leftward_identity_chain_is_cut_off(self):
        # Leftward [a, 1] has no shortcut, so the level recursion is real
        # and the depth cap must catch it.
        with pytest.raises(BudgetExceeded):
            left_hyper(2000, 7, 1)

    def test_cycling_bases_finish_fast(self):
        # Base 1 is a fixed point and base 0 alternates with period two;
        # the evaluator must jump the cycle instead of iterating a billion
        # times.
        assert hyper(9, 1, 10**9) == 1
        assert left_hyper(9, 1, 10**9) == 1
        assert hyper(4, 0, 10**9) == 1
        assert hyper(4, 0, 10**9 + 1) == 0

    def test_default_depth_boundary(self):
        # [2, 2] = 4 at every level, reached through one level per step
        # down to level 3: level n sits at depth n - 2.
        assert hyper(258, 2, 2) == 4
        assert left_hyper(258, 2, 2) == 1
        with pytest.raises(BudgetExceeded):
            hyper(259, 2, 2)
        with pytest.raises(BudgetExceeded):
            left_hyper(259, 2, 2)

    def test_cycling_base_needs_one_level_below(self):
        with pytest.raises(BudgetExceeded):
            hyper(4, 1, 5, EvalBudget(max_depth=1))
        assert hyper(4, 1, 5, EvalBudget(max_depth=2)) == 1

    def test_deep_chains_within_a_deep_budget(self):
        # Deeper than the interpreter stack: the chains must run as loops.
        deep = EvalBudget(max_depth=5000)
        assert hyper(3000, 2, 2, deep) == 4
        assert left_hyper(3000, 7, 1, deep) == 1

    def test_power_bit_boundary(self):
        narrow = EvalBudget(max_bits=64)
        for op in (hyper, left_hyper):
            assert op(3, 2, 63, narrow) == 2**63
            with pytest.raises(BudgetExceeded):
                op(3, 2, 64, narrow)

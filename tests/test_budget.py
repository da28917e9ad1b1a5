"""The budget meter and the rules it enforces."""
import pytest

from transfinite.arithmetic import add
from transfinite.budget import ENV_BITS, EvalBudget, Meter
from transfinite.errors import BudgetExceeded
from transfinite.ordinal import OMEGA, from_natural


class TestMeter:
    def test_default_budget(self):
        assert Meter().budget == EvalBudget()

    def test_fresh_memo_per_meter(self):
        first, second = Meter(), Meter()
        assert first.memo == {} and first.memo is not second.memo

    def test_passed_memo_is_the_one_filled(self):
        memo = {}
        meter = Meter(EvalBudget(), memo)

        def evaluate(meter, n, key):
            meter.memo[key] = n
            return n

        assert meter.run(evaluate, 3, "k") == 3
        assert meter.memo is memo and memo == {"k": 3}

    def test_run_refuses_an_interpreter_stack_overflow(self):
        def evaluate(meter, n):
            raise RecursionError

        with pytest.raises(BudgetExceeded, match="interpreter stack at level 7$"):
            Meter().run(evaluate, 7)

    @pytest.mark.parametrize("exc", [BudgetExceeded("cap"), ValueError("v"), KeyError("k")])
    def test_run_lets_other_exceptions_through(self, exc):
        def evaluate(meter, n):
            raise exc

        with pytest.raises(type(exc)) as info:
            Meter().run(evaluate, 2)
        assert info.value is exc

    def test_depth_cap(self):
        meter = Meter(EvalBudget(max_depth=4))
        meter.step(4)
        with pytest.raises(BudgetExceeded, match="deeper than 4"):
            meter.step(5)

    def test_work_cap_fires_at_max_work_plus_one(self):
        budget = EvalBudget(max_depth=2)
        meter = Meter(budget)
        for _ in range(budget.max_work):
            meter.step(0)
        with pytest.raises(BudgetExceeded, match="evaluation steps"):
            meter.step(0)
        assert meter.work == budget.max_work + 1

    def test_depth_is_tested_before_work(self):
        meter = Meter(EvalBudget(max_depth=1))
        meter.work = meter.budget.max_work
        with pytest.raises(BudgetExceeded, match="deeper than"):
            meter.step(2)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_charge_is_that_many_steps(self, steps, depth):
        # Starting counts straddle the work cap; depth 2 is past the depth cap.
        budget = EvalBudget(max_depth=1)

        def outcome(meter, take):
            try:
                take()
            except BudgetExceeded as err:
                return str(err)
            return meter.work

        for start in range(budget.max_work - 6, budget.max_work + 2):
            bulk, single = Meter(budget), Meter(budget)
            bulk.work = single.work = start
            assert outcome(bulk, lambda: bulk.step(depth, steps)) == outcome(
                single, lambda: [single.step(depth) for _ in range(steps)])

    def test_check_size_reads_every_coefficient(self):
        meter = Meter(EvalBudget(max_bits=8))
        meter.check_size(from_natural(255))
        with pytest.raises(BudgetExceeded):
            meter.check_size(from_natural(256))

    def test_check_size_reads_a_lower_term(self):
        meter = Meter(EvalBudget(max_bits=64))
        meter.check_size(add(OMEGA, from_natural(2 ** 64 - 1)))
        with pytest.raises(BudgetExceeded, match="65-bit natural exceeds the 64-bit cap"):
            meter.check_size(add(OMEGA, from_natural(2 ** 64)))


class TestBitsRule:
    def test_boundary(self):
        budget = EvalBudget(max_bits=8)
        budget.check_bits(8)
        with pytest.raises(BudgetExceeded, match="9-bit natural exceeds the 8-bit cap"):
            budget.check_bits(9)


class TestValidation:
    @pytest.mark.parametrize("field", ["max_depth", "max_bits", "sup_samples"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "8", None])
    def test_rejects_non_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            EvalBudget(**{field: value})

    def test_max_work_follows_depth(self):
        assert EvalBudget(max_depth=3).max_work == 3 * 256


class TestFromEnv:
    def test_defaults_without_the_variable(self, monkeypatch):
        monkeypatch.delenv(ENV_BITS, raising=False)
        assert EvalBudget.from_env(max_bits=None, sup_samples=None) == EvalBudget()

    def test_variable_applies(self, monkeypatch):
        monkeypatch.setenv(ENV_BITS, "70000")
        assert EvalBudget.from_env().max_bits == 70000

    def test_explicit_max_bits_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BITS, "70000")
        assert EvalBudget.from_env(max_bits=100).max_bits == 100

    @pytest.mark.parametrize("raw", ["many", "1.5", "0"])
    def test_bad_value_raises_value_error(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_BITS, raw)
        with pytest.raises(ValueError):
            EvalBudget.from_env()

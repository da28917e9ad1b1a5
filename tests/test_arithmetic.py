"""Closed-form arithmetic against fixed vectors, algebraic laws, and the
definitional evaluator as an independent route."""
import contextlib
import gc
import io
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ordinals
from support import W, nat, pair_corpus_below_w_w2, rand_below_w_w
from transfinite import arithmetic
from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget
from transfinite.cli import main
from transfinite.errors import BudgetExceeded, OrdinalDomainError
from transfinite.notation import eval_expr, parse
from transfinite.ordinal import (
    ONE, ZERO, from_natural, is_additive_principal, is_limit, omega_power, successor,
)
from transfinite.reference import reference_check, reference_eval


class TestAdd:
    def test_fixed_vectors(self):
        assert add(ONE, W) == W                       # absorption on the left
        assert add(W, ONE) == successor(W)            # growth on the right
        assert add(W, W) == mul(W, nat(2))
        assert add(nat(2), nat(3)) == nat(5)
        assert add(mul(W, nat(2)), add(W, nat(4))) == add(mul(W, nat(3)), nat(4))

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, x, y, z):
        assert add(add(x, y), z) == add(x, add(y, z))

    @given(ordinals(), ordinals())
    def test_right_strictly_monotone(self, x, y):
        if not y.is_zero:
            assert add(x, y) > x

    @given(ordinals(), ordinals(), ordinals())
    def test_left_weakly_monotone(self, x, y, z):
        if x <= y:
            assert add(x, z) <= add(y, z)

    @given(ordinals())
    def test_zero_is_identity(self, x):
        assert add(x, ZERO) == x
        assert add(ZERO, x) == x


class TestMul:
    def test_fixed_vectors(self):
        assert mul(nat(2), W) == W                    # finite factor absorbed
        assert mul(W, nat(2)) == add(W, W)
        assert mul(successor(W), W) == pow_(W, nat(2))
        assert mul(W, W) == pow_(W, nat(2))
        assert mul(nat(6), nat(7)) == nat(42)
        assert mul(add(W, ONE), nat(2)) == add(mul(W, nat(2)), ONE)

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, x, y, z):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))

    @given(ordinals(), ordinals(), ordinals())
    def test_left_distributes_over_add(self, x, y, z):
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    @given(ordinals(), ordinals())
    def test_right_strictly_monotone(self, x, y):
        if not x.is_zero and y > ONE:
            assert mul(x, y) > x

    @given(ordinals())
    def test_absorbing_zero_and_identity(self, x):
        assert mul(x, ZERO) == ZERO == mul(ZERO, x)
        assert mul(x, ONE) == x == mul(ONE, x)

    @given(ordinals(), st.integers(min_value=1, max_value=40))
    def test_natural_factor_is_repeated_addition(self, x, n):
        # The ladder's level-1 runs take x*n for n copies of x.
        total = x
        for _ in range(n - 1):
            total = add(x, total)
        assert mul(x, from_natural(n)) == total


class TestPow:
    def test_fixed_vectors(self):
        assert pow_(nat(2), W) == W                   # 2^w = sup 2^k = w
        assert pow_(nat(2), nat(10)) == nat(1024)
        assert pow_(W, nat(2)) == mul(W, W)
        assert pow_(W, W) == omega_power(W)
        assert pow_(successor(W), nat(2)) == add(add(pow_(W, nat(2)), W), ONE)
        assert pow_(nat(3), add(W, ONE)) == mul(W, nat(3))

    def test_zero_base_convention(self):
        # 0^0 = 1, 0^(g+1) = 0, and 0^lam = 1 because the sup at a limit
        # is over {1, 0, 0, ...}.
        assert pow_(ZERO, ZERO) == ONE
        assert pow_(ZERO, nat(5)) == ZERO
        assert pow_(ZERO, W) == ONE
        assert pow_(ZERO, successor(W)) == ZERO
        assert pow_(ZERO, mul(W, nat(2))) == ONE

    def test_zero_base_breaks_the_sum_law(self):
        # 0^(1+w) = 0^w = 1 but 0^1 * 0^w = 0: the exponent-sum law only
        # holds from base 1 up, so the property below filters base 0 out.
        lhs = pow_(ZERO, add(ONE, W))
        rhs = mul(pow_(ZERO, ONE), pow_(ZERO, W))
        assert lhs == ONE and rhs == ZERO and lhs != rhs

    @given(ordinals(), ordinals(), ordinals())
    def test_exponent_sum_law_from_base_one(self, x, y, z):
        if not x.is_zero:
            assert pow_(x, add(y, z)) == mul(pow_(x, y), pow_(x, z))

    @given(ordinals(), ordinals(), ordinals())
    def test_exponent_product_law(self, x, y, z):
        if not x.is_zero:
            assert pow_(x, mul(y, z)) == pow_(pow_(x, y), z)

    @given(ordinals())
    def test_trivial_exponents(self, x):
        assert pow_(x, ZERO) == ONE
        assert pow_(x, ONE) == x
        assert pow_(ONE, x) == ONE

    def test_finite_blowup_is_cut_off(self):
        # Without a budget pow_ applies the default one.
        with pytest.raises(BudgetExceeded):
            pow_(nat(2), nat(10 ** 9), EvalBudget())
        with pytest.raises(BudgetExceeded):
            pow_(nat(2), nat(20000))
        assert pow_(nat(2), nat(20000), EvalBudget(max_bits=30000)) == nat(2 ** 20000)


class TestSmallPowerCache:
    """Finite powers x^m of a non-principal x with m < 16 are shared."""

    cache = arithmetic._small_power

    @staticmethod
    def _folded(x, m):
        # x * x * ... * x, m factors, with no cache and no squaring.
        out = ONE
        for _ in range(m):
            out = mul(out, x)
        return out

    def test_cached_powers_equal_uncached_ones(self):
        rng = random.Random(44)
        bases = [x for x in (rand_below_w_w(rng) for _ in range(200))
                 if not x.is_natural and not is_additive_principal(x)][:20]
        assert len(bases) == 20
        for x in bases:
            expected = [self._folded(x, m) for m in range(21)]
            self.cache.cache_clear()
            for warmth in ("cold", "warm"):
                for m, value in enumerate(expected):
                    assert pow_(x, nat(m)) is value, (warmth, x, m)
            # m = 1..15 miss once each, then hit.
            info = self.cache.cache_info()
            assert (info.hits, info.misses) == (15, 15)

    def test_a_warm_cache_still_refuses(self):
        x = add(W, ONE)
        pow_(x, nat(7))
        with pytest.raises(BudgetExceeded, match="finite power 7 is too large to expand"):
            pow_(x, nat(7), EvalBudget(max_bits=4))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["eval", "(w+1)^7"]) == 0
        assert out.getvalue().startswith("w^7 + ")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["eval", "--max-bits", "4", "(w+1)^7"]) == 3

    def test_reference_check_reuses_the_leaf_powers(self):
        # Each leaf pow_(x, w*(k-1) + j) takes x^j; seven k share six j.
        e = lambda text: eval_expr(parse(text))
        self.cache.cache_clear()
        assert reference_check("pow", e("w^(w*2 + 1)*2 + w^(w*2)*2"), e("w^2*3"))
        info = self.cache.cache_info()
        assert (info.hits, info.misses) == (42, 7)

    def test_large_exponents_bypass_the_cache(self):
        size = self.cache.cache_info().currsize
        power = pow_(add(W, ONE), nat(16384))
        assert len(power.terms) == 16385
        assert self.cache.cache_info().currsize == size

    def test_a_cached_power_dies_on_clear(self):
        x = add(omega_power(nat(3)), nat(982451653))
        gc.collect()
        gc.disable()
        try:
            power = pow_(x, nat(3))
            ref = weakref.ref(power)
            del power
            assert ref() is not None
            self.cache.cache_clear()
            assert ref() is None
        finally:
            gc.enable()


class TestReferenceRoute:
    """The definitional evaluator recomputes each closed form independently."""

    def test_fixed_vectors_both_routes(self):
        vectors = [
            ("add", ONE, W, W),
            ("mul", nat(2), W, W),
            ("mul", W, nat(2), add(W, W)),
            ("pow", nat(2), W, W),
            ("pow", ZERO, W, ONE),
        ]
        for op, x, y, want in vectors:
            assert reference_eval(op, x, y) == want
            got = {"add": add, "mul": mul, "pow": lambda a, b: pow_(a, b)}[op](x, y)
            assert got == want

    def test_sampled_corpus_agreement(self):
        for x, y in pair_corpus_below_w_w2(count=60, seed=11):
            assert reference_eval("add", x, y) == add(x, y)
            assert reference_eval("mul", x, y) == mul(x, y)
            assert reference_eval("pow", x, y) == pow_(x, y)

    def test_reference_check_wrapper(self):
        assert reference_check("mul", W, W)
        assert reference_check("pow", nat(2), add(W, nat(2)))

    def test_unknown_operation_is_a_domain_error(self):
        for route in (reference_eval, reference_check):
            with pytest.raises(OrdinalDomainError):
                route("foo", W, W)

    @pytest.mark.parametrize("route", [reference_eval, reference_check])
    @pytest.mark.parametrize("x, y", [(3, W), (W, 2), ("w", W), (W, "w")])
    def test_an_operand_that_is_not_an_ordinal_is_a_domain_error(self, route, x, y):
        # As in synth: a domain error, never an AttributeError from inside.
        with pytest.raises(OrdinalDomainError, match="expected an Ordinal"):
            route("add", x, y)

    @pytest.mark.parametrize("budget", [EvalBudget(), EvalBudget(max_depth=1)],
                             ids=["answered", "refused"])
    def test_leaves_no_cyclic_garbage(self, budget):
        # The recursion is a closure that refers to itself; left as a cycle
        # it would hold the memo of every call until the next collection.
        y = add(omega_power(nat(2)), W)
        gc.collect()
        gc.disable()
        try:
            for op in ("add", "mul", "pow"):
                try:
                    reference_eval(op, add(W, ONE), y, budget)
                except BudgetExceeded:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_below_w_w_spot_checks(self):
        rng = random.Random(7)
        for _ in range(40):
            x, y = rand_below_w_w(rng), rand_below_w_w(rng)
            assert reference_eval("add", x, y) == add(x, y)
            assert reference_eval("mul", x, y) == mul(x, y)

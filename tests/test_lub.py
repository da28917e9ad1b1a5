"""Growth-rule inference on hand-built sample runs.

Every expected value below is derived on paper from the normal forms: a
constant tail is its own sup, peeling a shared prefix reduces to the
remainder sequence, strictly increasing exponents give w to the limit of
the exponents, strictly increasing coefficients over w^e give w^(e+1),
and strictly increasing heights leave epsilon_0's reach entirely.
"""
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ordinals
from support import W, nat, rand_below_w_w, reference_classify, reference_sample_and_infer

from transfinite import lub, ordinal, synthesis
from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget, Meter
from transfinite.errors import BudgetExceeded, NoPatternError, NotRepresentable
from transfinite.lub import (
    LubInference, _common_term_prefix, classify_lub, infer_lub, sample_and_infer,
)
from transfinite.mains import enumerate_main_numbers
from transfinite.ordinal import (
    ONE, ZERO, cnf_height, fundamental_prefix, omega_power, successor,
)

B = EvalBudget()
W2 = pow_(W, nat(2), B)
W3 = pow_(W, nat(3), B)
WW = pow_(W, W, B)


class TestConstantTail:
    def test_three_identical_trailing_values(self):
        samples = [W, add(W, ONE), add(W, ONE), add(W, ONE)]
        assert classify_lub(samples) == (add(W, ONE), LubInference.CONSTANT_TAIL)

    def test_earlier_larger_sample_wins(self):
        # sup of all samples, not just the tail.
        samples = [W3, nat(3), nat(3), nat(3)]
        assert classify_lub(samples) == (W3, LubInference.CONSTANT_TAIL)


class TestPrefixPeel:
    def test_shared_head_term(self):
        samples = [add(W2, nat(1)), add(W2, nat(2)), add(W2, nat(3))]
        assert classify_lub(samples) == (add(W2, W), LubInference.PREFIX_PEEL)

    def test_remainders_recurse_through_coefficients(self):
        head = mul(W2, nat(3))
        samples = [add(head, W), add(head, mul(W, nat(2))), add(head, mul(W, nat(3)))]
        # remainders w, w*2, w*3 have sup w^2; joined: w^2*3 + w^2 = w^2*4
        assert classify_lub(samples) == (mul(W2, nat(4)), LubInference.PREFIX_PEEL)

    def test_leading_seed_samples_are_dropped(self):
        # The first entry breaks the literal prefix; the rule must retry
        # on the suffix rather than give up.
        head = mul(W, nat(2))
        samples = [W, head, add(head, ONE), add(head, nat(2)), add(head, nat(3))]
        assert classify_lub(samples) == (mul(W, nat(3)), LubInference.PREFIX_PEEL)


def _prefix_by_scan(run):
    # The literal prefix every sample shares, read off all of them.
    prefix = []
    for i in range(min(len(s.terms) for s in run)):
        term = run[0].terms[i]
        if any(s.terms[i] != term for s in run):
            break
        prefix.append(term)
    return tuple(prefix)


INCREASING_RUNS = st.lists(ordinals(), min_size=3, max_size=10, unique=True).map(sorted)


def _head(run, c1, c2):
    # w^(top+1)*c1 + w^top*c2 with top = run[-1] + 1.  Added on the left
    # of every value of run it stays whole, as each value's leading
    # exponent is at most run[-1] < top.
    top = successor(run[-1])
    return add(mul(omega_power(successor(top)), nat(c1)), mul(omega_power(top), nat(c2)))


def _prefix_of(run):
    # _common_term_prefix reads the runs' term tuples.
    return _common_term_prefix([x.terms for x in run])


class TestCommonTermPrefix:
    # _common_term_prefix reads only the ends of a strictly increasing run.

    @given(INCREASING_RUNS)
    def test_ends_agree_with_every_sample(self, run):
        assert _prefix_of(run) == _prefix_by_scan(run)

    @given(INCREASING_RUNS, ordinals(), st.integers(1, 9), st.integers(1, 9))
    def test_shared_prefix_added_to_each_value(self, run, lead, c1, c2):
        # Adding on the left keeps a run strictly increasing.
        head = _head(run, c1, c2)
        for shift in (head, lead, add(head, lead)):
            shifted = [add(shift, x) for x in run]
            assert all(a < b for a, b in zip(shifted, shifted[1:]))
            assert _prefix_of(shifted) == _prefix_by_scan(shifted)
        assert _prefix_of([add(head, x) for x in run])[:2] == head.terms


class TestExponentGrowth:
    def test_natural_exponents(self):
        assert classify_lub([W, W2, W3]) == (WW, LubInference.EXPONENT_GROWTH)

    def test_nested_exponents_need_four_samples(self):
        deep = [W, WW, pow_(W, W2, B), pow_(W, W3, B)]
        assert classify_lub(deep) == (pow_(W, WW, B), LubInference.EXPONENT_GROWTH)
        # With only three, the inner exponent run [1, w, w^2] is starved
        # (its own sub-run drops below three usable entries) and no other
        # rule can fire.
        with pytest.raises(NoPatternError):
            classify_lub(deep[:3])


class TestCoefficientGrowth:
    def test_multiples_of_omega(self):
        samples = [W, mul(W, nat(2)), mul(W, nat(3))]
        assert classify_lub(samples) == (W2, LubInference.COEFFICIENT_GROWTH)

    def test_transfinite_fixed_exponent(self):
        samples = [WW, mul(WW, nat(2)), mul(WW, nat(3))]
        want = pow_(W, add(W, ONE), B)
        assert classify_lub(samples) == (want, LubInference.COEFFICIENT_GROWTH)

    def test_naturals_have_exponent_zero(self):
        assert classify_lub([ONE, nat(2), nat(3)]) == (W, LubInference.COEFFICIENT_GROWTH)

    def test_leading_zero_sample_is_stripped(self):
        assert infer_lub([ZERO, ONE, nat(2), nat(3)]) == W

    def test_earlier_spike_joins_into_result(self):
        value, rule = classify_lub([pow_(W, nat(9), B), ONE, nat(2), nat(3)])
        assert value == pow_(W, nat(9), B)
        assert rule is LubInference.COEFFICIENT_GROWTH


class TestTowerGrowth:
    def test_strictly_climbing_heights_escape(self):
        with pytest.raises(NotRepresentable):
            classify_lub([W, WW, pow_(W, WW, B)])

    def test_flat_height_does_not_trip(self):
        # Same three values plus one more of equal height: heights no
        # longer strictly increase, and the exponent rule takes over.
        run = [W, WW, pow_(W, W2, B), pow_(W, W3, B)]
        value, rule = classify_lub(run)
        assert rule is LubInference.EXPONENT_GROWTH

    @pytest.mark.parametrize("where", ["remainders", "exponents"])
    def test_climbing_sub_run_is_not_a_tower(self, where):
        # Every sample lies below w^(w^w)*2 or w^(w^(w^w)*2); only the
        # peeled remainders [1, w, w^w], or the exponents' remainders,
        # climb in height, and that is no reason to leave epsilon_0.
        head = pow_(W, WW, B)
        sub = [ONE, W, WW]
        run = [add(head, s) for s in sub]
        if where == "exponents":
            run = [omega_power(s) for s in run]
        with pytest.raises(NoPatternError):
            classify_lub(run)

    @settings(max_examples=200)
    @given(st.sets(ordinals(), min_size=3, max_size=6))
    def test_tower_verdict_is_the_last_three_heights(self, values):
        run = sorted(values)
        a, b, c = (cnf_height(s) for s in run[-3:])
        tower = False
        try:
            classify_lub(run)
        except NotRepresentable:
            tower = True
        except NoPatternError:
            pass
        assert tower == (0 < a < b < c)


class TestNoPattern:
    def test_too_few_samples(self):
        with pytest.raises(NoPatternError):
            classify_lub([W, mul(W, nat(2))])

    def test_no_usable_increasing_tail(self):
        with pytest.raises(NoPatternError):
            classify_lub([W, W, mul(W, nat(2))])

    def test_zero_third_to_last_sample(self):
        # Heights 0, 1, 2 climb, but the zero is the tail's leading zero
        # and [1, w] is too short to read a trend from.
        with pytest.raises(NoPatternError):
            classify_lub([ZERO, ONE, W])

    def test_shapeless_run(self):
        # [1, 2, w]: no prefix, exponents 0,0,1 not strict, exponent not
        # fixed, heights 1,1,2 not strict.  Nothing fires.
        with pytest.raises(NoPatternError):
            classify_lub([ONE, nat(2), W])


def _outcome(classify, samples):
    try:
        return classify(samples)
    except (NoPatternError, NotRepresentable) as err:
        return type(err), str(err), err.samples


def _shifted(run, c1, c2):
    head = _head(run, c1, c2)
    return [add(head, x) for x in run]


def _growing(lead, head, e, exponents, n):
    # Arbitrary lead samples, then head + w^e*k (coefficient growth) or
    # head + w^(e+k) (exponent growth) for k = 1..n: a tail a rule fits,
    # and lead samples that may lie above its supremum.
    grow = (lambda k: omega_power(add(e, nat(k)))) if exponents else (
        lambda k: mul(omega_power(e), nat(k)))
    return lead + [add(head, grow(k)) for k in range(1, n + 1)]


SAMPLE_LISTS = st.lists(ordinals(), min_size=3, max_size=10)
SHIFTED_RUNS = st.builds(_shifted, INCREASING_RUNS, st.integers(1, 9), st.integers(1, 9))
GROWING_RUNS = st.builds(_growing, st.lists(ordinals(), max_size=3), ordinals(), ordinals(),
                         st.booleans(), st.integers(3, 6))


class TestAgainstReference:
    # classify_lub's rule search returns None where reference_classify's
    # raises and catches NoPatternError; the outcomes are the same.

    @pytest.mark.parametrize("runs", [
        pytest.param(SAMPLE_LISTS, id="lists"),
        pytest.param(INCREASING_RUNS, id="increasing"),
        pytest.param(SHIFTED_RUNS, id="shifted"),
        pytest.param(GROWING_RUNS, id="growing"),
    ])
    @given(data=st.data())
    def test_same_outcome(self, runs, data):
        samples = data.draw(runs)
        assert _outcome(classify_lub, samples) == _outcome(reference_classify, samples)

    @given(st.one_of(SAMPLE_LISTS, INCREASING_RUNS, SHIFTED_RUNS, GROWING_RUNS))
    def test_value_bounds_every_sample(self, samples):
        try:
            value, _ = classify_lub(samples)
        except (NoPatternError, NotRepresentable):
            return
        assert value >= max(samples)


class TestSampleAndInfer:
    def test_addition_over_a_limit(self):
        assert sample_and_infer(lambda g: add(W, g), omega_power(W), Meter(B)) == WW

    def test_multiplication_over_omega(self):
        assert sample_and_infer(lambda g: mul(W, g), W, Meter(B)) == W2

    def test_constant_function(self):
        assert sample_and_infer(lambda g: W3, W, Meter(B)) == W3

    def test_budget_blown_after_three_samples_still_infers(self):
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            if calls > 4:
                raise BudgetExceeded("synthetic")
            return pow_(W, nat(calls - 1), B)

        # Samples 1, w, w^2, w^3 survive; the trend is already visible.
        assert sample_and_infer(f, W, Meter(B)) == WW

    def test_refused_sample_gives_its_work_back(self):
        meter = Meter(EvalBudget(max_depth=1))
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            if calls > 4:
                while True:
                    meter.step(0)
            meter.step(0)
            meter.step(0)
            return pow_(W, nat(calls - 1), B)

        # The fifth sample burns the whole work cap and is refused; the
        # run goes on from the four completed samples and their 8 steps.
        assert sample_and_infer(f, W, meter) == WW
        assert meter.work == 8

    def test_cut_run_leaves_no_cyclic_garbage(self):
        # A kept refusal's traceback would hold the frame, and with it
        # eval_at and the shared memo, in a cycle until the next collection.
        gc.collect()
        gc.disable()
        try:
            capped = EvalBudget(max_bits=4)
            # The bit cap cuts a run, which is inferred from anyway.
            assert synthesis.synth(3, nat(2), W, capped) == W
            # The bit cap cuts a run that infers nothing; its refusal stands.
            with pytest.raises(BudgetExceeded, match="a 5-bit natural exceeds the 4-bit cap"):
                synthesis.synth(4, nat(3), W, capped)
            enumerate_main_numbers(4, pow_(W, W2, B))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_completed_and_unrepresentable_samples_keep_their_work(self):
        meter = Meter(B)
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            meter.step(0)
            if calls > 3:
                raise NotRepresentable("synthetic")
            meter.step(0)
            return nat(calls)

        with pytest.raises(NotRepresentable):
            sample_and_infer(f, W, meter)
        assert meter.work == 3 * 2 + 1

    def test_budget_blown_too_early_propagates(self):
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            if calls > 2:
                raise BudgetExceeded("synthetic")
            return nat(calls)

        with pytest.raises(BudgetExceeded):
            sample_and_infer(f, W, Meter(B))

    def test_unrepresentable_sample_is_final(self):
        def f(g):
            raise NotRepresentable("synthetic")

        with pytest.raises(NotRepresentable):
            sample_and_infer(f, W, Meter(B))

    def test_tower_run_is_cut_off_early(self):
        stages = [W]
        while len(stages) < 12:
            stages.append(omega_power(stages[-1]))
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            return stages[calls - 1]

        with pytest.raises(NotRepresentable):
            sample_and_infer(f, W, Meter(B))
        # Two seed probes plus four trend samples suffice; the run must
        # not burn all sup_samples first.
        assert calls == 6

    def test_budget_cut_run_never_concludes_a_tower(self):
        stages = [ZERO, W, WW, omega_power(WW)]
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            if calls > len(stages):
                raise BudgetExceeded("synthetic")
            return stages[calls - 1]

        # Four climbing heights alone are the early climb of many benign
        # runs; the refusal that cut the run is the answer.
        with pytest.raises(BudgetExceeded, match="synthetic"):
            sample_and_infer(f, W, Meter(B))

    def test_cut_run_without_a_pattern_reports_its_cut(self):
        stages = [ONE, omega_power(pow_(W, nat(5), B)), ONE]
        calls = 0

        def f(g):
            nonlocal calls
            calls += 1
            if calls > len(stages):
                raise BudgetExceeded("synthetic")
            return stages[calls - 1]

        # No rule reads [1, w^(w^5), 1]; the cap that cut the run is the
        # cause, not a missing pattern.
        with pytest.raises(BudgetExceeded, match="synthetic"):
            sample_and_infer(f, W, Meter(B))

    def test_shapeless_run_reports_budget(self):
        values = [ONE, nat(2), W, add(W, ONE), mul(W, nat(2)), WW, nat(7), nat(9), W2, W3]
        it = iter(values)

        def f(g):
            return next(it)

        with pytest.raises(BudgetExceeded) as info:
            sample_and_infer(f, W, Meter(B))
        assert "no growth rule matched" in str(info.value)

    def test_result_stable_under_more_samples(self):
        wide = EvalBudget(sup_samples=16)
        for fn, lam in (
            (lambda g: add(W, g), omega_power(W)),
            (lambda g: mul(W, g), W),
            (lambda g: pow_(add(W, ONE), g, wide), W),
        ):
            narrow = sample_and_infer(fn, lam, Meter(B))
            assert narrow == sample_and_infer(fn, lam, Meter(wide))


# -- sample_and_infer against its definition ----------------------------------

LIMITS = [W, W2, add(W2, W), WW, omega_power(WW)]
FAULTS = (BudgetExceeded, NotRepresentable)


def _tower(base, n):
    stages = [base]
    while len(stages) < n:
        stages.append(omega_power(stages[-1]))
    return stages


@st.composite
def eval_tables(draw):
    """(budget, lam, values, steps, faults) for one table-driven eval_at.

    Position k of the run returns values[k] after steps[k] meter steps,
    unless faults maps k to an exception type, which it raises instead.
    Value runs are arbitrary, sorted, growing, or w-towers after a few
    arbitrary leads (climbing heights); a run shorter than the table
    repeats its last value.
    """
    budget = EvalBudget(max_depth=1, sup_samples=draw(st.integers(1, 10)))
    n = budget.sup_samples + 2
    kind = draw(st.sampled_from(["any", "sorted", "growing", "tower"]))
    if kind == "tower":
        values = draw(st.lists(ordinals(), max_size=3)) + _tower(draw(ordinals()), n)
    else:
        values = draw({"any": SAMPLE_LISTS, "sorted": INCREASING_RUNS,
                       "growing": GROWING_RUNS}[kind])
    values = (values + values[-1:] * n)[:n]
    # Steps past the 256-step cap of max_depth=1 make the meter refuse.
    steps = draw(st.lists(st.integers(0, 2) | st.integers(20, 90), min_size=n, max_size=n))
    faults = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(FAULTS), max_size=2))
    return budget, draw(st.sampled_from(LIMITS)), values, steps, faults


def _sample_outcome(sup, table):
    # The value or (exception type, message, samples), the meter's work
    # afterwards, and the points eval_at was handed.
    budget, lam, values, steps, faults = table
    meter, calls = Meter(budget), []

    def eval_at(gamma):
        k = len(calls)
        calls.append(gamma)
        for _ in range(steps[k]):
            meter.step(0)
        if k in faults:
            raise faults[k](f"synthetic at {k}")
        return values[k]

    try:
        out = sup(eval_at, lam, meter)
    except (BudgetExceeded, NotRepresentable) as err:
        out = (type(err), str(err), err.samples)
    return out, meter.work, calls


class TestSampleAndInferAgainstReference:
    @settings(max_examples=200)
    @given(eval_tables())
    def test_same_outcome_work_and_calls(self, table):
        assert _sample_outcome(sample_and_infer, table) == \
            _sample_outcome(reference_sample_and_infer, table)

    @pytest.mark.parametrize("values", [
        pytest.param(_tower(ONE, 12), id="tower"),
        pytest.param([ONE] + [mul(W, nat(k)) for k in range(1, 12)], id="coefficients"),
        pytest.param([add(WW, nat(k)) for k in range(12)], id="prefix"),
        pytest.param([ZERO, ONE] + [W2] * 10, id="constant"),
    ])
    def test_budget_cut_at_every_position(self, values):
        budget = EvalBudget(sup_samples=10)
        for k in range(12):
            for fault in FAULTS:
                table = (budget, W, values, [1] * 12, {k: fault})
                assert _sample_outcome(sample_and_infer, table) == \
                    _sample_outcome(reference_sample_and_infer, table), (k, fault)


# -- the calls perfbench/tracer.py counts ---------------------------------------

class _LubCalls:
    """Counters on lub.infer_lub and lub.classify_lub, through the module
    globals sample_and_infer calls them by.

    classified holds (samples, in_flight) per classify_lub call, with
    in_flight False when infer_lub made the call.  sup() runs
    sample_and_infer and appends (infer_lub calls it made, returned) to
    sups; infer_lub is called at the end of its run, after any nested
    supremum has closed, so the innermost open run is the caller.
    """

    def __init__(self, monkeypatch):
        self.classified, self.sups, self.open, self.inferring = [], [], [], 0
        classify, infer = lub.classify_lub, lub.infer_lub

        def counting_infer(samples):
            if self.open:
                self.open[-1] += 1
            self.inferring += 1
            try:
                return infer(samples)
            finally:
                self.inferring -= 1

        def counting_classify(samples):
            self.classified.append((tuple(samples), not self.inferring))
            return classify(samples)

        monkeypatch.setattr(lub, "infer_lub", counting_infer)
        monkeypatch.setattr(lub, "classify_lub", counting_classify)

    def sup(self, eval_at, lam, meter):
        self.open.append(0)
        returned = False
        try:
            value = sample_and_infer(eval_at, lam, meter)
            returned = True
            return value
        finally:
            self.sups.append((self.open.pop(), returned))

    def in_flight(self):
        return [run for run, in_flight in self.classified if in_flight]


def _climbing(samples):
    a, b, c, d = (cnf_height(s) for s in samples[-4:])
    return a < b < c < d


class TestTracedCalls:
    def test_finished_supremum_infers_once(self, monkeypatch):
        calls = _LubCalls(monkeypatch)
        assert calls.sup(lambda g: add(W, g), omega_power(W), Meter(B)) == WW
        assert calls.sups == [(1, True)]
        assert len(calls.classified) == 1 and not calls.in_flight()

    def test_tower_is_classified_in_flight_after_four_climbing_heights(self, monkeypatch):
        calls = _LubCalls(monkeypatch)
        stages = _tower(W, 12)
        with pytest.raises(NotRepresentable):
            calls.sup(lambda g, it=iter(stages): next(it), W, Meter(B))
        assert calls.sups == [(0, False)]
        assert calls.classified == [(tuple(stages[:6]), True)]

    def test_three_climbing_heights_wait_for_the_full_run(self, monkeypatch):
        # Heights 1, 1, 2, 3, 4, 4, ...: the climb stops before a fourth height.
        calls = _LubCalls(monkeypatch)
        stages = [ONE, ONE, W, WW, omega_power(WW)]
        stages += [mul(stages[-1], nat(k)) for k in range(2, 9)]
        value = calls.sup(lambda g, it=iter(stages): next(it), W, Meter(B))
        assert value == omega_power(successor(WW))
        assert calls.sups == [(1, True)]
        assert len(calls.classified) == 1 and not calls.in_flight()

    def test_ladder_runs(self, monkeypatch):
        calls = _LubCalls(monkeypatch)
        monkeypatch.setattr(synthesis, "sample_and_infer", calls.sup)
        rng = random.Random(15)
        args = [(4, nat(2), W2), (4, W, W), (3, WW, WW)]
        args += [(rng.randint(2, 4), rand_below_w_w(rng), rand_below_w_w(rng)) for _ in range(200)]
        for n, alpha, beta in args:
            try:
                synthesis.synth(n, alpha, beta, B)
            except (BudgetExceeded, NotRepresentable):
                pass
        finished = [count for count, returned in calls.sups if returned]
        assert finished and set(finished) == {1}
        assert all(count <= 1 for count, _ in calls.sups)
        in_flight = calls.in_flight()
        assert in_flight and all(len(run) >= 6 and _climbing(run) for run in in_flight)
        assert len(calls.classified) == sum(count for count, _ in calls.sups) + len(in_flight)


class TestPoints:
    """lub._points, the LRU of sample points shared across evaluations."""

    def test_points_are_the_seeds_and_the_prefix(self):
        for lam in LIMITS:
            want = (ZERO, ONE, *fundamental_prefix(lam, 8))
            lub._points.cache_clear()
            assert lub._points(lam, 8) == want
            assert lub._points(lam, 8) == want  # warm

    def test_successor_exponent_points_count_up_from_zero(self):
        # synthesis._sup takes a sample's k from its position in this order.
        for g in (ZERO, ONE, W, add(W2, nat(3))):
            unit = omega_power(g)
            for count in (1, 2, 3, 8, 16):
                want = (ZERO, ONE, ZERO, *(mul(unit, nat(k)) for k in range(1, count)))
                assert lub._points(omega_power(successor(g)), count) == want

    def test_sample_counts_get_their_own_entries(self):
        lub._points.cache_clear()
        narrow, wide = lub._points(W2, 8), lub._points(W2, 16)
        assert (len(narrow), len(wide)) == (10, 18)
        assert wide[:10] == narrow
        assert lub._points.cache_info().currsize == 2

    def test_size_is_bounded(self):
        for k in range(1, 300):
            lub._points(mul(W, nat(k)), 4)
        info = lub._points.cache_info()
        assert info.maxsize == 256 and info.currsize == 256

    def test_clearing_frees_a_limit_only_the_cache_held(self):
        lam = omega_power(nat(982451653))
        point = lub._points(lam, 8)[-1]
        refs = [weakref.ref(lam), weakref.ref(point)]
        keys = [lam.terms, point.terms]
        del lam, point
        gc.collect()
        assert all(r() is not None for r in refs)
        lub._points.cache_clear()
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(k in ordinal._TABLE for k in keys)


class TestRuleCache:
    """lub._infer_increasing, the LRU of rule searches on increasing runs."""

    @given(st.one_of(SAMPLE_LISTS, INCREASING_RUNS, SHIFTED_RUNS, GROWING_RUNS),
           st.lists(ordinals(), max_size=3))
    def test_warm_outcome_matches_cold(self, samples, lead):
        # The longer run shares the shorter one's tail and sub-runs, so
        # each warm call may be answered by entries the other left.
        runs = [samples, lead + samples]
        cold = []
        for run in runs:
            lub._infer_increasing.cache_clear()
            cold.append(_outcome(classify_lub, run))
        assert [_outcome(classify_lub, run) for run in runs] == cold

    def test_cached_no_rule_raises_with_the_current_samples(self):
        # Both runs end in the increasing tail [1, 2, w], which fits no rule.
        first, second = [ONE, nat(2), W], [W2, ONE, nat(2), W]
        lub._infer_increasing.cache_clear()
        with pytest.raises(NoPatternError, match="^samples match no growth rule$"):
            classify_lub(first)
        hits = lub._infer_increasing.cache_info().hits
        with pytest.raises(NoPatternError, match="^samples match no growth rule$") as err:
            classify_lub(second)
        assert lub._infer_increasing.cache_info().hits > hits
        assert err.value.samples == tuple(second)

    def test_size_is_bounded(self):
        for k in range(1, 300):
            lub._infer_increasing(tuple(nat(k + j).terms for j in range(3)))
        info = lub._infer_increasing.cache_info()
        assert info.maxsize == 256 and info.currsize == 256

    def test_clearing_frees_values_only_the_cache_held(self):
        # [w^e, w^e*2, w^e*3] grows by coefficient to w^(e+1): the key holds
        # e, and the answer holds w^(e+1).
        e = nat(899809363)
        lub._infer_increasing.cache_clear()
        answer, _ = classify_lub([mul(omega_power(e), nat(k)) for k in (1, 2, 3)])
        assert answer == omega_power(successor(e))
        refs = [weakref.ref(e), weakref.ref(answer)]
        keys = [e.terms, answer.terms]
        del e, answer
        gc.collect()
        assert all(r() is not None for r in refs)
        lub._infer_increasing.cache_clear()
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(k in ordinal._TABLE for k in keys)

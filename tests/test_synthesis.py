"""The transfinite operation ladder.

On naturals the ladder must reproduce the rightward hyperoperations
computed by the independent integer evaluator; those grids are the
oracle.  The transfinite fixtures are frozen closed forms, each derivable
by unrolling the unit fold by hand (see the comments).
"""
import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ordinals
from support import W, nat, pair_corpus_below_w_w2, rand_tree

from transfinite import lub, ordinal, synthesis

from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget, Meter
from transfinite.errors import BudgetExceeded, NotRepresentable, OrdinalDomainError
from transfinite.hyper import hyper
from transfinite.lub import sample_and_infer
from transfinite.mains import enumerate_main_numbers
from transfinite.notation import eval_expr, parse
from transfinite.ordinal import ONE, ZERO, from_natural, omega_power, successor
from transfinite.synthesis import (
    DistributionCheck,
    _eval,
    distributes,
    naive_ext,
    synth,
)

B = EvalBudget()
W2 = pow_(W, nat(2), B)
WW = pow_(W, W, B)


class TestAgreesWithHyperOnNaturals:
    def test_levels_one_to_three(self):
        for n in (1, 2, 3):
            for a in range(9):
                for b in range(9):
                    assert synth(n, nat(a), nat(b), B) == nat(hyper(n, a, b, B)), (n, a, b)

    def test_level_four(self):
        for a in range(4):
            for b in range(4):
                if (a, b) == (3, 3):
                    continue  # separate fixture; 13-digit value
                assert synth(4, nat(a), nat(b), B) == nat(hyper(4, a, b, B))

    def test_level_four_peak(self):
        assert synth(4, nat(3), nat(3), B) == nat(7625597484987)

    def test_level_five(self):
        assert [synth(5, nat(2), nat(b), B) for b in range(4)] == [
            ONE, nat(2), nat(4), nat(65536),
        ]


class TestClassicLevels:
    def test_first_three_levels_are_add_mul_pow(self):
        for x, y in pair_corpus_below_w_w2(count=60, seed=11):
            assert synth(1, x, y, B) == add(x, y)
            assert synth(2, x, y, B) == mul(x, y)
            assert synth(3, x, y, B) == pow_(x, y, B)

    def test_a_budget_cut_run_is_never_a_false_tower(self):
        # Under a small budget these runs are cut after a few samples whose
        # heights climb; that once came back "not representable".  Whatever
        # the budget refuses, every answer given matches the closed forms.
        small = EvalBudget(max_depth=16)
        value = lambda text: eval_expr(parse(text))
        cases = [
            (2, W, value("w^w^w^w")),
            (3, value("w^(w^8*2)*6"), value("w^(w^8*7)*2 + w^9*4 + w")),
        ]
        rng = random.Random(0)
        for _ in range(10):
            x, y = rand_tree(rng, 4), rand_tree(rng, 4)
            cases.extend((n, x, y) for n in (1, 2, 3))
        closed = {1: add, 2: mul, 3: lambda x, y: pow_(x, y, B)}
        for n, x, y in cases:
            try:
                got = synth(n, x, y, small)
            except BudgetExceeded:
                continue
            assert got == closed[n](x, y), (n, x, y)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_answers_after_a_cut_run_are_mul_and_pow(self, monkeypatch, warm):
        # A sample run the budget cuts is still inferred from.  Every level-2
        # or level-3 answer given after such a cut equals the closed form,
        # with lub's rule-search cache emptied before each call, or warmed
        # by the same call first.
        infer, cut = lub.infer_lub, []

        def watching(samples):
            if len(samples) < budget.sup_samples + 2:
                cut.append(samples)
            return infer(samples)

        monkeypatch.setattr(lub, "infer_lub", watching)
        closed = {2: mul, 3: lambda x, y: pow_(x, y, B)}
        checked = {2: 0, 3: 0}
        pairs = pair_corpus_below_w_w2(count=300, seed=5)
        for budget in [EvalBudget(max_depth=d, max_bits=b)
                       for d in (2, 3, 4, 6, 8) for b in (64, 16384)]:
            for x, y in pairs:
                for n in (2, 3):
                    lub._infer_increasing.cache_clear()
                    try:
                        if warm:
                            synth(n, x, y, budget)
                        cut.clear()
                        got = synth(n, x, y, budget)
                    except (BudgetExceeded, NotRepresentable):
                        continue
                    if cut:
                        checked[n] += 1
                        assert got == closed[n](x, y), (n, x, y, budget)
        assert checked[2] > 100 and checked[3] > 10

    @given(st.sampled_from((1, 2, 3)), ordinals(), ordinals())
    def test_levels_one_to_three_answer_the_closed_form_or_refuse(self, n, x, y):
        # Every value at levels 1-3 lies below epsilon_0, so a sampled
        # supremum is never a tower: the ladder answers the closed form or
        # the budget refuses.
        closed = {1: add, 2: mul, 3: lambda x, y: pow_(x, y, B)}
        try:
            got = synth(n, x, y, EvalBudget(max_depth=16))
        except BudgetExceeded:
            return
        assert got == closed[n](x, y)


def _plain_sup(ctx, n, alpha, lam, depth):
    # Every sample evaluated from scratch: the route before chaining.
    return sample_and_infer(lambda gamma: _eval(ctx, n, alpha, gamma, depth + 1), lam, ctx)


def _traced(n, alpha, beta, budget, entry=_eval):
    """(value or exception type, work steps, memo) of a fresh evaluation."""
    ctx = Meter(budget)
    try:
        value = entry(ctx, n, alpha, beta, 0)
    except (BudgetExceeded, NotRepresentable) as err:
        value = type(err)
    return value, ctx.work, ctx.memo


class _ChainLookups:
    """Counts the chained route's memo lookups of samples w^g*k (k >= 2),
    through synthesis.interned, and their hits: a lookup hits when its
    point is in the table of the innermost open supremum, the one whose
    eval_at asked."""

    def __init__(self, monkeypatch):
        self.lookups = self.hits = 0
        tables = []

        def sup(ctx, n, alpha, lam, depth, real=synthesis._sup):
            tables.append(ctx.memo[n, alpha])
            try:
                return real(ctx, n, alpha, lam, depth)
            finally:
                tables.pop()

        def looking_up(terms, real=synthesis.interned):
            point = real(terms)
            self.lookups += 1
            self.hits += point in tables[-1]
            return point

        monkeypatch.setattr(synthesis, "_sup", sup)
        monkeypatch.setattr(synthesis, "interned", looking_up)


class TestChainedSamples:
    """Samples w^g*k at levels 2 and 3 are built from sample k - 1.

    The chain must give what the plain route gives, value, refusal and
    work steps alike, since budgets read all of them.  A chained sample
    lives only in its chain, so the memo holds a subset of the plain
    route's entries, each with the same value.  The chain takes no point
    w^g*k: it looks one up in a memo the caller passed in, where a hit
    is as free as on the plain route, and never in a fresh memo, which
    cannot hold one yet.
    """

    def _agree(self, monkeypatch, cases):
        for n, x, y, budget in cases:
            *chained, memo = _traced(n, x, y, budget)
            with monkeypatch.context() as m:
                m.setattr(synthesis, "_sup", _plain_sup)
                *plain, plain_memo = _traced(n, x, y, budget)
            assert chained == plain, (n, x, y, budget)
            assert all(
                table.items() <= plain_memo.get(key, {}).items() for key, table in memo.items()
            ), (n, x, y, budget)

    @staticmethod
    def _random_cases(budgets):
        # Levels 4 and up never reach a level-2 or level-3 supremum (their
        # folds at level 3 use the closed power), so they are not swept.
        rng = random.Random(0)
        pairs = [(rand_tree(rng, 3), rand_tree(rng, 3)) for _ in range(40)]
        return [(n, x, y, budget) for budget in budgets for n in (2, 3) for x, y in pairs]

    def test_matches_the_plain_route_on_random_trees(self, monkeypatch):
        budgets = [EvalBudget(max_depth=24, sup_samples=k) for k in (8, 16)]
        self._agree(monkeypatch, self._random_cases(budgets))

    def test_matches_the_plain_route_on_short_and_cut_runs(self, monkeypatch):
        # The chain counts samples by position, so a run of 1-3 points past
        # the seeds, or one the depth cap cuts, must still line up with the
        # points: both answers and refusals are swept.
        budgets = [EvalBudget(max_depth=24, sup_samples=k) for k in (1, 2, 3)]
        budgets += [EvalBudget(max_depth=d) for d in (1, 2, 3)]
        cases = self._random_cases(budgets)
        self._agree(monkeypatch, cases)
        outcomes = {_traced(*case)[0] for case in cases}
        assert BudgetExceeded in outcomes and len(outcomes) > 2

    def test_sup_limit_matches_the_plain_route_at_every_level(self, monkeypatch):
        # Supremum at a principal limit beta, up to w^(w+1): _eval answers
        # level 1 by addition and samples at levels 2 and up, where only
        # levels 2 and 3 may take the chain.
        value = lambda text: eval_expr(parse(text))
        pairs = [("w", "w"), ("w+1", "w^2"), ("2", "w^3"), ("w^2+3", "w^(w+1)")]
        budgets = [EvalBudget(max_depth=24, sup_samples=k) for k in (8, 16)]
        self._agree(monkeypatch, [
            (n, value(a), value(b), budget)
            for budget in budgets for n in (1, 2, 3, 4) for a, b in pairs
        ])
        assert synth(1, W, W, B) == add(W, W)
        assert synth(1, W, W2, B) == W2

    def test_matches_the_plain_route_under_tiny_bit_caps(self, monkeypatch):
        # The level-3 fold's closed power refuses a non-principal
        # H^(k-1) once k - 1 exceeds max_bits; the chain must refuse too.
        value = lambda text: eval_expr(parse(text))
        pairs = [("w+1", "w^2"), ("w*2+1", "w^3"), ("w^2+w", "w^(w+1)")]
        self._agree(monkeypatch, [
            (3, value(a), value(b), EvalBudget(max_bits=bits, sup_samples=16))
            for bits in (1, 2, 3, 4, 6) for a, b in pairs
        ])

    @given(
        st.sampled_from((2, 3)),
        ordinals(),
        st.one_of(ordinals(), ordinals(2).map(lambda g: omega_power(successor(g)))),
        st.integers(1, 10),
        st.integers(1, 8),
    )
    def test_a_fresh_memo_looks_up_no_chained_sample(self, n, alpha, beta, samples, bits):
        # On a fresh memo only the top-level beta, stored last, and the
        # level-3 bit-cap fallback's samples (k - 1 > max_bits, the ones
        # the chain never reads) could be w^g*k, so the chain does not
        # look past lam[1]; value and work are still the plain route's.
        budget = EvalBudget(max_depth=24, max_bits=bits, sup_samples=samples)
        with pytest.MonkeyPatch.context() as patch:
            lookups = _ChainLookups(patch)
            chained = _traced(n, alpha, beta, budget)[:2]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthesis, "_sup", _plain_sup)
            plain = _traced(n, alpha, beta, budget)[:2]
        assert lookups.lookups == 0
        assert chained == plain

    @pytest.mark.parametrize("n, alpha, beta, point, work, saved", [
        (2, "w+1", "w^2", "w*3", 18, 3),
        (3, "w+2", "w^3", "w^2*5", 11, 2),
    ])
    def test_a_sample_the_caller_evaluated_is_a_free_hit(
        self, monkeypatch, n, alpha, beta, point, work, saved
    ):
        # The caller evaluates the sample w^g*k first, on the memo it then
        # shares: the chain finds it, free, as the plain route does.  With
        # the lookup blinded, the chain charges that sample's steps (at k,
        # 1 + (k-1).bit_length() at level 2 and 2 at level 3).
        value = lambda text: eval_expr(parse(text))
        alpha, beta, point = value(alpha), value(beta), value(point)
        outcomes = []
        for route in ("chained", "plain", "blind"):
            memo = {}
            synth(n, alpha, point, B, memo=memo)
            with monkeypatch.context() as patch:
                if route == "chained":
                    lookups = _ChainLookups(patch)
                elif route == "plain":
                    patch.setattr(synthesis, "_sup", _plain_sup)
                else:
                    patch.setattr(synthesis, "interned", lambda terms: None)
                ctx = Meter(B, memo)
                outcomes.append((_eval(ctx, n, alpha, beta, 0), ctx.work, memo))
        (*chained, memo), (*plain, plain_memo), (*blind, _) = outcomes
        assert chained == plain == [synth(n, alpha, beta, B), work]
        assert blind == [chained[0], work + saved]
        assert all(table.items() <= plain_memo[key].items() for key, table in memo.items())
        assert (lookups.lookups, lookups.hits) == (B.sup_samples - 2, 1)

    def test_chain_points_are_the_seeds_then_the_positions(self):
        # sample_and_infer hands each entry to eval_at in order: 0, 1,
        # lam[0] = 0 and lam[1] = w^g, then k for the chained w^g*k.
        synthesis._chain_points.cache_clear()
        for g in (ZERO, ONE, W):
            lam = omega_power(successor(g))
            for n in (1, 2, 3, 8):
                want = (ZERO, ONE, ZERO, omega_power(g), *range(2, n))[:n + 2]
                assert synthesis._chain_points(lam, n) == want
        info = synthesis._chain_points.cache_info()
        assert (info.maxsize, info.currsize) == (256, 12)

    def test_the_deep_report_hits_111_of_its_chained_lookups(self, monkeypatch):
        # The index-2 report below w^(w^3) shares one memo: 6,030 chained
        # samples are looked up there, and 111 found, each charged nothing.
        lookups = _ChainLookups(monkeypatch)
        enumerate_main_numbers(2, pow_(W, pow_(W, nat(3), B), B), budget=B)
        assert (lookups.lookups, lookups.hits) == (6030, 111)

    @pytest.mark.parametrize("n, alpha, beta, samples, expected, work, entries", [
        (2, "w+1", "w^3", 8, "w^4", 65, 5),
        (2, "w^2+3", "w^(w+2)*2+w", 8, "w^(w+2)*2+w^3", 195, 13),
        (3, "w+2", "w^2*3+w", 8, "w^(w^2*3+w)", 30, 5),
        (3, "2", "w^3", 16, "w^(w^2)", 89, 5),
        (2, "w^w+1", "w^(w^2+1)", 16, "w^(w^2+1)", 13578, 244),
        (3, "w", "w^(w+1)", 8, "w^(w^(w+1))", 107, 11),
    ])
    def test_work_and_memo_counts_are_pinned(self, n, alpha, beta, samples, expected, work, entries):
        # Work counts of the plain route, frozen: the chain charges the same
        # steps.  The memo holds _eval's entries, not the chained samples.
        value = lambda text: eval_expr(parse(text))
        *got, memo = _traced(n, value(alpha), value(beta), EvalBudget(sup_samples=samples))
        assert (*got, sum(map(len, memo.values()))) == (value(expected), work, entries)

    @pytest.mark.parametrize("entry, n, alpha, beta, budget, expected, work, entries", [
        (_eval, 2, "w+1", "w^2*1000000+w*77+5", B, "w^3*1000000+w^2*77+w*5+1", 75, 5),
        (_eval, 2, "w^2+3", "w^(w+1)*65537+w^3*3+1", B, "w^(w+1)*65537+w^5*3+w^2+3", 191, 12),
        (_eval, 2, "3", "w*1048577+9", EvalBudget(sup_samples=16), "w*1048577+27", 88, 4),
        (synthesis._naive, 2, "3", "w*2+1000001", B, "w", 71, 17),
        (synthesis._naive, 2, "w+1", "w^2+w*5+70000", B, "w^2", 319, 98),
        # Each sample k of w runs k copies at depth 1, the depth cap.
        (synthesis._naive, 2, "w+1", "w+70000", EvalBudget(max_depth=1), "w^2", 43, 9),
    ])
    def test_level_one_runs_are_charged_in_bulk(
        self, entry, n, alpha, beta, budget, expected, work, entries
    ):
        # A level-1 run of count units (up to 1048577 here) costs
        # count.bit_length() steps at the fold's own depth.
        value = lambda text: eval_expr(parse(text))
        *got, memo = _traced(n, value(alpha), value(beta), budget, entry)
        assert (*got, sum(map(len, memo.values()))) == (value(expected), work, entries)


def _evaluation(n, alpha, beta, budget):
    """(value or refusal, work steps, memo contents) of a fresh evaluation."""
    ctx = Meter(budget)
    try:
        value = _eval(ctx, n, alpha, beta, 0)
    except (BudgetExceeded, NotRepresentable) as err:
        value = (type(err), str(err))
    return value, ctx.work, ctx.memo


class TestShared:
    """synthesis._shared, the LRU of chains and closed powers shared across
    evaluations.  A hit skips only arithmetic, never a step or a refusal."""

    ANSWERS = [
        (2, "w+1", "w^3", B), (2, "w^2+3", "w^(w+2)*2+w", B),
        (3, "w+2", "w^2*3+w", B), (3, "2", "w^3", EvalBudget(sup_samples=16)),
        (3, "w*2+1", "w^3", EvalBudget(max_bits=2, sup_samples=16)),
        (4, "2", "w*2", B), (4, "w+1", "2", B),
    ]
    # Two towers, a power over the bit cap, and a chained sample over it.
    REFUSALS = [
        (4, "3", "w^2", B), (4, "2", "w^2", EvalBudget(sup_samples=16)),
        (3, "2", "20000", B), (2, mul(W, nat(2**16383)), "w", B),
    ]

    @staticmethod
    def _args(n, alpha, beta, budget):
        value = lambda x: eval_expr(parse(x)) if isinstance(x, str) else x
        return n, value(alpha), value(beta), budget

    @pytest.mark.parametrize("case", ANSWERS + REFUSALS)
    def test_warm_evaluation_matches_cold(self, case):
        args = self._args(*case)
        synthesis._shared.cache_clear()
        cold = _evaluation(*args)
        assert _evaluation(*args) == cold

    @pytest.mark.parametrize("case", ANSWERS)
    def test_warm_answers_hit(self, case):
        args = self._args(*case)
        synthesis._shared.cache_clear()
        _evaluation(*args)
        hits = synthesis._shared.cache_info().hits
        _evaluation(*args)
        assert synthesis._shared.cache_info().hits > hits

    @pytest.mark.parametrize("case, refusal", zip(REFUSALS, [
        (NotRepresentable, "samples climb a w-tower; the supremum is not below epsilon_0"),
        (NotRepresentable, "samples climb a w-tower; the supremum is not below epsilon_0"),
        (BudgetExceeded, "2^19999 exceeds the bit budget"),
        (BudgetExceeded, "a 16385-bit natural exceeds the 16384-bit cap"),
    ]))
    def test_refusals_keep_their_messages_warm(self, case, refusal):
        args = self._args(*case)
        synthesis._shared.cache_clear()
        for _ in range(2):
            assert _evaluation(*args)[0] == refusal

    def test_budget_is_part_of_the_power_key(self):
        synthesis._shared.cache_clear()
        assert synth(3, nat(2), nat(20000), EvalBudget(max_bits=10**6)) == nat(2**20000)
        with pytest.raises(BudgetExceeded, match=r"^2\^19999 exceeds the bit budget$"):
            synth(3, nat(2), nat(20000), B)

    def test_holds_chains_and_powers_only(self):
        # A level-1 run's product is not kept; a level-2 run's power and
        # each level-2 chain (here of H = w and H = w^2) are.
        synthesis._shared.cache_clear()
        synth(2, W, nat(5), B)
        assert synthesis._shared.cache_info().currsize == 0
        synth(3, add(W, ONE), nat(5), B)
        assert synthesis._shared.cache_info().currsize == 1
        synth(2, W, W2, B)
        assert synthesis._shared.cache_info().currsize == 3

    def test_size_is_bounded(self):
        for k in range(1, 300):
            synthesis._shared(mul, W, nat(k))
        info = synthesis._shared.cache_info()
        assert info.maxsize == 256 and info.currsize == 256

    def test_clearing_frees_values_only_the_cache_held(self):
        # synth(2, alpha, w^2) leaves the chain H, H*2, ..., H*7 of
        # H = alpha*w = w^982451654 in the cache, and no memo.  lub's
        # rule-search cache holds sample runs of the same values on
        # purpose, so it is emptied too.
        alpha = add(omega_power(nat(982451653)), ONE)
        synth(2, alpha, W2, B)
        head, last = (synth(2, alpha, beta, B) for beta in (W, mul(W, nat(7))))
        refs = [weakref.ref(head), weakref.ref(last)]
        keys = [head.terms, last.terms]
        del alpha, head, last
        gc.collect()
        assert all(r() is not None for r in refs)
        synthesis._shared.cache_clear()
        lub._infer_increasing.cache_clear()
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(k in ordinal._TABLE for k in keys)

    def test_threads_extending_one_chain_agree(self):
        # Eight threads sample the same level-2 and level-3 chains at once,
        # with a short switch interval; each must see what a lone
        # evaluation sees.
        alpha = eval_expr(parse("w^2+3"))
        cases = [(n, alpha, W2, EvalBudget(sup_samples=s)) for n in (2, 3) for s in (12, 24)]
        want = [_evaluation(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                synthesis._shared.cache_clear()
                got = [None] * 8
                def run(i):
                    got[i] = _evaluation(*cases[i % 4])
                threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [want[i % 4] for i in range(8)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("text, calls", [
        ("S(4,2,w^2)", 6), ("S(4,2,w^3)", 6), ("S(4,2,w^w)", 6),
        ("S(4,3,w^2)", 5), ("S(4,2,w*2)", 5),
    ])
    @pytest.mark.parametrize("samples", [8, 16])
    def test_level_four_makes_each_power_once(self, monkeypatch, text, calls, samples):
        # Sample k of a level-4 supremum runs the powers of sample k - 1
        # and one more, so each distinct power is made once.
        made = []
        real = synthesis.pow_
        monkeypatch.setattr(synthesis, "pow_", lambda *args: made.append(args) or real(*args))
        synthesis._shared.cache_clear()
        try:
            eval_expr(parse(text), EvalBudget(sup_samples=samples))
        except NotRepresentable:
            pass
        assert len(made) == calls


class TestTransfiniteFixtures:
    def test_multiplication_level(self):
        assert synth(2, W, W, B) == W2
        # w^w * w^(w*2) = w^(w*3)
        assert synth(2, WW, pow_(W, mul(W, nat(2)), B), B) == pow_(W, mul(W, nat(3)), B)

    def test_exponentiation_level(self):
        assert synth(3, W, W, B) == WW
        assert synth(3, nat(2), W, B) == W          # sup of 2^k
        assert synth(3, add(W, ONE), W, B) == WW    # sup of (w+1)^k
        assert synth(3, W, W2, B) == pow_(W, W2, B)

    def test_tetration_level_finite_base(self):
        # sup of 2^^k and 3^^k over finite k is already w.
        assert synth(4, nat(2), W, B) == W
        assert synth(4, nat(3), W, B) == W
        # One step past w squares the accumulator at the level below:
        # <2, w+1> = <<2, w>, 2> at level 3 = w^2, then w+2 squares again.
        assert synth(4, nat(2), add(W, ONE), B) == W2
        assert synth(4, nat(2), add(W, nat(2)), B) == pow_(W, nat(4), B)
        # At w*2 the exponents 1, 2, 4, 8, ... run away: sup is w^w.
        assert synth(4, nat(2), mul(W, nat(2)), B) == WW

    def test_tetration_with_infinite_base_escapes(self):
        with pytest.raises(NotRepresentable):
            synth(4, W, W, B)

    def test_truncated_product_run_is_refused_not_a_tower(self):
        # The samples of w * w^w^w^w run out of budget after 0, w, w^w,
        # w^(w^w); their climbing heights do not make the product a tower.
        with pytest.raises(BudgetExceeded):
            synth(2, W, omega_power(omega_power(WW)), B)

    def test_level_five_tower_is_cut_off(self):
        with pytest.raises(BudgetExceeded):
            synth(5, nat(3), nat(3), B)


class TestMonotonicity:
    def test_strictly_monotone_in_right_argument(self):
        betas = [nat(2), nat(5), W, add(W, ONE), add(W, nat(2)), mul(W, nat(2))]
        for alpha in (nat(2), nat(3), W):
            for n in (2, 3):
                values = [synth(n, alpha, b, B) for b in betas]
                for lo, hi in zip(values, values[1:]):
                    assert lo < hi, (n, alpha)

    def test_tetration_monotone_where_defined(self):
        betas = [W, add(W, ONE), add(W, nat(2)), mul(W, nat(2))]
        values = [synth(4, nat(2), b, B) for b in betas]
        assert values == sorted(values) and len(set(values)) == len(values)

    def test_weakly_monotone_in_left_argument(self):
        # alpha <= alpha' gives S(n,alpha,beta) <= S(n,alpha',beta) wherever
        # both calls answer; the grid is listed in increasing order.
        grid = [eval_expr(parse(s)) for s in (
            "0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w",
            "w^w", "w^w*2", "w^(w+1)", "w^(w^2)")]
        assert grid == sorted(grid)
        pairs = 0
        for n in (1, 2, 3, 4):
            for beta in grid:
                row = []
                for alpha in grid:
                    try:
                        row.append(synth(n, alpha, beta, B))
                    except (BudgetExceeded, NotRepresentable):
                        row.append(None)
                for i, lo in enumerate(row):
                    for hi in row[i + 1:]:
                        if lo is not None and hi is not None:
                            pairs += 1
                            assert lo <= hi, (n, beta)
        assert pairs > 3000  # 3363 at the default budget


class TestNaiveExtension:
    def test_collapse_above_omega(self):
        # The literal lift cannot tell any infinite right operand apart.
        base = naive_ext(2, W, W, B)
        assert base == W2
        for beta in (add(W, ONE), mul(W, nat(2)), W2):
            assert naive_ext(2, W, beta, B) == base

    def test_collapse_with_finite_base(self):
        assert naive_ext(3, nat(2), W, B) == W
        assert naive_ext(3, nat(2), add(W, nat(3)), B) == W

    def test_collapse_even_with_infinite_base(self):
        # Successor steps at level 2 send any accumulator >= w^2 back to
        # itself, so the tower of values stalls at w^2.
        assert naive_ext(3, W, add(W, nat(2)), B) == W2

    def test_tables_at_negated_levels_keep_naive_values_apart(self):
        # One memo holds both evaluators: naive_ext's tables sit at -n,
        # so the ladder's value at the same (n, alpha, beta) stays its own.
        ctx = Meter(B)
        beta = add(W, nat(2))
        assert synthesis._naive(ctx, 3, nat(2), beta, 0) == W
        assert {level for level, _ in ctx.memo} == {-3, -2}
        assert synthesis._eval(ctx, 3, nat(2), beta, 0) == mul(W, nat(4))
        assert {level for level, _ in ctx.memo} == {-3, -2, 3}
        assert ctx.memo[-3, nat(2)][beta] == W

    def test_ladder_does_not_collapse_there(self):
        assert synth(2, W, add(W, ONE), B) == add(W2, W)
        assert synth(3, W, add(W, nat(2)), B) == pow_(W, add(W, nat(2)), B)

    def test_agrees_with_ladder_on_naturals(self):
        for n in (1, 2, 3):
            for a in range(5):
                for b in range(5):
                    assert naive_ext(n, nat(a), nat(b), B) == synth(n, nat(a), nat(b), B)


class TestDistribution:
    def test_agreement_cases(self):
        cases = [
            (2, W, add(W, ONE)),
            (3, W, mul(W, nat(2))),
            (4, nat(2), add(W, ONE)),
            (3, add(W, ONE), add(W2, W)),
        ]
        for n, alpha, beta in cases:
            check = distributes(n, alpha, beta, B)
            assert isinstance(check, DistributionCheck)
            assert check.agrees
            assert check.folded == check.direct

    def test_fold_value_is_reported(self):
        check = distributes(2, W, add(W, ONE), B)
        assert check.direct == add(W2, W)

    def test_needs_a_fold_level(self):
        with pytest.raises(OrdinalDomainError):
            distributes(1, W, add(W, ONE), B)

    def test_needs_two_units(self):
        with pytest.raises(OrdinalDomainError):
            distributes(2, W, W, B)
        with pytest.raises(OrdinalDomainError):
            distributes(2, W, ZERO, B)


class TestDomainAndMemo:
    # Each entry point raises exactly this error type and message.
    ENTRY_POINTS = (synth, naive_ext, distributes)

    def test_index_validation(self):
        for evaluate in self.ENTRY_POINTS:
            for bad in (0, -1, 2.0, True):
                with pytest.raises(OrdinalDomainError) as exc:
                    evaluate(bad, W, add(W, ONE), B)
                assert type(exc.value) is OrdinalDomainError
                assert str(exc.value) == f"operation index must be an integer >= 1, got {bad!r}"

    def test_operands_must_be_ordinals(self):
        for evaluate in self.ENTRY_POINTS:
            for bad in (3, "w", None):
                for operands in ((bad, add(W, ONE)), (W, bad)):
                    with pytest.raises(OrdinalDomainError) as exc:
                        evaluate(2, *operands, B)
                    assert type(exc.value) is OrdinalDomainError
                    assert str(exc.value) == f"expected an Ordinal, got {bad!r}"

    @pytest.mark.parametrize(
        "evaluate, beta",
        [(synth, nat(2)), (naive_ext, nat(2)), (distributes, nat(2))],
        ids=["synth", "naive_ext", "distributes"],
    )
    def test_interpreter_stack_overflow_is_refused(self, evaluate, beta):
        # A depth cap past the interpreter stack lets the stack overflow
        # first; every entry point reports that as a budget refusal.
        with pytest.raises(BudgetExceeded, match="interpreter stack"):
            evaluate(3000, nat(2), beta, EvalBudget(max_depth=5000))

    def test_shared_memo_reproduces_results(self):
        memo = {}
        first = synth(4, nat(2), add(W, ONE), B, memo=memo)
        again = synth(4, nat(2), add(W, ONE), B, memo=memo)
        assert first == again == W2
        # The memo must have been consulted, not just written.
        assert add(W, ONE) in memo[4, nat(2)]

    def test_identity_steps(self):
        for n in (2, 3, 4, 7):
            assert synth(n, W, ZERO, B) == (ZERO if n == 2 else ONE)
            assert synth(n, W, ONE, B) == W

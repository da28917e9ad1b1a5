"""Closure scanning: candidate lattices, verdicts with witnesses, and the
deterministic report JSON."""
import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import W, nat

from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget
from transfinite import arithmetic, cli, lub, mains, ordinal, synthesis
from transfinite.errors import BudgetExceeded, NotRepresentable, OrdinalDomainError
from transfinite.mains import (
    DEFAULT_LATTICE_SPEC,
    MainVerdict,
    candidate_lattice,
    enumerate_main_numbers,
    is_main_number,
)
from transfinite.ordinal import (
    ONE, ZERO, Ordinal, fundamental_prefix, is_additive_principal, is_successor,
)
from transfinite.synthesis import synth

B = EvalBudget()
W2 = pow_(W, nat(2), B)
WW = pow_(W, W, B)


class TestCandidateLattice:
    def test_default_spec_and_size(self):
        assert DEFAULT_LATTICE_SPEC == (3, 5, 1)
        lattice = candidate_lattice()
        assert len(lattice) == 156
        assert lattice[0] == ZERO
        assert lattice == sorted(lattice)

    def test_contains_the_small_naturals(self):
        lattice = candidate_lattice()
        for k in range(6):
            assert nat(k) in lattice

    def test_deterministic(self):
        assert candidate_lattice() == candidate_lattice()
        assert candidate_lattice(depth=2, coeff=3, terms=2) == candidate_lattice(
            depth=2, coeff=3, terms=2
        )

    def test_bound_filters(self):
        bound = pow_(W, nat(3), B)
        bounded = candidate_lattice(bound=bound)
        assert len(bounded) == 17
        assert max(bounded) == bound
        assert all(x <= bound for x in bounded)

    def test_spec_validation(self):
        for kw in ({"depth": 0}, {"coeff": 0}, {"terms": 0}, {"depth": -1}, {"coeff": 1.5}):
            with pytest.raises(OrdinalDomainError):
                candidate_lattice(**kw)

    def test_bound_must_be_an_ordinal(self):
        with pytest.raises(OrdinalDomainError, match=r"^lattice bound must be an Ordinal, got 3$"):
            candidate_lattice(bound=3)

    def test_runaway_spec_is_capped(self, monkeypatch):
        built = []
        monkeypatch.setattr(mains, "Ordinal", lambda terms: built.append(terms) or Ordinal(terms))
        with pytest.raises(BudgetExceeded):
            candidate_lattice(depth=3, coeff=30, terms=3)
        # Refused by its size before depth 2 builds a single entry.
        assert len(built) == 30

    def test_size_check_agrees_with_the_loop(self, monkeypatch):
        # The up-front count refuses exactly the specs the building loop
        # refuses, with the same message, and changes no lattice it builds.
        def by_loop(depth, coeff, terms):
            pool = dict.fromkeys([ZERO])
            for _ in range(depth):
                exponents = sorted(pool, reverse=True)
                grown = dict.fromkeys(pool)
                for r in range(1, terms + 1):
                    for combo in itertools.combinations(exponents, r):
                        for coeffs in itertools.product(range(1, coeff + 1), repeat=r):
                            grown[Ordinal(tuple(zip(combo, coeffs)))] = None
                            if len(grown) > mains.LATTICE_CAP:
                                raise BudgetExceeded(
                                    f"candidate lattice exceeds {mains.LATTICE_CAP} entries"
                                )
                pool = grown
            return sorted(pool)

        def outcome(build, spec):
            try:
                return build(*spec)
            except BudgetExceeded as exc:
                return str(exc)

        cases = [
            (cap, spec)
            for cap in (30, 300, 3000)
            for spec in itertools.product((1, 2, 3), (1, 2, 4), (1, 2, 3))
        ]
        # fresh == LATTICE_CAP: the default spec's depth 3 makes 155 new
        # entries, so the zero alone takes the pool past a cap of 155.
        cases += [(155, DEFAULT_LATTICE_SPEC), (156, DEFAULT_LATTICE_SPEC)]
        outcomes = []
        for cap, spec in cases:
            monkeypatch.setattr(mains, "LATTICE_CAP", cap)
            want = outcome(by_loop, spec)
            assert outcome(candidate_lattice, spec) == want, (cap, spec)
            outcomes.append(want)
        refused = sum(isinstance(want, str) for want in outcomes)
        assert 0 < refused < len(cases)
        assert outcomes[-2] == "candidate lattice exceeds 155 entries"
        assert len(outcomes[-1]) == 156

    def test_calls_return_fresh_lists(self):
        first, second = candidate_lattice(), candidate_lattice()
        assert first == second and first is not second
        first.clear()
        assert candidate_lattice() == second and len(second) == 156

    def test_cap_is_tested_on_a_cached_lattice(self, monkeypatch):
        candidate_lattice()
        assert mains._lattice.cache_info().currsize == 1
        monkeypatch.setattr(mains, "LATTICE_CAP", 155)
        with pytest.raises(BudgetExceeded, match="^candidate lattice exceeds 155 entries$"):
            candidate_lattice()
        monkeypatch.setattr(mains, "LATTICE_CAP", 156)
        assert len(candidate_lattice()) == 156

    def test_cache_holds_one_lattice(self):
        for spec in [(1, 3, 1), (2, 2, 2), DEFAULT_LATTICE_SPEC, (2, 2, 2)]:
            candidate_lattice(*spec)
            assert mains._lattice.cache_info().currsize <= 1
        with pytest.raises(BudgetExceeded):
            candidate_lattice(depth=3, coeff=30, terms=3)
        assert mains._lattice.cache_info().currsize <= 1

    def test_bound_is_the_filtered_lattice(self):
        for spec in [DEFAULT_LATTICE_SPEC, (2, 3, 2)]:
            full = candidate_lattice(*spec)
            # Every member (zero among them), then x + 1 and x*2 of each:
            # non-members between members and values above the top.
            bounds = set(full) | {add(x, ONE) for x in full} | {mul(x, nat(2)) for x in full}
            assert any(b not in full and b < full[-1] for b in bounds)
            assert any(b > full[-1] for b in bounds)
            for b in bounds:
                assert candidate_lattice(*spec, bound=b) == [x for x in full if x <= b], b

    def test_clearing_frees_a_value_only_the_cache_held(self):
        top = candidate_lattice(3, 11, 1)[-1]
        assert str(top) == "w^(w^11*11)*11"
        ref, key = weakref.ref(top), top.terms
        del top
        gc.collect()
        assert ref() is not None
        mains._lattice.cache_clear()
        gc.collect()
        assert ref() is None and key not in ordinal._TABLE


class TestIsMainNumber:
    def test_omega_is_additively_main(self):
        verdict = is_main_number(1, W, budget=B)
        assert isinstance(verdict, MainVerdict)
        assert verdict.main
        assert verdict.witness is None

    def test_one_is_additively_main(self):
        assert is_main_number(1, ONE, budget=B).main

    def test_two_is_refuted_by_one_plus_one(self):
        verdict = is_main_number(1, nat(2), budget=B)
        assert not verdict.main
        assert verdict.witness == (ONE, ONE)
        assert verdict.value == nat(2)

    def test_omega_times_two_is_refuted(self):
        verdict = is_main_number(1, mul(W, nat(2)), budget=B)
        assert not verdict.main
        alpha, beta = verdict.witness
        # The witness must re-verify through the operation itself.
        assert synth(1, alpha, beta, B) >= mul(W, nat(2))

    def test_multiplicative_witness(self):
        verdict = is_main_number(2, mul(W, nat(2)), budget=B)
        assert not verdict.main
        assert verdict.witness == (W, nat(2))
        assert verdict.value == mul(W, nat(2))

    def test_omega_power_omega_is_multiplicatively_main(self):
        assert is_main_number(2, pow_(W, W, B), budget=B).main

    def test_candidate_must_be_positive(self):
        with pytest.raises(OrdinalDomainError):
            is_main_number(1, ZERO, budget=B)

    def test_index_validation(self):
        with pytest.raises(OrdinalDomainError):
            is_main_number(0, W, budget=B)

    @pytest.mark.parametrize("spec", [(3, 5), (3, 5, 1, 1)], ids=["two", "four"])
    def test_lattice_spec_has_three_entries(self, spec):
        with pytest.raises(OrdinalDomainError, match=r"^lattice_spec must be \(depth, coeff, terms\)"):
            is_main_number(1, W, spec, B)


class TestEnumerate:
    def test_additive_mains_below_w5(self):
        report = enumerate_main_numbers(1, pow_(W, nat(5), B), budget=B)
        assert [str(x) for x in report.confirmed_infinite] == [
            "w", "w^2", "w^3", "w^4", "w^5",
        ]
        assert report.all_match

    def test_conjecture_ranks_agree_with_ladder(self):
        # Rank r of the op-i scan should be the level-(i+1) value at w^r.
        report = enumerate_main_numbers(2, pow_(W, pow_(W, nat(2), B), B), budget=B)
        for rank, value in enumerate(report.confirmed_infinite):
            assert value == synth(3, W, pow_(W, nat(rank), B), B)

    def test_unrepresentable_expected_column(self):
        # At op index 3 the rank-1 prediction is tetration at w, which
        # escapes epsilon_0; the row must say so rather than fail.
        report = enumerate_main_numbers(3, pow_(W, W, B), budget=B)
        assert [str(x) for x in report.confirmed_infinite] == ["w"]
        rows = report.json_dict()["conjectured_match"]
        assert rows[0] == {"rank": 0, "expected": "w", "observed": "w", "match": True}
        assert rows[1]["expected"] == "NotRepresentable"
        assert report.all_match

    # The principal numbers of add, mul and pow_: 1 and w^x; 1, 2 and
    # w^(w^x); 2 and w (0^0 = 1 refutes 1, and the next is epsilon_0).
    PRINCIPAL = {
        1: (add, is_additive_principal),
        2: (mul, lambda x: x in (ONE, nat(2)) or (
            is_additive_principal(x) and is_additive_principal(x.terms[0][0]))),
        3: (pow_, lambda x: x in (nat(2), W)),
    }

    @classmethod
    def _check_principal(cls, i, bound, spec=DEFAULT_LATTICE_SPEC):
        # Indices 1-3 confirm exactly the principal numbers in the lattice,
        # and each refutation's witness re-checks against the closed form.
        op, principal = cls.PRINCIPAL[i]
        report = enumerate_main_numbers(i, bound, spec, B)
        assert report.confirmed == tuple(
            filter(principal, candidate_lattice(*spec, bound=bound)[1:])), bound
        assert report.pairs_skipped == 0
        for verdict in report.refuted:
            alpha, beta = verdict.witness
            assert max(alpha, beta) < verdict.candidate, verdict
            assert verdict.value == op(alpha, beta) >= verdict.candidate, verdict
        return report

    @pytest.mark.parametrize("i, top, count", [
        (1, pow_(W, WW, B), 31), (2, pow_(W, W2, B), 5), (3, pow_(W, W2, B), 2),
    ], ids=["add", "mul", "pow"])
    def test_verdicts_are_the_principal_numbers(self, i, top, count):
        # Every candidate of the default lattice up to top as the bound.
        for bound in candidate_lattice(bound=top)[1:]:
            report = self._check_principal(i, bound)
        assert len(report.confirmed) == count

    @given(st.sampled_from(sorted(PRINCIPAL)),
           st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 3)), st.data())
    def test_small_lattices_confirm_the_principal_numbers(self, i, spec, data):
        bound = data.draw(st.sampled_from(candidate_lattice(*spec)[1:]), label="bound")
        self._check_principal(i, bound, spec)

    def test_index_validation(self):
        with pytest.raises(OrdinalDomainError):
            enumerate_main_numbers(0, W, budget=B)

    @pytest.mark.parametrize("spec", [(3, 5), (3, 5, 1, 1)], ids=["two", "four"])
    def test_lattice_spec_has_three_entries(self, spec):
        with pytest.raises(OrdinalDomainError, match=r"^lattice_spec must be \(depth, coeff, terms\)"):
            enumerate_main_numbers(1, W, spec, B)

    @pytest.mark.parametrize("bound", [ZERO, 5], ids=["zero", "not-an-ordinal"])
    def test_bound_must_be_a_positive_ordinal(self, bound):
        with pytest.raises(OrdinalDomainError, match="bound must be an Ordinal > 0"):
            enumerate_main_numbers(1, bound, budget=B)


class TestCollectorPause:
    CALLS = [
        pytest.param(lambda: is_main_number(1, W, budget=B), id="is_main_number"),
        pytest.param(lambda: enumerate_main_numbers(1, W, budget=B), id="enumerate"),
    ]

    @pytest.fixture(autouse=True)
    def collecting_after(self):
        yield
        gc.enable()

    @pytest.fixture
    def seen(self, monkeypatch):
        # The collector's state at each _classify call.
        states = []

        def recording(*args, real=mains._classify):
            states.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(mains, "_classify", recording)
        return states

    @pytest.mark.parametrize("call", CALLS)
    def test_paused_during_the_call_and_resumed_after(self, call, seen):
        gc.enable()
        call()
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("call", CALLS)
    def test_a_disabled_collector_stays_disabled(self, call, seen):
        gc.disable()
        call()
        assert seen and not any(seen)
        assert not gc.isenabled()

    @pytest.mark.parametrize("call", CALLS)
    def test_resumed_after_a_raise(self, call, monkeypatch):
        def raising(*args):
            raise BudgetExceeded("refused for the test")

        monkeypatch.setattr(mains, "_classify", raising)
        gc.enable()
        with pytest.raises(BudgetExceeded, match="refused for the test"):
            call()
        assert gc.isenabled()

    def test_the_public_functions_stay_unwrapped(self):
        # perfbench's worker refuses an untraced pass over a wrapped function.
        assert not hasattr(is_main_number, "__wrapped__")
        assert not hasattr(enumerate_main_numbers, "__wrapped__")


class TestPointTable:
    """A report's memo is a plain dict, and every supremum it samples at
    real points takes them from lub._points, the one 256-entry LRU of
    sample points.  A chained supremum (levels 2 and 3 at lam = w^(g+1))
    hands sample_and_infer synthesis._chain_points(lam, n) instead, its
    seeds 0, 1, 0, w^g and then positions, so lub._points never sees its
    limit."""

    DEEP = pow_(W, pow_(W, nat(3), B), B)
    CACHES = (lub._points, lub._infer_increasing, synthesis._shared, synthesis._chain_points,
              arithmetic._small_power)

    @classmethod
    def _report(cls, monkeypatch, budget):
        # The report's memo, after it ran.
        memos = []

        def recording(i, alpha, beta, budget, memo):
            memos.append(memo)
            return synth(i, alpha, beta, budget, memo=memo)

        monkeypatch.setattr(mains, "synth", recording)
        enumerate_main_numbers(2, cls.DEEP, budget=budget)
        return memos[0]

    @pytest.mark.parametrize("samples, limits, hits", [
        pytest.param(8, 40, 121, id="8-40"),
        pytest.param(16, 80, 231, id="16-80"),
    ])
    def test_one_entry_per_distinct_limit(self, monkeypatch, samples, limits, hits):
        # The LRU builds each limit's points once: one miss per distinct
        # limit, every other lookup a hit.
        handed, built, seeded = [], [], []
        cache = lub._points
        cache.cache_clear()

        def sampling(eval_at, lam, meter, real=lub.sample_and_infer):
            if type(lam) is tuple:
                handed.append(lam)
            return real(eval_at, lam, meter)

        def points(lam, n):
            built.append(lam)
            return cache(lam, n)

        def seeds(lam, n, real=synthesis._chain_points):
            seeded.append((lam, n))
            return real(lam, n)

        monkeypatch.setattr(synthesis, "sample_and_infer", sampling)
        monkeypatch.setattr(lub, "_points", points)
        monkeypatch.setattr(synthesis, "_chain_points", seeds)
        assert type(self._report(monkeypatch, EvalBudget(sup_samples=samples))) is dict
        info = cache.cache_info()
        assert (info.hits, info.misses) == (hits, limits) == (len(built) - limits, len(set(built)))
        # Every other supremum is chained: the report's levels are 2 and 3,
        # where a limit is chained exactly when its exponent is a successor.
        assert all(not is_successor(lam.terms[0][0]) for lam in built)
        assert len(seeded) == len(handed) > len(built)
        for (lam, n), points in zip(seeded, handed):
            assert n == samples and is_successor(lam.terms[0][0])
            assert points == (ZERO, ONE, *fundamental_prefix(lam, 2), *range(2, samples))

    def test_the_points_die_with_the_memo(self, monkeypatch):
        # With the collector off throughout, reference counting frees every
        # value the report built once its memo is dropped and the
        # process-wide caches are emptied, and the report leaves no cyclic
        # garbage.  Values alive before the report, the lattice among them,
        # are left out; the caches are emptied first too, so what earlier
        # calls left in them is not counted as alive before.
        candidate_lattice()
        for cache in self.CACHES:
            cache.cache_clear()
        gc.collect()
        gc.disable()
        try:
            before = set(ordinal._TABLE)
            memo = self._report(monkeypatch, EvalBudget(sup_samples=16))
            assert type(memo) is dict
            held = {x for (_, alpha), table in memo.items()
                    for x in (alpha, *table, *table.values()) if x.terms not in before}
            refs = [weakref.ref(x) for x in held]
            assert len(refs) > 1000
            del memo, held
            monkeypatch.undo()
            for cache in self.CACHES:
                cache.cache_clear()
            assert all(ref() is None for ref in refs)
            assert set(ordinal._TABLE) <= before
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestReportJson:
    def test_key_order_and_shape(self):
        doc = enumerate_main_numbers(1, pow_(W, nat(3), B), budget=B).json_dict()
        assert list(doc.keys()) == [
            "op_index", "bound", "lattice_spec", "budget", "candidates_scanned",
            "confirmed", "confirmed_infinite", "refuted", "conjectured_match",
            "all_match", "pairs_skipped", "note",
        ]
        assert doc["op_index"] == 1
        assert doc["bound"] == "w^3"
        assert doc["lattice_spec"] == {"depth": 3, "coeff": 5, "terms": 1}
        assert list(doc["budget"].items()) == [
            ("max_depth", 256), ("max_bits", 16384), ("sup_samples", 8)]
        assert doc["confirmed"][0] == "1"
        assert doc["pairs_skipped"] == 0

    def test_refutations_carry_witnesses(self):
        doc = enumerate_main_numbers(1, pow_(W, nat(3), B), budget=B).json_dict()
        entry = doc["refuted"][0]
        assert entry == {"candidate": "2", "witness": ["1", "1"], "value": "2"}

    def test_byte_identical_across_runs(self):
        runs = [
            json.dumps(enumerate_main_numbers(1, pow_(W, nat(3), B), budget=B).json_dict())
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_every_refutation_reverifies(self):
        report = enumerate_main_numbers(1, pow_(W, nat(4), B), budget=B)
        for ref in report.refuted:
            assert ref.witness[0] < ref.candidate and ref.witness[1] < ref.candidate
            assert synth(1, *ref.witness, B) >= ref.candidate

    def test_refuted_holds_the_verdicts(self):
        # No pair is refused here, so both routes skip none.
        report = enumerate_main_numbers(1, pow_(W, nat(4), B), budget=B)
        assert report.refuted and report.pairs_skipped == 0
        for verdict in report.refuted:
            assert isinstance(verdict, MainVerdict)
            assert verdict == is_main_number(1, verdict.candidate, budget=B)


class TestSearch:
    """The monotone search settles each candidate as the plain scan does."""

    BOUNDS = [
        (1, pow_(W, pow_(W, nat(3), B), B)),
        (2, pow_(W, pow_(W, nat(2), B), B)),
        (3, pow_(W, pow_(W, nat(2), B), B)),
        (4, pow_(W, W, B)),
        (5, pow_(W, nat(3), B)),
    ]

    @staticmethod
    def _scanned(i, delta, entries, memo):
        # The scan's verdict: _classify with a search that refuses at once.
        def refuse(*args):
            raise BudgetExceeded("refused for the test")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mains, "_search", refuse)
            return mains._classify(i, delta, entries, B, memo)

    @classmethod
    def _routes(cls, i, bound, hints=lambda below: [None]):
        # Each candidate's search, once per hint that hints(below) gives,
        # against its scan; each route shares one memo over the candidates.
        entries = candidate_lattice(bound=bound)
        searched, scanned = {}, {}
        for k, delta in enumerate(entries[1:], 1):
            b = cls._scanned(i, delta, entries, scanned)
            for hint in hints(entries[:k]):
                a = mains._classify(i, delta, entries, B, searched, hint)
                yield a[:4], b[:4]

    @pytest.mark.parametrize("i, bound", BOUNDS)
    def test_same_verdicts_as_the_scan(self, i, bound):
        for searched, scanned in self._routes(i, bound):
            assert searched == scanned

    @pytest.mark.parametrize("i, bound", BOUNDS)
    def test_any_hint_gives_the_scans_verdict(self, i, bound):
        # The warm start is only a starting point: the first alpha, the
        # last, and every fourth of the way between give the same verdict.
        def hints(below):
            return [None, *below[::max(1, len(below) // 4)], below[-1]]

        for searched, scanned in self._routes(i, bound, hints):
            assert searched == scanned

    @given(st.data())
    def test_the_search_finds_the_scans_pair_on_any_monotone_table(self, data):
        # Synthetic escape tables, with no synth call: over n alphas,
        # (a, b) escapes iff b >= t[a] for a non-increasing threshold t,
        # so escaping grows weakly in both arguments.  The first `never`
        # alphas never escape (t[a] = n), so that one draw in n + 1 or so
        # is a main candidate.
        n = data.draw(st.integers(1, 8), label="n")
        never = data.draw(st.integers(0, n), label="never")
        rest = data.draw(st.lists(st.integers(0, n - 1), min_size=n - never, max_size=n - never))
        t = [n] * never + sorted(rest, reverse=True)
        below = list(range(n))
        probes = []

        def escapes(a, b):
            probes.append((a, b))
            return b >= t[a]

        want = mains._scan(escapes, below, set())
        for hint in [None, *below]:
            assert mains._search(escapes, below, hint) == want, hint
        probes.clear()
        mains._search(escapes, below, None)
        assert want is not None or len(probes) == 1

        # A refused probe propagates: the search gives the scan's pair
        # unless it probes the refusing pair, and then it raises.
        refusing = data.draw(st.tuples(st.sampled_from(below), st.sampled_from(below)))

        def refuses(a, b):
            probes.append((a, b))
            if (a, b) == refusing:
                raise BudgetExceeded("refused for the test")
            return b >= t[a]

        for hint in [None, *below]:
            probes.clear()
            try:
                found = mains._search(refuses, below, hint)
            except BudgetExceeded:
                assert probes[-1] == refusing, hint
            else:
                assert found == want and refusing not in probes, hint

    @pytest.mark.parametrize("i, bound", BOUNDS)
    def test_a_refutations_value_is_what_a_fresh_synth_gives(self, i, bound):
        # The value is read from the report's shared memo.  Where a fresh
        # call answers it is that answer, and it is None exactly where the
        # fresh call is NotRepresentable.  A pair the fresh call refuses is
        # skipped: a warm memo may answer where a fresh one refuses.
        checked = 0
        for verdict in enumerate_main_numbers(i, bound, budget=B).refuted:
            try:
                fresh = synth(i, *verdict.witness, B)
            except NotRepresentable:
                fresh = None
            except BudgetExceeded:
                continue
            assert verdict.value == fresh, verdict
            checked += 1
        assert checked

    def test_one_beta_bisection_serves_alpha_0_and_1(self):
        # Why _search bisects beta at alpha <= 1 too: on the default
        # lattice, levels 1 and 2 grow weakly in beta there, and from level
        # 3 on every answered value is at most 1, so such a pair escapes
        # only at delta = 1.  No call is NotRepresentable.  One memo per
        # (level, alpha); the default 8 samples give the same verdicts but
        # take some fifty times as long as 4.
        budget = EvalBudget(sup_samples=4)
        lattice = candidate_lattice()
        for level, alpha in itertools.product(range(1, 6), (ZERO, ONE)):
            memo, values = {}, []
            for beta in lattice:
                with contextlib.suppress(BudgetExceeded):
                    values.append(synth(level, alpha, beta, budget, memo=memo))
            assert values, (level, alpha)
            if level <= 2:
                assert values == sorted(values), (level, alpha)
            else:
                assert max(values) <= ONE, (level, alpha)

    def test_refusal_falls_back_to_the_scan(self, monkeypatch):
        # w*2 is refuted by (w, w); refusing that pair leaves the scan,
        # and so the search, unable to refute it.  A refusal that grows no
        # memo entry is retried once, so the search probes the pair twice.
        delta = mul(W, nat(2))
        entries = candidate_lattice()
        probes, scans = [], []

        def refusing(i, alpha, beta, budget, memo):
            if (alpha, beta) == (W, W):
                probes.append(beta)
                raise BudgetExceeded("refused for the test")
            return synth(i, alpha, beta, budget, memo=memo)

        def scan(*args, real=mains._scan):
            scans.append(len(probes))
            return real(*args)

        monkeypatch.setattr(mains, "synth", refusing)
        monkeypatch.setattr(mains, "_scan", scan)
        verdict = mains._classify(1, delta, entries, B, {})
        assert scans == [2]
        assert verdict == self._scanned(1, delta, entries, {})
        assert verdict.main and verdict.pairs_skipped == 1

    def test_a_refused_probe_resumes_while_the_memo_grows(self, monkeypatch):
        # The search probes (w, w) once for w*2.  Its first two calls each
        # grow the memo by a smaller pair, (w, 1) then (w, 2), and refuse;
        # the third answers.  Each refusal grew the memo, so the probe is
        # retried in place and the scan is never reached.
        delta = mul(W, nat(2))
        entries = candidate_lattice()
        want = mains._classify(1, delta, entries, B, {})
        probes = []

        def refusing(i, alpha, beta, budget, memo):
            if (alpha, beta) == (W, W):
                probes.append(beta)
                if len(probes) <= 2:
                    synth(i, alpha, nat(len(probes)), budget, memo=memo)
                    raise BudgetExceeded("refused for the test")
            return synth(i, alpha, beta, budget, memo=memo)

        def scan(*args):
            raise AssertionError("fell back to the scan")

        monkeypatch.setattr(mains, "synth", refusing)
        monkeypatch.setattr(mains, "_scan", scan)
        assert mains._classify(1, delta, entries, B, {}) == want
        assert not want.main and len(probes) == 3

    @pytest.mark.parametrize("i, delta", [
        (2, pow_(W, pow_(W, nat(2), B), B)),
        (2, pow_(W, pow_(W, nat(3), B), B)),
        (1, pow_(W, nat(3), B)),
    ])
    def test_a_main_candidate_takes_one_probe(self, monkeypatch, i, delta):
        # Escaping at beta_max is monotone in alpha, so the top alpha's
        # probe settles a main candidate without bisecting.
        calls = []

        def counting(i, alpha, beta, budget, memo):
            calls.append((alpha, beta))
            return synth(i, alpha, beta, budget, memo=memo)

        monkeypatch.setattr(mains, "synth", counting)
        assert is_main_number(i, delta).main
        assert len(calls) == 1

    def test_the_16_sample_report_never_scans(self, monkeypatch):
        # Its one probe that the budget refuses resumes in the search on
        # the memo the refused call grew, so no candidate falls back.  The
        # counts are deterministic.
        memos = []

        def recording(i, alpha, beta, budget, memo):
            memos.append(memo)
            return synth(i, alpha, beta, budget, memo=memo)

        def scan(*args):
            raise AssertionError(f"fell back to the scan at {args[1]}")

        monkeypatch.setattr(mains, "synth", recording)
        monkeypatch.setattr(mains, "_scan", scan)
        report = enumerate_main_numbers(
            2, pow_(W, pow_(W, nat(3), B), B), budget=EvalBudget(sup_samples=16))
        assert report.pairs_skipped == 0
        assert len(memos) == 566
        assert type(memos[0]) is dict
        assert sum(map(len, memos[0].values())) == 4908

    def test_a_warm_memo_never_changes_a_value(self):
        # The search retries a refused probe on the memo the refusal grew,
        # which is sound only if a warmer memo changes no answer.  Seeded runs of
        # synth calls at levels 2 and 3, each run on one shared memo, agree
        # with fresh calls wherever both answer: the two may differ only in
        # which calls the budget refuses.
        budget = EvalBudget(16, 16384, 8)
        lattice = candidate_lattice(bound=pow_(W, pow_(W, nat(3), B), B))

        def outcome(n, alpha, beta, memo):
            try:
                return synth(n, alpha, beta, budget, memo=memo)
            except NotRepresentable:
                return "NotRepresentable"
            except BudgetExceeded:
                return None

        answered, warmed, changed = 0, 0, []
        for seed in range(6):
            rng = random.Random(seed)
            memo = {}
            alphas = rng.sample(lattice, 2)
            for _ in range(30):
                call = rng.choice((2, 3)), rng.choice(alphas), rng.choice(lattice)
                warm, fresh = outcome(*call, memo), outcome(*call, {})
                if warm is not None and fresh is not None:
                    answered += 1
                    if warm != fresh:
                        changed.append((seed, call, warm, fresh))
                warmed += warm is not None and fresh is None
        assert not changed, changed[:3]
        # The runs answer most calls, and warming turns some refusals
        # into answers.
        assert answered > 150 and warmed > 0


class TestReportBytes:
    REPORTS = [
        (2, pow_(W, pow_(W, nat(3), B), B),
         "e4ba830971c11696958a843b11781ecc53fbf9648d700ce135e391215cd285fe"),
        (1, pow_(W, nat(5), B),
         "2fcf78fca328a7a37b5ad222833ede153ebf14b95c34b19adb83394927ce8546"),
        # Reports the scan fallback decides: pairs_skipped 189, 78 and 505.
        (4, pow_(W, W, B),
         "7569246563d1464f819f77e43918022a38e11613a32c90c8bfe539f24af50f6f"),
        (5, pow_(W, nat(3), B),
         "90aa65ed13f00c9af56310ebeff28fdcb15a458247a2c5371e5f4a1108d374ec"),
        (4, pow_(W, pow_(W, nat(2), B), B),
         "1ffb4d444e9a5a70a8fd348f32137ea1e57657f7473bec8ed23cf1a36c183261"),
        # A longer run of warm-started alpha searches than below w^(w^3).
        (2, pow_(W, pow_(W, nat(4), B), B),
         "ed80f3b1f6977456d1a86ada9ca167cabaa88fdc7701e327a5b1a1e83df132f3"),
    ]

    @pytest.mark.parametrize("i, bound, sha", REPORTS)
    def test_report_sha256(self, i, bound, sha):
        text = json.dumps(enumerate_main_numbers(i, bound).json_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    @pytest.mark.parametrize("i, bound, sha", REPORTS)
    def test_cli_prints_the_report_as_json_dumps(self, monkeypatch, i, bound, sha):
        # The command prints through its own writer, not json.dumps.
        reports = []

        def recording(*args, **kwargs):
            reports.append(enumerate_main_numbers(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "enumerate_main_numbers", recording)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["mains", "--index", str(i), "--bound", str(bound)]) == 0
        assert out.getvalue() == json.dumps(reports[0].json_dict(), indent=2) + "\n"
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha


def test_shared_memo_holds_one_table_per_level_and_alpha(monkeypatch):
    # The report's shared memo maps (level, alpha) to a table keyed by
    # beta; its counts are those of the flat (level, alpha, beta) layout.
    # It is a plain dict.
    memos = []

    def recording(i, alpha, beta, budget, memo):
        memos.append(memo)
        return synth(i, alpha, beta, budget, memo=memo)

    monkeypatch.setattr(mains, "synth", recording)
    enumerate_main_numbers(2, pow_(W, pow_(W, nat(3), B), B))
    memo = memos[0]
    assert all(m is memo for m in memos)
    assert type(memo) is dict
    assert len(memo) == 18
    assert sum(map(len, memo.values())) == 1376
    for key, table in memo.items():
        level, alpha = key
        assert type(level) is int and level in (2, 3) and isinstance(alpha, Ordinal)
        assert all(isinstance(beta, Ordinal) for beta in table)


def test_every_memo_entry_is_a_value_eval_stored(monkeypatch):
    # synthesis._eval is the one writer of the memo tables: the samples
    # w^g*k that _sup takes from a chain live only in the chain.
    real, stored, memos = synthesis._eval, {}, []

    def storing(ctx, n, alpha, beta, depth):
        missed = beta not in ctx.memo.get((n, alpha), ())
        value = real(ctx, n, alpha, beta, depth)
        if missed:
            stored[n, alpha, beta] = value
        return value

    def recording(i, alpha, beta, budget, memo):
        memos.append(memo)
        return synth(i, alpha, beta, budget, memo=memo)

    monkeypatch.setattr(synthesis, "_eval", storing)
    monkeypatch.setattr(mains, "synth", recording)
    enumerate_main_numbers(2, pow_(W, pow_(W, nat(3), B), B))
    entries = {
        (level, alpha, beta): value
        for (level, alpha), table in memos[0].items()
        for beta, value in table.items()
    }
    assert entries and entries.items() <= stored.items()

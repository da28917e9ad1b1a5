"""Core data type: canonical form, interning, total order, structural helpers."""
import copy
import functools
import gc
import json
import pickle
import random
import weakref

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import ordinals
from support import (
    W, coefficient_bits, nat, pair_corpus_below_w_w2, reference_compare,
    repeated_term_count, tree_corpus, w_times_plus,
)
from transfinite import arithmetic, lub, synthesis
from transfinite.arithmetic import add, mul, pow_
from transfinite.errors import BudgetExceeded, OrdinalDomainError
from transfinite.mains import candidate_lattice
from transfinite.notation import eval_expr, format_ordinal, parse
from transfinite.synthesis import synth
from transfinite.ordinal import (
    MAX_HEIGHT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _TABLE,
    _drop,
    _ord,
    cnf_height,
    compare,
    from_natural,
    fundamental_prefix,
    fundamental_sequence,
    is_additive_principal,
    is_limit,
    is_successor,
    limit_and_finite_parts,
    omega_power,
    order_key,
    predecessor,
    successor,
)


class TestConstruction:
    def test_zero_is_empty_sum(self):
        assert Ordinal().is_zero
        assert Ordinal() == ZERO
        assert not ZERO

    def test_rejects_zero_coefficient(self):
        with pytest.raises(OrdinalDomainError):
            Ordinal([(ZERO, 0)])

    def test_rejects_bool_coefficient(self):
        with pytest.raises(OrdinalDomainError):
            Ordinal([(ZERO, True)])

    def test_rejects_non_ordinal_exponent(self):
        with pytest.raises(OrdinalDomainError):
            Ordinal([(1, 1)])

    def test_rejects_unsorted_exponents(self):
        with pytest.raises(OrdinalDomainError):
            Ordinal([(ZERO, 1), (ONE, 1)])

    def test_rejects_repeated_exponents(self):
        with pytest.raises(OrdinalDomainError):
            Ordinal([(ONE, 1), (ONE, 2)])

    def test_from_natural_round_trip(self):
        for k in (0, 1, 2, 17, 10**6):
            x = from_natural(k)
            assert x.is_natural
            assert x.natural_value() == k

    def test_from_natural_rejects_negatives(self):
        with pytest.raises(OrdinalDomainError):
            from_natural(-1)

    def test_omega_is_not_natural(self):
        assert not OMEGA.is_natural
        with pytest.raises(OrdinalDomainError):
            OMEGA.natural_value()


TREES = tree_corpus()


def _height(x):
    # The definition, recomputed from the structure.
    return 1 + max(_height(e) for e, _ in x.terms) if x.terms else 0


def _bits(x):
    # The definition, recomputed from the structure.
    return max((max(c.bit_length(), _bits(e)) for e, c in x.terms), default=0)


class TestInterning:
    def test_equal_values_are_one_object(self):
        built = Ordinal([(pow_(W, nat(2)), 3), (ONE, 1), (ZERO, 4)])
        by_arithmetic = add(mul(pow_(W, pow_(W, nat(2))), nat(3)), add(W, nat(4)))
        by_notation = eval_expr(parse("w^(w^2)*3 + w + 4"))
        assert built is by_arithmetic is by_notation
        assert Ordinal(built.terms) is built
        assert Ordinal() is ZERO and from_natural(1) is ONE and omega_power(ONE) is OMEGA

    def test_copies_and_pickles_return_the_same_object(self):
        for x in TREES:
            assert copy.copy(x) is x
            assert copy.deepcopy(x) is x
            assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(OMEGA) is OMEGA
        assert ZERO.is_zero and str(ZERO) == "0"

    def test_unreferenced_value_leaves_the_table(self):
        x = from_natural(982451653 * 961748941)
        terms = x.terms
        ref = weakref.ref(x)
        del x
        gc.collect()
        assert ref() is None
        assert terms not in _TABLE

    def test_dead_values_leave_no_entry(self):
        # Distinct summands keep the values apart from those other tests
        # hold; the memos keep every intermediate alive until the end.  The
        # sample-point cache, lub's rule-search cache, synthesis's shared
        # closed forms and its chain points, and arithmetic's small finite
        # powers hold values on purpose, so they are emptied first.
        pairs = [(add(a, nat(1000 + i)), add(b, nat(5)))
                 for i, (a, b) in enumerate(pair_corpus_below_w_w2(100, seed=11))]
        lub._points.cache_clear()
        lub._infer_increasing.cache_clear()
        synthesis._shared.cache_clear()
        synthesis._chain_points.cache_clear()
        arithmetic._small_power.cache_clear()
        gc.collect()
        baseline = len(_TABLE)
        memos = []
        for n in (2, 3):
            for a, b in pairs:
                memos.append({})
                synth(n, a, b, memo=memos[-1])
        assert len(_TABLE) > baseline + 1000
        del memos
        lub._points.cache_clear()
        lub._infer_increasing.cache_clear()
        synthesis._shared.cache_clear()
        synthesis._chain_points.cache_clear()
        arithmetic._small_power.cache_clear()
        gc.collect()
        assert len(_TABLE) == baseline

    def test_stale_callback_keeps_the_live_entry(self):
        terms = ((ZERO, 982451653 * 961748941 + 2),)
        x = _ord(terms)
        stale = _TABLE[terms]
        del x
        gc.collect()
        assert stale() is None and terms not in _TABLE
        y = _ord(terms)
        _drop(stale)
        assert _TABLE[terms]() is y and _ord(terms) is y

    def test_identity_hash_survives_copies(self):
        for x in TREES:
            assert hash(x) == hash(copy.copy(x)) == hash(pickle.loads(pickle.dumps(x)))
            assert x in {x}

    @given(st.sampled_from(TREES))
    def test_height_matches_the_recursive_definition(self, x):
        assert cnf_height(x) == _height(x)

    @given(st.sampled_from(TREES))
    def test_coefficient_bits_match_the_recursive_definition(self, x):
        assert coefficient_bits(x) == _bits(x)


class TestOrder:
    def test_ascending_chain(self):
        chain = [
            ZERO, ONE, nat(2), W, add(W, ONE), mul(W, nat(2)),
            pow_(W, nat(2)), pow_(W, W), omega_power(pow_(W, W)),
        ]
        for i, x in enumerate(chain):
            for j, y in enumerate(chain):
                assert compare(x, y) == (i > j) - (i < j)
                assert (x < y) == (i < j)
                assert (x == y) == (i == j)

    def test_coefficient_breaks_ties(self):
        assert mul(W, nat(2)) < mul(W, nat(3))

    def test_tail_breaks_ties(self):
        assert add(W, ONE) < add(W, nat(2))
        assert mul(W, nat(2)) > add(W, nat(50))

    @given(ordinals(), ordinals())
    def test_compare_is_antisymmetric(self, x, y):
        assert compare(x, y) == -compare(y, x)

    @given(ordinals(), ordinals(), ordinals())
    def test_compare_is_transitive(self, x, y, z):
        if x <= y and y <= z:
            assert x <= z

    def test_order_matches_the_term_scan_on_the_tree_corpus(self):
        rng = random.Random(60412)
        pairs = [(rng.choice(TREES), rng.choice(TREES)) for _ in range(20000)]
        pairs += [(x, x) for x in TREES[:500]]
        for x, y in pairs:
            _assert_order_agrees(x, y)
        by_scan = sorted(TREES, key=functools.cmp_to_key(reference_compare))
        assert sorted(TREES) == by_scan
        assert sorted(TREES, reverse=True) == by_scan[::-1]
        assert max(TREES) is by_scan[-1] and min(TREES) is by_scan[0]

    @given(ordinals(), ordinals())
    def test_order_matches_the_term_scan(self, x, y):
        for a, b in ((x, y), (y, x), (x, x)):
            _assert_order_agrees(a, b)

    def test_other_types_are_not_ordered(self):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(OMEGA, op)(1) is NotImplemented
        with pytest.raises(TypeError):
            OMEGA < 1
        with pytest.raises(TypeError):
            1 >= OMEGA

    def test_towers_of_height_200(self):
        # Order keys nest one tuple per nesting level; two towers that
        # differ only at the top take the deepest path.  At the height cap
        # every walk of a value fits the stack.
        low, high = _tower(nat(2), 199), _tower(nat(3), 199)
        assert cnf_height(low) == cnf_height(high) == MAX_HEIGHT == 200
        for a, b in ((low, high), (high, low), (low, low), (high, high)):
            _assert_order_agrees(a, b)
        assert sorted([high, low, high]) == [low, high, high]
        text = str(high)
        assert text.startswith("w^(" * 198 + "w^3") and format_ordinal(high) == text
        assert json.loads(format_ordinal(high, "json"))["terms"][0]["coeff"] == "1"
        assert pickle.loads(pickle.dumps(high)) is high and copy.deepcopy(high) is high
        members = fundamental_prefix(_tower(W, 198), 3)
        assert members == [_tower(nat(k), 198) for k in range(3)]
        # Exponents recurse to [1, 2, 3], whose lub w rises back to height 200.
        value, rule = lub.classify_lub([_tower(nat(k), 198) for k in (1, 2, 3)])
        assert (value, rule) == (_tower(W, 198), lub.LubInference.EXPONENT_GROWTH)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda top: Ordinal(((top, 1),)), id="Ordinal"),
        pytest.param(omega_power, id="omega_power"),
        pytest.param(lambda top: pow_(W, top), id="pow_"),
        pytest.param(lambda top: synth(4, W, nat(200)), id="synth"),
        pytest.param(lambda top: candidate_lattice(400, 1, 1), id="candidate_lattice"),
    ])
    def test_height_past_the_cap_is_refused(self, build):
        top = _tower(nat(2), 199)
        with pytest.raises(BudgetExceeded,
                           match="^a height-201 normal form exceeds the 200-level cap$"):
            build(top)

    @given(ordinals())
    def test_hash_consistent_with_eq(self, x):
        y = Ordinal(x.terms)
        assert x == y and hash(x) == hash(y)


def _tower(base, n):
    for _ in range(n):
        base = omega_power(base)
    return base


def _assert_order_agrees(x, y):
    want = reference_compare(x, y)
    assert compare(x, y) == want, (x, y)
    kx, ky = order_key(x), order_key(y)
    assert (kx > ky) - (kx < ky) == want, (x, y)
    assert (kx[0], ky[0]) == (_height(x), _height(y)), (x, y)
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0), (x, y)
    assert sorted([x, y]) == ([y, x] if want > 0 else [x, y])
    assert max(x, y) is (x if want >= 0 else y)


class TestPredicates:
    def test_additive_principal_fixtures(self):
        for x in (ONE, W, pow_(W, nat(2)), pow_(W, W), omega_power(add(W, ONE))):
            assert is_additive_principal(x)
        for x in (ZERO, nat(2), add(W, ONE), mul(W, nat(2)), add(pow_(W, W), W)):
            assert not is_additive_principal(x)

    @given(ordinals())
    def test_additive_principal_is_single_unit_term(self, x):
        expected = len(x.terms) == 1 and x.terms[0][1] == 1
        assert is_additive_principal(x) == expected

    def test_successor_and_limit_partition(self):
        assert not is_successor(ZERO) and not is_limit(ZERO)
        for x in (ONE, nat(7), add(W, ONE), add(pow_(W, W), nat(3))):
            assert is_successor(x) and not is_limit(x)
        for x in (W, mul(W, nat(2)), pow_(W, W), add(pow_(W, nat(2)), W)):
            assert is_limit(x) and not is_successor(x)

    @given(ordinals())
    def test_successor_predecessor_invert(self, x):
        assert predecessor(successor(x)) == x
        assert successor(x) > x

    def test_predecessor_of_limit_rejected(self):
        with pytest.raises(OrdinalDomainError):
            predecessor(W)
        with pytest.raises(OrdinalDomainError):
            predecessor(ZERO)


class TestStructure:
    def test_repeated_term_count(self):
        assert repeated_term_count(mul(W, nat(5))) == 5
        assert repeated_term_count(nat(3)) == 3

    def test_limit_and_finite_parts(self):
        assert limit_and_finite_parts(nat(5)) == (ZERO, 5)
        assert limit_and_finite_parts(W) == (W, 0)
        lam, m = limit_and_finite_parts(add(mul(W, nat(2)), nat(3)))
        assert lam == mul(W, nat(2)) and m == 3

    def test_cnf_height_grows_with_nesting(self):
        assert cnf_height(ZERO) == 0
        assert cnf_height(ONE) == 1
        assert cnf_height(W) == 2
        assert cnf_height(pow_(W, W)) == 3
        assert cnf_height(omega_power(pow_(W, W))) == 4
        assert cnf_height(pow_(W, nat(2))) == cnf_height(mul(W, nat(9)))

    def test_height_is_monotone_in_value(self):
        # a <= b implies height(a) <= height(b); the tower preview in lub
        # relies on it to read climbing values off climbing heights.
        ordered = sorted(set(TREES))
        for a, b in zip(ordered, ordered[1:]):
            assert cnf_height(a) <= cnf_height(b), (a, b)

    def test_coefficient_bits_counts_all_levels(self):
        small = coefficient_bits(W)
        big = coefficient_bits(mul(W, nat(2 ** 40)))
        assert big > small + 30

    def test_coefficient_bits_finds_the_widest_anywhere(self):
        cases = {
            # In a lower term.
            add(mul(pow_(W, nat(2)), nat(3)), add(mul(W, nat(2 ** 100)), nat(5))): 101,
            # Inside a lower term's exponent.
            add(omega_power(pow_(W, W)),
                add(mul(omega_power(w_times_plus(2 ** 50, 1)), nat(2)), nat(7))): 51,
            # 20,000 bits wide, in the last term.
            add(mul(W, nat(5)), nat(2 ** 20000 - 1)): 20000,
        }
        for x, bits in cases.items():
            assert coefficient_bits(x) == _bits(x) == bits, x

    def test_omega_power(self):
        assert omega_power(ZERO) == ONE
        assert omega_power(ONE) == W
        assert omega_power(W) == pow_(W, W)


class TestFundamentalSequence:
    def test_below_omega_squared(self):
        # w[k] = k
        assert [fundamental_sequence(W, k) for k in range(4)] == [nat(k) for k in range(4)]
        # (w*2)[k] = w + k
        assert fundamental_sequence(mul(W, nat(2)), 3) == add(W, nat(3))

    def test_successor_exponent(self):
        # (w^2)[k] = w*k
        assert fundamental_sequence(pow_(W, nat(2)), 5) == mul(W, nat(5))
        # (w^(w+1))[k] = w^w * k
        assert fundamental_sequence(omega_power(add(W, ONE)), 2) == mul(pow_(W, W), nat(2))

    def test_limit_exponent(self):
        # (w^w)[k] = w^k
        assert fundamental_sequence(pow_(W, W), 4) == pow_(W, nat(4))

    def test_composite_limit(self):
        # (w^2 + w)[k] = w^2 + k
        x = add(pow_(W, nat(2)), W)
        assert fundamental_sequence(x, 3) == add(pow_(W, nat(2)), nat(3))

    def test_rejects_non_limits(self):
        with pytest.raises(OrdinalDomainError):
            fundamental_sequence(ZERO, 1)
        with pytest.raises(OrdinalDomainError):
            fundamental_sequence(add(W, ONE), 1)
        for x in (ZERO, ONE, add(W, ONE), add(pow_(W, W), nat(3))):
            with pytest.raises(OrdinalDomainError):
                fundamental_prefix(x, 4)

    def test_prefix_matches_the_members(self):
        def member(lam, k):
            # lam[k] from the definition, built with add and mul.
            (g, c), lead = lam.terms[-1], lam.terms[:-1]
            rest = Ordinal(lead + (((g, c - 1),) if c > 1 else ()))
            if is_successor(g):
                return add(rest, mul(omega_power(predecessor(g)), nat(k)))
            return add(rest, omega_power(member(g, k)))

        limits = {x for x in TREES if is_limit(x)}
        assert len(limits) > 1000
        for lam in limits:
            members = [fundamental_sequence(lam, k) for k in range(16)]
            assert members == [member(lam, k) for k in range(16)], lam
            for n in range(17):
                assert fundamental_prefix(lam, n) == members[:n], (lam, n)

    def test_member_is_built_without_the_prefix(self):
        # A prefix of 10**12 + 1 members would not fit in memory.
        k = 10 ** 12
        assert fundamental_sequence(pow_(W, nat(2)), k) == mul(W, nat(k))
        assert fundamental_sequence(pow_(W, W), k) == pow_(W, nat(k))
        assert fundamental_sequence(mul(omega_power(pow_(W, W)), nat(2)), k) == add(
            omega_power(pow_(W, W)), omega_power(pow_(W, nat(k))))

    @given(ordinals(), st.integers(min_value=0, max_value=6))
    def test_sequence_climbs_strictly_below_its_limit(self, x, k):
        if is_limit(x):
            a = fundamental_sequence(x, k)
            b = fundamental_sequence(x, k + 1)
            assert a < b < x


class TestRendering:
    def test_text_fixtures(self):
        cases = [
            (ZERO, "0"),
            (ONE, "1"),
            (nat(42), "42"),
            (W, "w"),
            (mul(W, nat(3)), "w*3"),
            (add(W, nat(3)), "w + 3"),
            (pow_(W, nat(2)), "w^2"),
            (add(add(mul(pow_(W, W), nat(2)), W), nat(3)), "w^w*2 + w + 3"),
            (omega_power(add(W, ONE)), "w^(w + 1)"),
            (mul(omega_power(mul(W, nat(2))), nat(5)), "w^(w*2)*5"),
        ]
        for value, text in cases:
            assert str(value) == text

    @given(ordinals())
    def test_repr_shows_the_rendering(self, x):
        assert str(x) in repr(x)

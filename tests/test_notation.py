"""Parser, evaluator, and formatter for the expression syntax."""
import json
import sys

import pytest
from hypothesis import given

from conftest import ordinals
from support import W, nat

from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget
from transfinite.errors import BudgetExceeded, NotRepresentable, ParseError
from transfinite.notation import (
    Add,
    Hyper,
    LeftHyper,
    Mul,
    NaiveExt,
    NatLit,
    Omega,
    Pow,
    Synth,
    eval_expr,
    format_ordinal,
    parse,
)
from transfinite.ordinal import ONE, from_natural, omega_power

B = EvalBudget()


class TestParseTrees:
    def test_precedence_chain(self):
        want = Add(Mul(Pow(Omega(), Add(Omega(), NatLit(1))), NatLit(3)), NatLit(5))
        assert parse("w^(w+1)*3 + 5") == want

    def test_power_binds_tighter_than_product(self):
        assert parse("w*2^3") == Mul(Omega(), Pow(NatLit(2), NatLit(3)))
        assert parse("w^w*2") == Mul(Pow(Omega(), Omega()), NatLit(2))

    def test_product_binds_tighter_than_sum(self):
        assert parse("w+w*2") == Add(Omega(), Mul(Omega(), NatLit(2)))

    def test_power_is_right_associative(self):
        assert parse("2^w^2") == Pow(NatLit(2), Pow(Omega(), NatLit(2)))

    def test_sum_and_product_are_left_associative(self):
        assert parse("1+2+3") == Add(Add(NatLit(1), NatLit(2)), NatLit(3))
        assert parse("2*3*4") == Mul(Mul(NatLit(2), NatLit(3)), NatLit(4))

    def test_whitespace_is_free(self):
        assert parse(" w ^ ( w + 1 ) ") == parse("w^(w+1)")

    def test_function_forms(self):
        assert parse("H(4,3,3)") == Hyper(4, 3, 3)
        assert parse("L(4,2,3)") == LeftHyper(4, 2, 3)
        assert parse("S(2, w, w+1)") == Synth(2, Omega(), Add(Omega(), NatLit(1)))
        assert parse("N(3, w*2, w)") == NaiveExt(3, Mul(Omega(), NatLit(2)), Omega())

    def test_function_args_may_nest(self):
        assert parse("S(2, S(1,w,w), 2)") == Synth(2, Synth(1, Omega(), Omega()), NatLit(2))


class TestNodes:
    """The nodes compare, hash and print as frozen records of their type."""

    @pytest.mark.parametrize("one, other", [
        (Add(Omega(), NatLit(2)), Mul(Omega(), NatLit(2))),
        (Mul(Omega(), NatLit(2)), Pow(Omega(), NatLit(2))),
        (Hyper(3, 2, 5), LeftHyper(3, 2, 5)),
        (Synth(2, Omega(), Omega()), NaiveExt(2, Omega(), Omega())),
        (Add(Omega(), NatLit(2)), (Omega(), NatLit(2))),
    ])
    def test_equal_fields_of_another_type_are_unequal(self, one, other):
        assert one != other and not one == other
        assert other != one and not other == one

    def test_equal_nodes_hash_equal(self):
        assert parse("S(4, w+2, 3)") == parse("S(4,w + 2,3)")
        assert hash(parse("S(4, w+2, 3)")) == hash(parse("S(4,w + 2,3)"))
        assert len({parse("w*2"), parse("w * 2"), parse("w + w")}) == 2

    def test_fields_are_read_only(self):
        node = parse("w+2")
        with pytest.raises(AttributeError):
            node.left = NatLit(1)
        with pytest.raises(AttributeError):
            node.extra = 1

    def test_every_node_is_true(self):
        assert bool(Omega())

    def test_repr_names_the_fields(self):
        assert repr(parse("w+2")) == "Add(left=Omega(), right=NatLit(value=2))"


class TestParseErrors:
    def test_unknown_character_position(self):
        with pytest.raises(ParseError) as info:
            parse("w @ 1")
        assert info.value.position == 2

    def test_non_decimal_digit_position(self):
        with pytest.raises(ParseError) as info:
            parse("²")
        assert info.value.position == 0

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("w^")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(w + 1")

    def test_leading_close_paren(self):
        with pytest.raises(ParseError) as info:
            parse(") w")
        assert info.value.position == 0

    def test_trailing_input(self):
        with pytest.raises(ParseError) as info:
            parse("2 2")
        assert info.value.position == 2

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("Q(1,2,3)")

    def test_hyper_args_must_be_naturals(self):
        # H and L are finite: an ordinal argument is a parse error, not
        # an evaluation error.
        with pytest.raises(ParseError) as info:
            parse("H(3,w,2)")
        assert info.value.position == 4

    def test_operation_index_starts_at_one(self):
        with pytest.raises(ParseError) as info:
            parse("S(0,w,w)")
        assert info.value.position == 2
        with pytest.raises(ParseError):
            parse("H(0,2,2)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_parse_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse("w @@ 1")


class TestEvaluation:
    def test_arithmetic_fixtures(self):
        assert eval_expr(parse("1 + w")) == W
        assert eval_expr(parse("w + 1")) == add(W, ONE)
        assert eval_expr(parse("2^w^2")) == pow_(W, W, B)
        assert eval_expr(parse("w^(w+1)*3 + 5")) == add(
            mul(pow_(W, add(W, ONE), B), nat(3)), nat(5)
        )

    def test_hyper_fixtures(self):
        assert eval_expr(parse("H(4,3,3)")) == from_natural(7625597484987)
        assert eval_expr(parse("L(4,2,3)")) == ONE
        assert eval_expr(parse("H(2,6,7)")) == from_natural(42)

    def test_ladder_fixtures(self):
        assert eval_expr(parse("S(2,w,w)")) == pow_(W, nat(2), B)
        assert eval_expr(parse("S(4,2,w+1)")) == pow_(W, nat(2), B)
        assert eval_expr(parse("N(2,3,w*2)")) == eval_expr(parse("N(2,3,w)"))

    def test_unrepresentable_propagates(self):
        with pytest.raises(NotRepresentable):
            eval_expr(parse("S(4,w,w)"))

    def test_budget_propagates_and_widens(self):
        with pytest.raises(BudgetExceeded):
            eval_expr(parse("H(4,2,5)"))
        roomy = EvalBudget(max_bits=70000)
        assert eval_expr(parse("H(4,2,5)"), roomy) == from_natural(2**65536)

    def test_literal_width_is_capped(self):
        narrow = EvalBudget(max_bits=8)
        assert eval_expr(parse("255"), narrow) == from_natural(255)
        with pytest.raises(BudgetExceeded):
            eval_expr(parse("256"), narrow)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no int-from-str limit")
    def test_numeral_past_the_conversion_limit_is_refused(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            with pytest.raises(BudgetExceeded):
                parse("1" * 1001)
            with pytest.raises(BudgetExceeded):
                parse("H(3,2," + "1" * 1001 + ")")
        finally:
            sys.set_int_max_str_digits(saved)


class TestFormatting:
    def test_text_is_str(self):
        x = eval_expr(parse("w^(w+1)*3 + 5"))
        assert format_ordinal(x) == str(x)

    def test_json_shape(self):
        x = eval_expr(parse("w^2*3 + 4"))
        doc = json.loads(format_ordinal(x, "json"))
        assert doc == {
            "terms": [
                {"exp": {"terms": [{"exp": {"terms": []}, "coeff": "2"}]}, "coeff": "3"},
                {"exp": {"terms": []}, "coeff": "4"},
            ]
        }

    def test_json_coefficients_are_strings(self):
        # Decimal strings survive parsers that would round big ints.
        doc = json.loads(format_ordinal(from_natural(10**30), "json"))
        assert doc["terms"][0]["coeff"] == str(10**30)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no int-to-str limit")
    @pytest.mark.parametrize("style", ["text", "json"])
    def test_coefficient_past_the_conversion_limit_is_refused(self, style):
        # 10^1000 has 1001 digits but only 3,322 bits, well under max_bits;
        # outside the command line nothing lifts the conversion limit.
        wide = eval_expr(parse("H(3,10,1000)"))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            for x in (wide, add(W, wide), pow_(W, wide, B)):
                with pytest.raises(BudgetExceeded, match="rendering failed"):
                    format_ordinal(x, style)
            assert "9" * 1000 in format_ordinal(from_natural(10**1000 - 1), style)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("style", ["text", "json"])
    def test_tower_past_the_interpreter_stack_is_refused(self, style):
        def tower(height):
            x = ONE
            for _ in range(height):
                x = omega_power(x)
            return x

        with pytest.raises(BudgetExceeded, match="rendering failed"):
            format_ordinal(tower(2000), style)
        assert format_ordinal(tower(100), style)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            format_ordinal(W, "latex")


class TestRoundTrip:
    @given(ordinals())
    def test_text_round_trips_through_parser(self, x):
        assert eval_expr(parse(format_ordinal(x))) == x

    @given(ordinals(), ordinals())
    def test_rendering_is_injective(self, x, y):
        if x != y:
            assert format_ordinal(x) != format_ordinal(y)

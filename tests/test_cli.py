"""Command line driver, run in process through main(argv)."""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from transfinite import cli
from transfinite.cli import main
from transfinite.errors import BudgetExceeded
from transfinite.notation import eval_expr, format_ordinal, parse


def run(capsys, argv):
    """(exit status, stdout, stderr) of one command; argparse's exits count too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, ["eval", "w^(w+1)*3 + 5"])
        assert (code, out, err) == (0, "w^(w + 1)*3 + 5\n", "")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["eval", "w^2*3 + 4", "--format", "json"])
        assert code == 0
        assert json.loads(out)["terms"][0]["coeff"] == "3"

    def test_hard_hyper_value(self, capsys):
        code, out, _ = run(capsys, ["eval", "H(4,3,3)"])
        assert (code, out) == (0, "7625597484987\n")

    def test_ladder_value(self, capsys):
        code, out, _ = run(capsys, ["eval", "S(4,2,w+1)"])
        assert (code, out) == (0, "w^2\n")

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, ["eval", "w @"])
        assert code == 2
        assert out == ""
        assert "position 2" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, ["eval", "H(4,2,5)"])
        assert code == 3
        assert "budget exceeded" in err

    def test_unrepresentable_exit_code(self, capsys):
        code, _, err = run(capsys, ["eval", "S(4,w,w)"])
        assert code == 4
        assert "not representable" in err


class TestExitContract:
    # Each input ended in a traceback and exit 1, or was accepted past the
    # bit cap, before literal widths and interpreter stack depth were
    # refused as budget faults.  The representable w * w^w^w^w exited 4
    # while a sample run cut short by the budget was read as a tower.
    @pytest.mark.parametrize("expr", [
        pytest.param("9" * 5000, id="5000-digit-literal"),
        pytest.param("9" * 20000, id="20000-digit-literal"),
        pytest.param("(" * 5000 + "w" + ")" * 5000, id="5000-parentheses"),
        pytest.param("w^" * 3000 + "1", id="3000-chained-powers"),
        pytest.param(" + ".join(["w^w^w^w"] * 2000), id="2000-summed-towers"),
        pytest.param("S(2,w,w^w^w^w)", id="truncated-sample-run"),
    ])
    def test_refused_as_budget(self, capsys, expr):
        code, out, err = run(capsys, ["eval", expr])
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: ")
        assert "Traceback" not in err

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        # "²".isdigit() holds but int() rejects it.
        code, out, err = run(capsys, ["eval", "²"])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")
        assert "Traceback" not in err

    def test_cmp_refuses_a_wide_literal(self, capsys):
        code, _, err = run(capsys, ["cmp", "9" * 5000, "w"])
        assert code == 3
        assert "Traceback" not in err

    # Products of literals under the cap built naturals past it, which
    # then failed to print (exit 1) or were compared as if in budget.
    WIDE = "9" * 4000

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", f"{WIDE}*{WIDE}"], id="eval-product"),
        pytest.param(["eval", "--format", "json", f"w*{WIDE}*{WIDE}"], id="json-coefficient"),
        pytest.param(["mains", "--index", "1", "--bound", f"w^({WIDE}*{WIDE})"], id="mains-bound"),
        pytest.param(["cmp", f"{WIDE}*{WIDE}", "w"], id="cmp-product"),
    ])
    def test_wide_results_are_refused_as_budget(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: ")
        assert "Traceback" not in err


LEAVES = st.one_of(st.just("w"), st.integers(0, 9).map(str))


def _expressions():
    # w, small naturals, + * ^, parentheses and S/H/N/L calls of index <= 6.
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+*^"), inner).map("".join),
            inner.map("({})".format),
            st.builds("{}({},{},{})".format, st.sampled_from("SHNL"),
                      st.integers(0, 6), inner, inner),
        )

    return st.recursive(LEAVES, extend, max_leaves=6)


OPERANDS = st.one_of(_expressions(), st.text("w0123()+*^,SHNL ", max_size=20))
# One opener nested 150-600 deep around a leaf: from below the parser's
# limit (about 197 nested "w^(" in a fresh interpreter) to far past it.
DEEP = st.builds(lambda opener, depth, leaf: opener * depth + leaf + ")" * depth,
                 st.sampled_from(["(", "w^(", "S(1,w,"]), st.integers(150, 600), LEAVES)
# Literal hyperoperation calls: deep levels, cycling bases, huge counts.
HYPER_CALLS = st.builds("{}({},{},{})".format, st.sampled_from("HL"), st.integers(0, 300),
                        st.integers(0, 5), st.one_of(st.integers(0, 6), st.just(10**9)))
# Lattice specs for mains, from invalid (0) to the runaway (3, 30, 3).
LATTICE_SPECS = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2)),
    st.just((3, 30, 3)),
)
MAINS = st.builds(
    lambda i, bound, spec: "mains --index {} --bound {} --depth {} --coeff {} --terms {}"
    .format(i, bound, *spec).split(),
    st.integers(1, 2), st.sampled_from(["2", "w", "w^2"]), LATTICE_SPECS,
)
COMMANDS = st.one_of(
    st.builds(lambda e: ["eval", e], OPERANDS),
    st.builds(lambda e: ["eval", e], HYPER_CALLS),
    st.builds(lambda e: ["eval", e, "--format", "json"], OPERANDS),
    st.builds(lambda a, b: ["cmp", a, b], OPERANDS, OPERANDS),
    st.builds(lambda e: ["eval", e], DEEP),
    st.builds(lambda a, b: ["cmp", a, b], DEEP, st.one_of(DEEP, OPERANDS)),
    MAINS,
)


class TestExitContractProperty:
    @settings(max_examples=500)
    @given(COMMANDS)
    def test_exit_code_is_documented(self, argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in {0, 2, 3, 4}, argv
        assert "Traceback" not in err.getvalue(), argv


class TestCmp:
    def test_orderings(self, capsys):
        assert run(capsys, ["cmp", "2^w", "w"])[1] == "=\n"
        assert run(capsys, ["cmp", "w", "w+1"])[1] == "<\n"
        assert run(capsys, ["cmp", "w*2", "w"])[1] == ">\n"

    # The deepest "w^(" nesting the parser takes in a fresh interpreter.
    PARSER_LIMIT = 197 if sys.version_info < (3, 12) else 198

    @pytest.mark.parametrize("extra, expected", [(0, (0, "<\n")), (1, (3, ""))])
    def test_nesting_at_the_parser_limit(self, extra, expected):
        # Two towers that differ only at the top, so the comparison takes
        # the deepest path: at the parser's limit they compare, one level
        # deeper the stack overflows and the command exits as a budget
        # fault.  A fresh interpreter, as the console script starts, since
        # the limit counts the frames below main().
        levels = self.PARSER_LIMIT + extra
        left, right = ("w^(" * levels + top + ")" * levels for top in "23")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from transfinite.cli import main; sys.exit(main())",
             "cmp", left, right],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == expected
        assert "Traceback" not in proc.stderr


class TestTable:
    def test_multiplication_grid(self, capsys):
        code, out, _ = run(capsys, ["table", "--op", "H", "--index", "2",
                                    "--rows", "3", "--cols", "3"])
        assert code == 0
        assert out == (
            "a\\b  0  1  2  3\n"
            "  0  0  0  0  0\n"
            "  1  0  1  2  3\n"
            "  2  0  2  4  6\n"
            "  3  0  3  6  9\n"
        )

    def test_tetration_grid_through_ladder(self, capsys):
        code, out, _ = run(capsys, ["table", "--op", "S", "--index", "4",
                                    "--rows", "2", "--cols", "3"])
        assert code == 0
        assert out.splitlines()[-1].split() == ["2", "1", "2", "4", "16"]

    def test_leftward_collapse_row(self, capsys):
        _, out, _ = run(capsys, ["table", "--op", "L", "--index", "4",
                                 "--rows", "2", "--cols", "3"])
        assert out.splitlines()[-1].split() == ["2", "1", "1", "1", "1"]


class TestMains:
    def test_report_is_byte_identical(self, capsys):
        first = run(capsys, ["mains", "--index", "1", "--bound", "w^3"])
        second = run(capsys, ["mains", "--index", "1", "--bound", "w^3"])
        assert first == second
        assert first[0] == 0
        doc = json.loads(first[1])
        assert doc["confirmed_infinite"] == ["w", "w^2", "w^3"]
        assert doc["all_match"] is True

    def test_bad_index_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, ["mains", "--index", "0", "--bound", "w"])
        assert code == 2
        assert "operation index" in err

    def test_bound_parse_error(self, capsys):
        code, _, err = run(capsys, ["mains", "--index", "1", "--bound", "w^"])
        assert code == 2

    def test_lattice_spec_refusals_leave_the_report_alone(self, capsys):
        report = run(capsys, ["mains", "--index", "1", "--bound", "w^3"])
        code, out, err = run(capsys, ["mains", "--index", "1", "--bound", "w",
                                      "--coeff", "30", "--terms", "3"])
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: candidate lattice exceeds")
        assert "Traceback" not in err
        code, out, err = run(capsys, ["mains", "--index", "1", "--bound", "w", "--depth", "0"])
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert run(capsys, ["mains", "--index", "1", "--bound", "w^3"]) == report


class TestBudgetPlumbing:
    def test_env_variable_widens_bit_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TRANSFINITE_BUDGET_BITS", "70000")
        code, out, _ = run(capsys, ["eval", "H(4,2,5)"])
        assert code == 0
        # 2^65536 has 19729 decimal digits; printing it requires the
        # int-to-str guard lift as well as the wider cap.
        assert len(out.strip()) == 19729

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRANSFINITE_BUDGET_BITS", "70000")
        code, _, err = run(capsys, ["eval", "H(4,2,5)", "--max-bits", "16384"])
        assert code == 3

    def test_garbage_env_is_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("TRANSFINITE_BUDGET_BITS", "many")
        code, _, err = run(capsys, ["eval", "w"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("env, flags", [
        pytest.param(None, ["--max-bits", "10000000000"], id="flag"),
        pytest.param("10000000000", [], id="env"),
    ])
    def test_bit_cap_past_the_digit_guard_limit(self, capsys, monkeypatch, env, flags):
        # The int-to-str guard takes at most a C int; a wider cap is clamped.
        if env is None:
            monkeypatch.delenv("TRANSFINITE_BUDGET_BITS", raising=False)
        else:
            monkeypatch.setenv("TRANSFINITE_BUDGET_BITS", env)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            assert run(capsys, ["eval", *flags, "1"]) == (0, "1\n", "")
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the int-to-str limit exists from Python 3.11")
    @pytest.mark.parametrize("argv, code", [
        (["cmp", "1", "2"], 0),
        (["eval", "w^"], 2),
    ], ids=["answer", "parse-error"])
    def test_int_to_str_limit_is_restored(self, capsys, argv, code):
        # The lift lasts one command, so a library caller's rendering does
        # not depend on an earlier CLI call.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(capsys, argv)[0] == code
            assert sys.get_int_max_str_digits() == 4300
            with pytest.raises(BudgetExceeded):
                format_ordinal(eval_expr(parse("H(3,10,4400)")))
        finally:
            sys.set_int_max_str_digits(saved)

    def test_sup_samples_flag_accepted(self, capsys):
        code, out, _ = run(capsys, ["eval", "S(2,w,w)", "--sup-samples", "16"])
        assert (code, out) == (0, "w^2\n")


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "pass: all checks succeeded" in out
        assert "FAIL" not in out

    def test_a_wrong_pair_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SELFTEST_PAIRS", cli.SELFTEST_PAIRS + (("2 * w", "w * 2"),))
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert "FAIL 2 * w: w (wanted w*2)\n" in out
        assert out.endswith("FAIL: 1 check(s) failed\n")


class TestParserReuse:
    """main builds its parser once per process; reusing it changes no output."""

    USAGE, HELP = ("SystemExit", 2), ("SystemExit", 0)
    ARGVS = [
        pytest.param(["eval", "w^(w+1)*3 + 5"], 0, id="eval"),
        pytest.param(["cmp", "w*2", "w+w"], 0, id="cmp"),
        pytest.param(["table", "--op", "H", "--index", "2", "--rows", "3", "--cols", "3"], 0,
                     id="table"),
        pytest.param(["mains", "--index", "1", "--bound", "w^2"], 0, id="mains"),
        pytest.param(["selftest"], 0, id="selftest"),
        pytest.param(["eval", "1 +"], 2, id="exit-2"),
        pytest.param(["eval", "H(3,3,20000)"], 3, id="exit-3"),
        pytest.param(["eval", "S(4,w,w)"], 4, id="exit-4"),
        pytest.param(["bogus"], USAGE, id="unknown-command"),
        pytest.param(["eval"], USAGE, id="missing-expression"),
        pytest.param(["table", "--op", "X", "--index", "2", "--rows", "1", "--cols", "1"],
                     USAGE, id="bad-choice"),
        pytest.param(["eval", "--max-bits", "x", "1"], USAGE, id="bad-int"),
        pytest.param(["eval", "--help"], HELP, id="help"),
    ]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_does_not_build_it(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from transfinite import cli; print(cli.build_parser.cache_info().currsize)"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_import_loads_no_dataclasses(self):
        # -S keeps site's .pth files, which may import anything, out of it.
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, transfinite.cli;"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv, code", ARGVS)
    def test_shared_parser_matches_a_fresh_one(self, capsys, monkeypatch, argv, code):
        first = run(capsys, argv)
        assert first[0] == code
        assert run(capsys, argv) == first
        fresh = cli.build_parser.__wrapped__()
        monkeypatch.setattr(cli, "build_parser", lambda: fresh)
        assert run(capsys, argv) == first

    def test_budget_variable_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.delenv("TRANSFINITE_BUDGET_BITS", raising=False)
        assert run(capsys, ["eval", "H(4,2,5)"])[0] == 3
        monkeypatch.setenv("TRANSFINITE_BUDGET_BITS", "70000")
        code, out, _ = run(capsys, ["eval", "H(4,2,5)"])
        assert (code, len(out.strip())) == (0, 19729)

    def test_terminal_width_is_read_on_every_call(self, capsys, monkeypatch):
        run(capsys, ["eval", "w"])
        monkeypatch.setenv("COLUMNS", "200")
        wide = run(capsys, ["eval", "--help"])
        monkeypatch.setenv("COLUMNS", "40")
        narrow = run(capsys, ["eval", "--help"])
        assert narrow != wide
        fresh = cli.build_parser.__wrapped__()
        monkeypatch.setattr(cli, "build_parser", lambda: fresh)
        assert run(capsys, ["eval", "--help"]) == narrow

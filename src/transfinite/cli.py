"""Command line calculator and main-number explorer.

Subcommands: eval, cmp, table, mains, selftest.  Exit codes: 0 success,
2 parse error, 3 budget exceeded, 4 value not representable below
epsilon_0; selftest exits 1 when one of its checks fails.  The
TRANSFINITE_BUDGET_BITS environment variable overrides the default bit
cap; explicit --max-bits wins over the variable.

main builds its argument parser once per process, on the first call, and
reuses it: the budget, TRANSFINITE_BUDGET_BITS and the terminal width
(read when usage or help text is printed) are still read on every call.
Each subparser names its handler; selftest evaluates SELFTEST_PAIRS.
mains prints its report byte-identical to json.dumps(..., indent=2), but
without json's pure-Python indenting encoder, whose closures form a cycle.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .arithmetic import add, mul, pow_
from .budget import EvalBudget
from .errors import BudgetExceeded, NotRepresentable, OrdinalDomainError, ParseError
from .hyper import hyper, left_hyper, no_left_identity_witness
from .mains import DEFAULT_LATTICE_SPEC, enumerate_main_numbers, is_main_number
from .notation import eval_expr, format_ordinal, parse
from .ordinal import OMEGA, check_natural, compare, from_natural
from .synthesis import distributes, synth

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_UNREPRESENTABLE = 4


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sup-samples", type=int, default=None, metavar="K",
                     help="samples taken along a fundamental sequence")
    sub.add_argument("--max-depth", type=int, default=None, metavar="D",
                     help="recursion depth cap")
    sub.add_argument("--max-bits", type=int, default=None, metavar="B",
                     help="bit-length cap for naturals")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it.

    main parses every command with this one object, so callers must not
    add to it or change it.  Building it leaves cyclic garbage once per
    process: argparse (3.11) makes a HelpFormatter in every add_argument
    call to check the metavar, and each one is a cycle with its _Section
    (109 objects for this parser).  After that, a command leaves none,
    refused or not, except an argparse usage error, whose usage message
    is printed through one more such formatter (6 objects on 3.11).
    """
    ap = argparse.ArgumentParser(
        prog="transfinite",
        description="Exact ordinal arithmetic below epsilon_0",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="parse and evaluate an expression")
    ev.add_argument("expr")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(run=_cmd_eval)
    _add_budget_flags(ev)

    cp = subs.add_parser("cmp", help="compare two expressions")
    cp.add_argument("left")
    cp.add_argument("right")
    cp.set_defaults(run=_cmd_cmp)
    _add_budget_flags(cp)

    tb = subs.add_parser("table", help="value table for small naturals")
    tb.add_argument("--op", choices=("H", "L", "S"), required=True)
    tb.add_argument("--index", type=int, required=True, metavar="N")
    tb.add_argument("--rows", type=int, required=True, metavar="A")
    tb.add_argument("--cols", type=int, required=True, metavar="B")
    tb.set_defaults(run=_cmd_table)
    _add_budget_flags(tb)

    mn = subs.add_parser("mains", help="closure scan below a bound")
    mn.add_argument("--index", type=int, required=True, metavar="I")
    mn.add_argument("--bound", required=True, metavar="EXPR")
    mn.add_argument("--depth", type=int, default=DEFAULT_LATTICE_SPEC[0])
    mn.add_argument("--coeff", type=int, default=DEFAULT_LATTICE_SPEC[1])
    mn.add_argument("--terms", type=int, default=DEFAULT_LATTICE_SPEC[2])
    mn.set_defaults(run=_cmd_mains)
    _add_budget_flags(mn)

    st = subs.add_parser("selftest", help="run the built-in check suite")
    st.set_defaults(run=_cmd_selftest)
    _add_budget_flags(st)

    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budget = EvalBudget.from_env(max_depth=args.max_depth, max_bits=args.max_bits,
                                     sup_samples=args.sup_samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # The bit cap bounds every natural produced, but rendering one can
    # still trip the interpreter's int-to-str guard; lift it to match, up
    # to the largest limit the interpreter accepts (a C int), for this
    # command only (0 means no limit).
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = min(budget.max_bits // 3 + 16, 2**31 - 1)
    if 0 < saved < digits:
        sys.set_int_max_str_digits(digits)
    try:
        return args.run(args, budget)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrdinalDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotRepresentable as exc:
        print(f"not representable: {exc}", file=sys.stderr)
        return EXIT_UNREPRESENTABLE
    finally:
        if 0 < saved < digits:
            sys.set_int_max_str_digits(saved)


def _cmd_eval(args, budget: EvalBudget) -> int:
    value = eval_expr(parse(args.expr), budget)
    print(format_ordinal(value, args.format))
    return EXIT_OK


def _cmd_cmp(args, budget: EvalBudget) -> int:
    left = eval_expr(parse(args.left), budget)
    right = eval_expr(parse(args.right), budget)
    print({-1: "<", 0: "=", 1: ">"}[compare(left, right)])
    return EXIT_OK


def _cmd_table(args, budget: EvalBudget) -> int:
    check_natural(args.rows, "--rows")
    check_natural(args.cols, "--cols")
    def cell(a: int, b: int) -> str:
        try:
            if args.op == "S":
                return str(synth(args.index, from_natural(a), from_natural(b), budget))
            return str({"H": hyper, "L": left_hyper}[args.op](args.index, a, b, budget))
        except BudgetExceeded:
            return "!"

    rows = [["a\\b"] + [str(b) for b in range(args.cols + 1)]]
    for a in range(args.rows + 1):
        rows.append([str(a)] + [cell(a, b) for b in range(args.cols + 1)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return EXIT_OK


def _cmd_mains(args, budget: EvalBudget) -> int:
    bound = eval_expr(parse(args.bound), budget)
    report = enumerate_main_numbers(
        args.index, bound,
        lattice_spec=(args.depth, args.coeff, args.terms),
        budget=budget,
    )
    print(_json_text(report.json_dict()))
    return EXIT_OK


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for a document with str keys."""
    inner = indent + "  "
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + indent + "]"
    if isinstance(obj, int):
        return "true" if obj is True else "false" if obj is False else int.__repr__(obj)
    return "null" if obj is None else json.dumps(obj)  # empty containers, floats


# Expression pairs that must evaluate to the same value, each labelled by
# its left side.
SELFTEST_PAIRS = (
    ("H(2,7,9)", "63"), ("H(3,2,10)", "1024"), ("H(4,3,3)", "7625597484987"),
    ("H(4,2,3)", "16"), ("L(4,2,3)", "1"),
    ("1 + w", "w"), ("2 * w", "w"), ("w * 2", "w + w"), ("2 ^ w", "w"), ("0 ^ w", "1"),
    ("S(2,w,w)", "w^2"), ("S(4,2,w+1)", "w^2"), ("S(3,w,w^2)", "w^(w^2)"),
    ("N(2,3,w*2)", "N(2,3,w)"),
)


def _cmd_selftest(args, budget: EvalBudget) -> int:
    w = OMEGA
    n2 = from_natural(2)
    failures = 0

    def check(label, got, want) -> None:
        nonlocal failures
        ok = got == want
        failures += 0 if ok else 1
        status = "ok  " if ok else "FAIL"
        print(f"{status} {label}: {got}" + ("" if ok else f" (wanted {want})"))

    for left, right in SELFTEST_PAIRS:
        check(left, eval_expr(parse(left), budget), eval_expr(parse(right), budget))
    for e in (0, 1, 2, 10):
        a = no_left_identity_witness(e)
        check(f"left-identity witness e={e}", e ** a != a, True)

    agree = all(
        synth(n, from_natural(a), from_natural(b), budget)
        == from_natural(hyper(n, a, b, budget))
        for n in (1, 2, 3) for a in range(5) for b in range(5)
    ) and all(
        synth(4, from_natural(a), from_natural(b), budget)
        == from_natural(hyper(4, a, b, budget))
        for a in range(3) for b in range(3)
    )
    check("ladder agrees with hyperoperations on naturals", agree, True)
    check("fold vs direct at (4,2,w+1)",
          distributes(4, n2, add(w, from_natural(1)), budget).agrees, True)

    verdict = is_main_number(1, mul(w, n2), budget=budget)
    check("w*2 refuted with witness", verdict.main, False)
    if verdict.witness is not None:
        a, b = verdict.witness
        check("witness re-verifies", synth(1, a, b, budget) >= mul(w, n2), True)

    report = enumerate_main_numbers(1, pow_(w, from_natural(3), budget), budget=budget)
    check("infinite mains below w^3",
          [str(x) for x in report.confirmed_infinite], ["w", "w^2", "w^3"])
    check("conjecture rows match", report.all_match, True)

    if failures:
        print(f"FAIL: {failures} check(s) failed")
        return 1
    print("pass: all checks succeeded")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: twelve numbered end-to-end checks.

Each check asserts exact content first, then its pinned wall-clock
budget, then prints one `criterion NN PASS (elapsed)` line; run with
-s for the checklist, or read the per-test PASSED/FAILED lines under
-v.  Suites 5 through 10 live in budget-parameterized helpers, cached
per budget, so the final robustness check can rerun them with doubled
sup sampling and diff successful results instead of paying twice.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from functools import lru_cache

from transfinite.arithmetic import add, mul, pow_
from transfinite.budget import EvalBudget
from transfinite.cli import main
from transfinite.errors import BudgetExceeded, NotRepresentable
from transfinite.hyper import hyper, no_left_identity_witness
from transfinite.mains import enumerate_main_numbers
from transfinite.notation import eval_expr, format_ordinal, parse
from transfinite.ordinal import (
    Ordinal,
    ZERO,
    ONE,
    compare,
    from_natural,
    is_additive_principal,
)
from transfinite.reference import reference_check
from transfinite.synthesis import distributes, naive_ext, synth

from support import (
    W,
    nat,
    ordinal_corpus_below_w_w,
    pair_corpus_below_w_w2,
    repeated_term_count,
    tree_corpus,
)

B8 = EvalBudget()
B16 = EvalBudget(sup_samples=16)


def _done(num: int, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {num:02d} took {elapsed:.2f}s, budget {budget_s:g}s"
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s)", flush=True)


@lru_cache(maxsize=None)
def _points():
    return tuple(sorted(ordinal_corpus_below_w_w(200)))


@lru_cache(maxsize=None)
def _pairs():
    """500 ordered index pairs (lo, hi) into _points(), lo-th < hi-th."""
    points = _points()
    rng = random.Random(20260818)
    out = []
    while len(out) < 500:
        a = rng.randrange(len(points))
        b = rng.randrange(len(points))
        c = compare(points[a], points[b])
        if c == 0:
            continue
        out.append((a, b) if c < 0 else (b, a))
    return tuple(out)


@lru_cache(maxsize=None)
def _corpus():
    return tuple(pair_corpus_below_w_w2())


def _alphas(budget):
    return (nat(2), nat(3), W, add(W, nat(1)), pow_(W, W, budget))


@lru_cache(maxsize=None)
def _suite5(budget):
    """Finite grid values of synth, keyed (n, a, b)."""
    out = {}
    for n in (1, 2, 3):
        for a in range(9):
            for b in range(9):
                out[(n, a, b)] = synth(n, nat(a), nat(b), budget)
    for a in range(4):
        for b in range(4):
            out[(4, a, b)] = synth(4, nat(a), nat(b), budget)
    for b in range(4):
        out[(5, 2, b)] = synth(5, nat(2), nat(b), budget)
    return out


@lru_cache(maxsize=None)
def _suite6(budget):
    """synth at levels 1..3 over the big pair corpus, keyed (n, pair index)."""
    out = {}
    for j, (x, y) in enumerate(_corpus()):
        for n in (1, 2, 3):
            out[(n, j)] = synth(n, x, y, budget)
    return out


@lru_cache(maxsize=None)
def _suite7(budget):
    """synth(i, alpha, beta) over the sorted sample points.

    Keyed (i, alpha position, point index); exceptions are recorded by
    class name so the robustness rerun can tell successes apart.
    """
    out = {}
    for i in (1, 2, 3, 4):
        for ai, alpha in enumerate(_alphas(budget)):
            for k, beta in enumerate(_points()):
                try:
                    out[(i, ai, k)] = synth(i, alpha, beta, budget)
                except NotRepresentable:
                    out[(i, ai, k)] = "NotRepresentable"
                except BudgetExceeded:
                    out[(i, ai, k)] = "BudgetExceeded"
    return out


@lru_cache(maxsize=None)
def _suite8(budget):
    grid_a = (W, add(W, nat(1)), pow_(W, nat(2), budget))
    grid_b = (W, add(W, nat(1)), mul(W, nat(2)), pow_(W, nat(2), budget))
    return {
        (ai, bi): naive_ext(2, a, b, budget)
        for ai, a in enumerate(grid_a)
        for bi, b in enumerate(grid_b)
    }


@lru_cache(maxsize=None)
def _suite9(budget):
    """distributes() over corpus pairs whose beta has at least two units."""
    out = {}
    for j, (x, y) in enumerate(_corpus()):
        if repeated_term_count(y) < 2:
            continue
        for n in (2, 3, 4):
            try:
                out[(n, j)] = distributes(n, x, y, budget).agrees
            except (NotRepresentable, BudgetExceeded) as e:
                out[(n, j)] = type(e).__name__
    return out


@lru_cache(maxsize=None)
def _mains_text(index: int, bound: str, sup_samples: int, run: int) -> str:
    """One CLI mains run captured as text; run is a cache-buster so the
    determinism check gets two genuine executions."""
    argv = ["mains", "--index", str(index), "--bound", bound]
    if sup_samples != B8.sup_samples:
        argv += ["--sup-samples", str(sup_samples)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"mains exited {rc}"
    return buf.getvalue()


_MAINS_RUNS = ((1, "w^5"), (2, "w^(w^3)"))


def test_criterion_01_hyper_matches_integer_mul_and_pow():
    t0 = time.perf_counter()
    for a in range(51):
        for b in range(51):
            assert hyper(2, a, b) == a * b, (a, b)
    for a in range(11):
        for b in range(11):
            assert hyper(3, a, b) == a**b, (a, b)
    _done(1, t0, 1.0)


def test_criterion_02_no_left_identity_witnesses_total():
    t0 = time.perf_counter()
    for e in range(1001):
        a = no_left_identity_witness(e)
        assert 0 <= a <= 3
        power = 1
        for _ in range(a):
            power *= e
        assert power != a, f"e={e}: {e}^{a} == {a}"
    _done(2, t0, 1.0)


def _assert_canonical(x: Ordinal) -> None:
    prev = None
    for exp, coeff in x.terms:
        assert isinstance(coeff, int) and coeff >= 1
        _assert_canonical(exp)
        if prev is not None:
            assert compare(prev, exp) > 0, "exponents not strictly decreasing"
        prev = exp


def test_criterion_03_tree_corpus_canonical_and_round_trips():
    t0 = time.perf_counter()
    trees = tree_corpus()
    assert len(trees) == 10_000
    for x in trees:
        _assert_canonical(x)
        single = len(x.terms) == 1 and x.terms[0][1] == 1
        assert is_additive_principal(x) == single, format_ordinal(x)
        text = format_ordinal(x)
        assert eval_expr(parse(text)) == x, text
    _done(3, t0, 5.0)


def test_criterion_04_closed_forms_match_recursive_reference():
    t0 = time.perf_counter()
    assert add(ONE, W) == W
    assert mul(nat(2), W) == W
    assert mul(W, nat(2)) == add(W, W)
    assert pow_(nat(2), W) == W
    assert pow_(ZERO, W) == ONE
    for x, y in _corpus():
        for op in ("add", "mul", "pow"):
            assert reference_check(op, x, y, B8), (op, format_ordinal(x), format_ordinal(y))
    _done(4, t0, 10.0)


def test_criterion_05_synthesis_matches_integer_hyper_grid():
    t0 = time.perf_counter()
    values = _suite5(B8)
    for (n, a, b), got in values.items():
        assert got == from_natural(hyper(n, a, b)), (n, a, b)
    assert len(values) == 3 * 81 + 16 + 4
    _done(5, t0, 5.0)


def test_criterion_06_synthesis_matches_classic_arithmetic():
    t0 = time.perf_counter()
    values = _suite6(B8)
    classic = {1: add, 2: mul, 3: lambda x, y: pow_(x, y, B8)}
    for j, (x, y) in enumerate(_corpus()):
        for n in (1, 2, 3):
            assert values[(n, j)] == classic[n](x, y), (
                n,
                format_ordinal(x),
                format_ordinal(y),
            )
    _done(6, t0, 30.0)


def test_criterion_07_synthesis_strictly_monotone_and_injective():
    t0 = time.perf_counter()
    values = _suite7(B8)
    points = _points()
    checked_low = 0
    strict_top = 0
    for i in (1, 2, 3, 4):
        for ai in range(5):
            # Unrepresentable means the true value reached epsilon_0, and
            # larger arguments only push it higher, so along the sorted
            # points a representable value may never follow one.  Budget
            # failures prove nothing either way and stay opaque.
            seen_unrep = False
            for k in range(len(points)):
                v = values[(i, ai, k)]
                if v == "NotRepresentable":
                    seen_unrep = True
                elif isinstance(v, Ordinal) and seen_unrep:
                    raise AssertionError(
                        f"i={i} alpha#{ai}: representable again at {format_ordinal(points[k])}"
                    )
            for lo, hi in _pairs():
                vl, vh = values[(i, ai, lo)], values[(i, ai, hi)]
                if not (isinstance(vl, Ordinal) and isinstance(vh, Ordinal)):
                    continue
                c = compare(vl, vh)
                assert c < 0, (
                    f"i={i} alpha#{ai}: not strictly increasing at "
                    f"{format_ordinal(points[lo])} < {format_ordinal(points[hi])}"
                )
                if i <= 3:
                    checked_low += 1
                else:
                    strict_top += 1
    # levels 1..3 are total on this corpus, level 4 keeps a thin
    # representable fringe; both must actually get exercised
    assert checked_low == 15 * 500
    assert strict_top >= 1
    _done(7, t0, 60.0)


def test_criterion_08_naive_extension_collapses_at_omega():
    t0 = time.perf_counter()
    values = _suite8(B8)
    for ai in range(3):
        at_omega = values[(ai, 0)]
        for bi in range(4):
            assert values[(ai, bi)] == at_omega, (ai, bi)
    assert values[(0, 0)] == mul(W, W)
    _done(8, t0, 1.0)


def test_criterion_09_synthesis_distributes_over_units():
    t0 = time.perf_counter()
    results = _suite9(B8)
    checked = 0
    for key, agreed in results.items():
        if isinstance(agreed, str):
            continue
        assert agreed is True, key
        checked += 1
    assert checked >= 1000
    _done(9, t0, 30.0)


def test_criterion_10_main_number_reports_deterministic():
    t0 = time.perf_counter()
    runner = [
        sys.executable,
        "-c",
        "import sys; from transfinite.cli import main; sys.exit(main(sys.argv[1:]))",
    ]
    for index, bound in _MAINS_RUNS:
        first = _mains_text(index, bound, 8, 1)
        second = _mains_text(index, bound, 8, 2)
        assert first == second, "repeated runs differ"
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                runner + ["mains", "--index", str(index), "--bound", bound],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert proc.stdout == first, f"hash seed {seed} changed the report"
        report = json.loads(first)
        ranks = report["confirmed_infinite"]
        assert ranks, "no confirmed infinite mains"
        for r, text in enumerate(ranks):
            expected = synth(index + 1, W, pow_(W, nat(r), B8), B8)
            assert text == format_ordinal(expected), f"rank {r}"
        assert report["all_match"] is True
        rows = report["conjectured_match"]
        assert [row["observed"] for row in rows[: len(ranks)]] == ranks
        assert all(row["match"] for row in rows[: len(ranks)])
    assert json.loads(_mains_text(1, "w^5", 8, 1))["confirmed_infinite"] == [
        "w",
        "w^2",
        "w^3",
        "w^4",
        "w^5",
    ]
    assert json.loads(_mains_text(2, "w^(w^3)", 8, 1))["confirmed_infinite"] == [
        "w",
        "w^w",
        "w^(w^2)",
        "w^(w^3)",
    ]
    _done(10, t0, 120.0)


def test_criterion_11_cli_known_values():
    t0 = time.perf_counter()
    cases = [
        (["eval", "H(4,3,3)"], 0, "7625597484987\n"),
        (["eval", "S(4,2,w+1)"], 0, "w^2\n"),
        (["eval", "S(4,w,w)"], 4, None),
    ]
    for argv, want_rc, want_out in cases:
        started = time.perf_counter()
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        elapsed = time.perf_counter() - started
        assert rc == want_rc, (argv, rc)
        if want_out is not None:
            assert buf.getvalue() == want_out, argv
        assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"
    _done(11, t0, 3.0)


def test_criterion_12_sup_sample_insensitivity():
    t0 = time.perf_counter()
    changed = []
    for suite in (_suite5, _suite6, _suite7, _suite8, _suite9):
        base = suite(B8)
        wide = suite(B16)
        for key, v in base.items():
            if isinstance(v, str):
                continue
            w = wide[key]
            if isinstance(w, str) or w != v:
                changed.append((suite.__wrapped__.__name__, key, v, w))
    for index, bound in _MAINS_RUNS:
        narrow = json.loads(_mains_text(index, bound, 8, 1))
        wide = json.loads(_mains_text(index, bound, 16, 1))
        for field in (
            "confirmed",
            "confirmed_infinite",
            "refuted",
            "conjectured_match",
            "all_match",
        ):
            if narrow[field] != wide[field]:
                changed.append(("mains", index, field))
    assert not changed, changed[:5]
    elapsed = time.perf_counter() - t0
    print(f"criterion 12 PASS ({elapsed:.2f}s)", flush=True)


def test_mains_report_bytes_at_16_samples():
    # The 8-sample bytes are pinned in test_mains.TestReportBytes; this run
    # is shared with criterion 12 through _mains_text's cache.
    text = _mains_text(2, "w^(w^3)", 16, 1)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5fd96766ce80b691678102693faf38ca58a3b7815574a34a8bfdc862f087d5bd")

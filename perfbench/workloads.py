"""The benchmark's four workloads: seeded inputs, the operations, the checks.

A workload is built from its seed before any timing starts.  Its ``ops``
are zero-argument callables, each one operation a user would make; an op
returns its outcome and never raises for an outcome the workload expects.
``check`` runs after the measured pass and compares every outcome with a
route that does not go through the code under test (see oracle.py).

Every call into the package goes through a module attribute
(``tf.synth``, ``cli.main``) at call time, so that tracer.py can wrap it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import cmp_to_key, partial
from typing import Callable, Dict, List, Sequence, Tuple

import transfinite as tf
from transfinite import cli

import oracle
from oracle import OMEGA, ONE, ZERO, Plain, nat, render


def to_ordinal(p: Plain) -> tf.Ordinal:
    return tf.Ordinal(tuple((to_ordinal(e), c) for e, c in p))


def to_plain(x: tf.Ordinal) -> Plain:
    return tuple((to_plain(e), c) for e, c in x.terms)


def _refusal(exc: tf.TransfiniteError) -> str:
    return type(exc).__name__


def digest(outcomes: Sequence) -> str:
    """Fingerprint of a pass's outcomes, compared across passes and hash seeds."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    name = ""
    ops: List[Callable[[], object]]

    def check(self, outcomes: List[object]) -> Tuple[int, dict]:
        """Count failed operations and describe the outcomes."""
        raise NotImplementedError

    def fingerprint(self, outcomes: List[object]) -> str:
        return digest(outcomes)


# --- mains-deep -------------------------------------------------------------

class MainsDeep(Workload):
    """One main-number report; the seed does not change this input.

    The full size pins the SHA-256 of the report JSON as the command line
    prints it, so a change that alters a single byte of the report fails.
    """

    name = "mains-deep"
    CASES = {
        "full": (2, oracle.wpow(oracle.wpow(nat(3))),
                 ["w", "w^w", "w^(w^2)", "w^(w^3)"],
                 "e4ba830971c11696958a843b11781ecc53fbf9648d700ce135e391215cd285fe"),
        "smoke": (2, oracle.wpow(OMEGA), ["w", "w^w"], None),
    }

    def __init__(self, seed: int, size: str):
        self.index, bound, self.expected, self.sha = self.CASES[size]
        self.bound = to_ordinal(bound)
        self.ops = [self._report]

    def _report(self):
        return tf.enumerate_main_numbers(self.index, self.bound)

    @staticmethod
    def render(report) -> str:
        return json.dumps(report.json_dict(), indent=2) + "\n"

    def fingerprint(self, outcomes):
        return digest([self.render(r) for r in outcomes])

    def check(self, outcomes):
        failed = 0
        for report in outcomes:
            text = self.render(report)
            failed += not (
                [str(x) for x in report.confirmed_infinite] == self.expected
                and report.all_match is True
                and (self.sha is None
                     or hashlib.sha256(text.encode()).hexdigest() == self.sha)
            )
        return failed, {}


# --- ladder-corpus and oracle-check -----------------------------------------

def pair_corpus(seed: int, count: int) -> List[Tuple[Plain, Plain]]:
    """Operand pairs below w^(w^2); both pair workloads draw the same list.

    Left and right operands are stratified by shape, each side on its own.
    """
    rng = random.Random(f"pairs/{seed}")
    left = oracle.stratified_below_w_w2(rng, count)
    return list(zip(left, oracle.stratified_below_w_w2(rng, count)))


def sorted_points(seed: int, count: int) -> List[Plain]:
    """Distinct values below w^w in ascending order."""
    rng = random.Random(f"points/{seed}")
    seen: Dict[Plain, None] = {}
    while len(seen) < count:
        seen.setdefault(oracle.rand_below_w_w(rng))
    return sorted(seen, key=cmp_to_key(oracle.cmp))


def expected_outcome(n: int, x: Plain, y: Plain, max_bits: int):
    """What synth(n, x, y) must give, by oracle.py: a value, or the name of
    the refusal."""
    try:
        if n == 4:
            return oracle.tetration(x, y, max_bits)
        return (oracle.add, oracle.mul, partial(oracle.power, max_bits=max_bits))[n - 1](x, y)
    except oracle.Unrepresentable:
        return "NotRepresentable"
    except oracle.TooBig:
        return "BudgetExceeded"


class LadderCorpus(Workload):
    """Independent synth calls, each with a fresh memo.

    Levels 1-3 run over the pair corpus, level 4 runs every alpha over the
    sorted points.  Every outcome, value or refusal, must be the one
    oracle.py computes.  Level 4 must also keep the monotonicity
    invariants: once a value is not representable no later point yields
    a value, and the values strictly increase.
    """

    name = "ladder-corpus"
    ALPHAS = (nat(2), nat(3), OMEGA, ((ONE, 1), (ZERO, 1)), oracle.wpow(OMEGA))
    COUNTS = {"full": (1000, 200), "smoke": (20, 10)}

    def __init__(self, seed: int, size: str):
        n_pairs, n_points = self.COUNTS[size]
        self.budget = tf.EvalBudget()
        self.cases: List[Tuple[int, Plain, Plain]] = []
        for x, y in pair_corpus(seed, n_pairs):
            self.cases.extend((n, x, y) for n in (1, 2, 3))
        points = sorted_points(seed, n_points)
        self.cases.extend((4, a, p) for a in self.ALPHAS for p in points)
        self.ops = [partial(self._synth, n, to_ordinal(x), to_ordinal(y))
                    for n, x, y in self.cases]

    def _synth(self, n, x, y):
        try:
            return tf.synth(n, x, y, self.budget)
        except (tf.NotRepresentable, tf.BudgetExceeded) as exc:
            return _refusal(exc)

    def check(self, outcomes):
        failed = 0
        tally = {"values": 0, "NotRepresentable": 0, "BudgetExceeded": 0}
        last: Dict[Plain, Tuple[bool, Plain]] = {}  # alpha -> (seen refusal, last value)
        for (n, x, y), out in zip(self.cases, outcomes):
            got = to_plain(out) if isinstance(out, tf.Ordinal) else out
            ok = got == expected_outcome(n, x, y, self.budget.max_bits)
            if n == 4:
                seen_unrep, prev = last.get(x, (False, None))
                if isinstance(out, tf.Ordinal):
                    tally["values"] += 1
                    ok = ok and not seen_unrep and (prev is None or oracle.cmp(prev, got) < 0)
                    prev = got
                elif out in tally:
                    tally[out] += 1
                    seen_unrep = seen_unrep or out == "NotRepresentable"
                last[x] = (seen_unrep, prev)
            failed += not ok
        return failed, {"level4": tally}


class OracleCheck(Workload):
    """reference_check for add, mul and pow over the pair corpus; every one must hold."""

    name = "oracle-check"
    COUNTS = {"full": 1000, "smoke": 20}

    def __init__(self, seed: int, size: str):
        self.budget = tf.EvalBudget()
        self.cases = [(op, x, y) for x, y in pair_corpus(seed, self.COUNTS[size])
                      for op in ("add", "mul", "pow")]
        self.ops = [partial(self._check, op, to_ordinal(x), to_ordinal(y))
                    for op, x, y in self.cases]

    def _check(self, op, x, y):
        try:
            return tf.reference_check(op, x, y, self.budget)
        except (tf.NotRepresentable, tf.BudgetExceeded) as exc:
            return _refusal(exc)

    def check(self, outcomes):
        """A true reference_check says the recursive reference equals the
        package's closed form; the closed form must then equal oracle.py."""
        closed = {"add": tf.add, "mul": tf.mul,
                  "pow": lambda x, y: tf.pow_(x, y, self.budget)}
        level = {"add": 1, "mul": 2, "pow": 3}
        failed = 0
        for (op, x, y), out in zip(self.cases, outcomes):
            want = expected_outcome(level[op], x, y, self.budget.max_bits)
            failed += not (out is True
                           and to_plain(closed[op](to_ordinal(x), to_ordinal(y))) == want)
        return failed, {}


# --- cli-session ------------------------------------------------------------

# Commands per 1000 in the stream, by class.  The counts are fixed and
# only the order and the members drawn vary with the seed, so the class
# mix, not the luck of the draw, sets the pass time.  p99 is the 10th
# slowest command: the 2 H(5,2,5) refusals (about 200 ms) are above it,
# and it sits in the middle of the 20 H(3,3,k) refusals (about 40 ms),
# away from both class edges; every other class is under 20 ms.
MIX = (
    ("readme", 40),
    ("eval", 376),
    ("cmp", 140),
    ("apply", 300),
    ("table", 50),
    ("mains", 40),
    ("budget", 20),
    ("budget-deep", 2),
    ("unrepresentable", 32),
)

# Pool size per class: with the mix above about half the stream repeats
# an earlier command.
POOL = {"eval": 400, "cmp": 150, "apply": 250, "table": 40}

README = (
    (("eval", "w^(w+1)*3 + 5"), ("out", "w^(w + 1)*3 + 5\n")),
    (("eval", "H(4,3,3)"), ("out", "7625597484987\n")),
    (("eval", "S(4,2,w+1)"), ("out", "w^2\n")),
    (("eval", "--format", "json", "S(3,w+1,w)"),
     ("out", json.dumps(oracle.json_form(oracle.wpow(OMEGA))) + "\n")),
    (("cmp", "w*2", "w+w"), ("out", "=\n")),
    (("table", "--op", "S", "--index", "2", "--rows", "5", "--cols", "5"), None),
    (("mains", "--index", "1", "--bound", "w^5"), ("mains", 5)),
    (("selftest",), ("selftest",)),
)

# Transfinite ladder values, each checked by hand against the closed forms:
# e.g. S(4,w+1,2) = (w+1)^(w+1) = w^w*(w+1) = w^(w + 1) + w^w.
LADDER_VALUES = (
    ("S(1,w,1)", "w + 1"), ("S(1,1,w)", "w"), ("S(2,w,w)", "w^2"),
    ("S(2,2,w)", "w"), ("S(2,w+1,3)", "w*3 + 1"), ("S(3,2,w)", "w"),
    ("S(3,w,2)", "w^2"), ("S(3,w,w^2)", "w^(w^2)"), ("S(4,2,w+1)", "w^2"),
    ("S(4,3,w)", "w"), ("S(4,2,w*2)", "w^w"), ("S(4,w,3)", "w^(w^w)"),
    ("S(4,w+1,2)", "w^(w + 1) + w^w"), ("N(2,3,w*2)", "w"), ("N(3,2,w+2)", "w"),
)

UNREPRESENTABLE = ("S(4,w,w)", "S(4,2,w^2)", "S(4,w,w+1)", "S(4,3,w^2)",
                   "S(4,2,w^3)", "S(4,w^2,w)", "S(4,w,w*2)", "S(4,2,w^w)")

MAX_BITS = 16384  # the default bit cap the command line applies


def table_text(op: str, index: int, rows: int, cols: int) -> str:
    fn = oracle.left_hyper if op == "L" else oracle.hyper
    grid = [["a\\b"] + [str(b) for b in range(cols + 1)]]
    for a in range(rows + 1):
        grid.append([str(a)] + [str(fn(index, a, b, MAX_BITS)) for b in range(cols + 1)])
    widths = [max(len(r[i]) for r in grid) for i in range(len(grid[0]))]
    return "".join("  ".join(s.rjust(w) for s, w in zip(r, widths)) + "\n" for r in grid)


def _small_operands(rng: random.Random, n: int) -> Tuple[int, int]:
    top = {1: 50, 2: 50, 3: 10, 4: 3}[n]
    return rng.randint(0, top), rng.randint(0, top)


def _pool(kind: str, rng: random.Random) -> list:
    """(argv, expectation) pairs for one command class."""
    if kind == "readme":
        table = ("out", table_text("S", 2, 5, 5))
        return [(argv, want or table) for argv, want in README]
    if kind == "eval":
        out = []
        for _ in range(POOL["eval"]):
            gen = rng.choice((oracle.rand_below_w_w2, oracle.rand_below_w_w,
                              lambda r: oracle.rand_tree(r, 3)))
            p = gen(rng)
            if rng.random() < 0.1:
                out.append((("eval", "--format", "json", render(p)),
                            ("out", json.dumps(oracle.json_form(p)) + "\n")))
            else:
                out.append((("eval", render(p)), ("out", render(p) + "\n")))
        return out
    if kind == "cmp":
        out = []
        for _ in range(POOL["cmp"]):
            p = oracle.rand_below_w_w2(rng)
            if rng.random() < 0.5:
                out.append((("cmp", render(p), oracle.render_expanded(p)), ("out", "=\n")))
            else:
                q = oracle.rand_below_w_w(rng)
                sign = "<=>"[oracle.cmp(p, q) + 1]
                out.append((("cmp", render(p), render(q)), ("out", sign + "\n")))
        return out
    if kind == "apply":
        out = [(("eval", text), ("out", want + "\n")) for text, want in LADDER_VALUES]
        while len(out) < POOL["apply"]:
            letter = rng.choice("HLSN")
            n = rng.randint(1, 4)
            a, b = _small_operands(rng, n)
            fn = oracle.left_hyper if letter == "L" else oracle.hyper
            out.append(((f"eval", f"{letter}({n},{a},{b})"),
                        ("out", f"{fn(n, a, b, MAX_BITS)}\n")))
        return out
    if kind == "table":
        out = []
        for _ in range(POOL["table"]):
            op = rng.choice("HLS")
            index = rng.randint(1, 4)
            top = 3 if index == 4 else 5
            rows, cols = rng.randint(1, top), rng.randint(1, top)
            argv = ("table", "--op", op, "--index", str(index),
                    "--rows", str(rows), "--cols", str(cols))
            out.append((argv, ("out", table_text(op, index, rows, cols))))
        return out
    if kind == "mains":
        return [(("mains", "--index", "1", "--bound", render(oracle.wpow(nat(k)))), ("mains", k))
                for k in range(1, 6)]
    if kind == "budget":
        return [(("eval", f"H(3,3,{20000 + i})"), ("refused", 3, "budget exceeded: "))
                for i in range(10)]
    if kind == "budget-deep":
        return [(("eval", "H(5,2,5)"), ("refused", 3, "budget exceeded: "))]
    if kind == "unrepresentable":
        return [(("eval", text), ("refused", 4, "not representable: "))
                for text in UNREPRESENTABLE]
    raise ValueError(kind)


class CliSession(Workload):
    """One closed-loop client calling cli.main(argv) in process.

    The stream is drawn with replacement from per-class pools (see MIX),
    so about half the commands repeat an earlier one.  Every command's
    exit code and stdout are known in advance, and stderr may never hold
    a traceback.
    """

    name = "cli-session"
    COUNTS = {"full": 1000, "smoke": 100}

    def __init__(self, seed: int, size: str):
        rng = random.Random(f"{self.name}/{seed}")
        total = self.COUNTS[size]
        self.stream = []
        for kind, per_1000 in MIX:
            pool = _pool(kind, rng)
            count = max(1, round(per_1000 * total / 1000))
            self.stream.extend(rng.choice(pool) for _ in range(count))
        rng.shuffle(self.stream)
        self.ops = [partial(self._call, argv) for argv, _ in self.stream]

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejected the command
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def repeat_frac(self) -> float:
        return 1 - len({argv for argv, _ in self.stream}) / len(self.stream)

    def check(self, outcomes):
        failed = sum(not _meets(want, out) for (_, want), out in zip(self.stream, outcomes))
        return failed, {"repeat_frac": round(self.repeat_frac(), 4)}


def _meets(want, outcome) -> bool:
    if not isinstance(outcome, tuple):
        return False
    rc, out, err = outcome
    if "Traceback" in err:
        return False
    kind = want[0]
    if kind == "out":
        return (rc, out, err) == (0, want[1], "")
    if kind == "refused":
        return rc == want[1] and out == "" and err.startswith(want[2])
    if rc != 0 or err:
        return False
    if kind == "selftest":
        return out.endswith("pass: all checks succeeded\n")
    report = json.loads(out)
    expected = [render(oracle.wpow(nat(k))) for k in range(1, want[1] + 1)]
    return report["confirmed_infinite"] == expected and report["all_match"] is True


def build(name: str, seed: int, size: str) -> Workload:
    classes = {cls.name: cls for cls in (MainsDeep, LadderCorpus, OracleCheck, CliSession)}
    return classes[name](seed, size)

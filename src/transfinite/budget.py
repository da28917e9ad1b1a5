"""Evaluation budgets and the meter that enforces them.

Every potentially expensive evaluation takes an EvalBudget, plain
immutable data, and DEFAULT_BUDGET when it is given none.  Each refusal
rule is written here once: the bits rule is EvalBudget.check_bits, and a
Meter is the context of one evaluation: it holds the work counter and the
memo, applies the depth, work and size caps, and refuses an overflow of
the interpreter stack.
"""

from __future__ import annotations

import os
from collections import namedtuple
from typing import Optional

from .errors import BudgetExceeded
from .ordinal import Ordinal, check_natural

ENV_BITS = "TRANSFINITE_BUDGET_BITS"

DEFAULT_MAX_DEPTH = 256
DEFAULT_MAX_BITS = 16384
DEFAULT_SUP_SAMPLES = 8

# An evaluator may take many cheap steps at the same recursion depth
# (coefficient folds, tower iterations), so the depth cap alone cannot
# bound total work.  Each unit of max_depth buys this many work steps.
WORK_PER_DEPTH = 256


class EvalBudget(namedtuple("EvalBudget", "max_depth max_bits sup_samples")):
    """Caps for one evaluation.

    max_depth    recursion depth cap; also bounds total expansion work
                 at max_depth * WORK_PER_DEPTH steps
    max_bits     bit-length cap for any natural number produced,
                 including coefficients inside a normal form
    sup_samples  how far along a fundamental sequence a supremum is sampled

    A budget is the tuple of its caps: EvalBudget() == (256, 16384, 8).
    """

    __slots__ = ()

    def __new__(cls, max_depth: int = DEFAULT_MAX_DEPTH, max_bits: int = DEFAULT_MAX_BITS,
                sup_samples: int = DEFAULT_SUP_SAMPLES):
        self = tuple.__new__(cls, (max_depth, max_bits, sup_samples))
        for name, value in zip(self._fields, self):
            check_natural(value, name, 1)
        return self

    # _replace builds through _make; keep it behind the same checks.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def max_work(self) -> int:
        return self.max_depth * WORK_PER_DEPTH

    def check_bits(self, bits: int) -> None:
        """Refuse a natural that is `bits` wide when that exceeds max_bits."""
        if bits > self.max_bits:
            raise BudgetExceeded(f"a {bits}-bit natural exceeds the {self.max_bits}-bit cap")

    @classmethod
    def from_env(cls, **overrides) -> "EvalBudget":
        """Budget with defaults, the ENV_BITS variable, then explicit overrides.

        Used by the command line tool; library callers normally construct
        EvalBudget directly.
        """
        raw = os.environ.get(ENV_BITS)
        if raw is not None and overrides.get("max_bits") is None:
            try:
                overrides["max_bits"] = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_BITS} must be an integer, got {raw!r}")
        return cls(**{k: v for k, v in overrides.items() if v is not None})


# The budget of every evaluation that is given none.
DEFAULT_BUDGET = EvalBudget()


class Meter:
    """The context of one evaluation: its budget, work counter and memo.

    DEFAULT_BUDGET applies when none is given, and a fresh memo
    unless one is passed to share.  Evaluators run through run(), call
    step() for one or more units of work at one depth and check_size()
    on each value they produce.  sample_and_infer gives a refused
    sample's work back, and takes its sample points from points, the
    memo's point table when the memo is a synthesis.Memo and None when
    it is a plain dict.  Caps are copied from the budget once.
    """

    __slots__ = ("budget", "memo", "points", "work", "max_depth", "max_work", "max_bits")

    def __init__(self, budget: Optional[EvalBudget] = None, memo: Optional[dict] = None):
        self.budget = budget = budget or DEFAULT_BUDGET
        self.memo = {} if memo is None else memo
        self.points = getattr(memo, "points", None)
        self.work = 0
        self.max_depth, self.max_work, self.max_bits = (
            budget.max_depth, budget.max_work, budget.max_bits)

    def run(self, evaluate, n: int, *args):
        """Return evaluate(self, n, *args), the operation at level n."""
        try:
            return evaluate(self, n, *args)
        except RecursionError:
            # The caps normally fire first; this is the backstop for
            # budgets deeper than the interpreter stack.
            raise BudgetExceeded(f"recursion exceeded the interpreter stack at level {n}")

    def step(self, depth: int, steps: int = 1) -> None:
        """Take steps >= 1 units of work at one depth, then test both caps."""
        self.work += steps
        if depth > self.max_depth:
            raise BudgetExceeded(f"recursion deeper than {self.max_depth}")
        if self.work > self.max_work:
            raise BudgetExceeded(f"more than {self.max_work} evaluation steps")

    def check_size(self, value: Ordinal) -> None:
        if value._bits > self.max_bits:
            self.budget.check_bits(value._bits)

"""Definitional evaluator for ordinal arithmetic.

Evaluates addition, multiplication and exponentiation by the textbook
transfinite recursion instead of the closed forms in `arithmetic`:

  add:  x + 0 = x          x + (g+1) = (x + g) + 1     sup at limits
  mul:  x * 0 = 0          x * (g+1) = (x * g) + x     sup at limits
  pow:  x ^ 0 = 1          x ^ (g+1) = (x ^ g) * x     sup at limits

Suprema are taken by sampling along fundamental sequences (plus the
probes 0 and 1) and applying the inference rules from `lub`.  Each
level leans on the operation one rung below it in closed form (mul's
successor step adds, pow's multiplies); that layering keeps the closed
form under test out of its own successor steps.

The recursion unfolds literally down to `_UNFOLD_DEPTH` (2) nested
suprema and then grounds out in the closed form.  Full unfolding is not
an option: the value tree below an operand like w^(w*2) contains one
node per digit vector over its exponent positions, which is exponential
in the height of the operand, so no budget or memo makes it finish.  The
grounded form instead checks that the closed algorithms are a fixed
point of the defining recursion at every evaluated point.  Since the
recursion descends a well order, agreement of every one-step unfolding
on a downward-closed corpus is exactly the inductive step of a proof by
transfinite induction; a deeper unfolding would widen each step from one
layer to several.  The depth is at least 1: 0 would collapse the whole
evaluation into the very closed form being checked.

With a zero base this yields 0^0 = 1, 0^(g+1) = 0, and 0^lam = 1 at
every limit lam, because the sup of {1, 0, 0, ...} is 1.  The closed
form mirrors exactly that.

This module exists to check `arithmetic`, not to be fast: successor
chains are walked one step at a time and budgets cut runaway
recursions short.
"""

from __future__ import annotations

from typing import Optional

from .arithmetic import add, mul, pow_
from .budget import EvalBudget, Meter
from .errors import OrdinalDomainError
from .lub import sample_and_infer
from .ordinal import (
    ZERO,
    ONE,
    Ordinal,
    limit_and_finite_parts,
    successor,
)

_OPS = ("add", "mul", "pow")
_UNFOLD_DEPTH = 2


def reference_eval(
    op: str,
    x: Ordinal,
    y: Ordinal,
    budget: Optional[EvalBudget] = None,
) -> Ordinal:
    """Evaluate x <op> y by unfolding the defining recursion on y."""
    return _Ctx(op, x, budget or EvalBudget()).eval(y, 0)


class _Ctx(Meter):
    __slots__ = ("op", "x", "memo")

    def __init__(self, op: str, x: Ordinal, budget: EvalBudget):
        if op not in _OPS:
            raise OrdinalDomainError(f"unknown operation {op!r}, expected one of {_OPS}")
        super().__init__(budget)
        self.op = op
        self.x = x
        self.memo = {}

    def base(self) -> Ordinal:
        if self.op == "add":
            return self.x
        return ZERO if self.op == "mul" else ONE

    def combine(self, acc: Ordinal) -> Ordinal:
        # One successor step of the recursion.
        if self.op == "add":
            return successor(acc)
        if self.op == "mul":
            return add(acc, self.x)
        return mul(acc, self.x)

    def closed(self, y: Ordinal) -> Ordinal:
        if self.op == "add":
            return add(self.x, y)
        if self.op == "mul":
            return mul(self.x, y)
        return pow_(self.x, y, self.budget)

    def eval(self, y: Ordinal, depth: int) -> Ordinal:
        self.step(depth)
        hit = self.memo.get(y)
        if hit is not None:
            return hit
        if depth >= _UNFOLD_DEPTH:
            # Below the unfolding horizon: supply the value inductively.
            acc = self.closed(y)
            self.memo[y] = acc
            return acc
        lam, m = limit_and_finite_parts(y)
        if lam is ZERO:
            acc = self.base()
        else:
            acc = self.memo.get(lam)
            if acc is None:
                acc = sample_and_infer(lambda g: self.eval(g, depth + 1), lam, self)
                self.memo[lam] = acc
        for _ in range(m):
            self.step(depth)
            acc = self.combine(acc)
            self.check_size(acc)
        self.memo[y] = acc
        return acc


def reference_check(op: str, x: Ordinal, y: Ordinal, budget=None) -> bool:
    """True when the closed form and the recursion agree on (x, y)."""
    budget = budget or EvalBudget()
    return _Ctx(op, x, budget).closed(y) == reference_eval(op, x, y, budget)

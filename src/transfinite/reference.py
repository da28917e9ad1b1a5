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

# op -> (value at 0, successor step, closed form).  The lambdas look up add,
# mul, pow_ and successor when they run, so wrappers on this module see calls.
_OPS = {
    "add": (lambda x: x, lambda acc, x: successor(acc), lambda x, y, b: add(x, y)),
    "mul": (lambda x: ZERO, lambda acc, x: add(acc, x), lambda x, y, b: mul(x, y)),
    "pow": (lambda x: ONE, lambda acc, x: mul(acc, x), lambda x, y, b: pow_(x, y, b)),
}
_UNFOLD_DEPTH = 2


def _op(op: str, x: Ordinal, y: Ordinal):
    if op not in _OPS:
        raise OrdinalDomainError(f"unknown operation {op!r}, expected one of {tuple(_OPS)}")
    for operand in (x, y):
        if not isinstance(operand, Ordinal):
            raise OrdinalDomainError(f"expected an Ordinal, got {operand!r}")
    return _OPS[op]


def reference_eval(
    op: str,
    x: Ordinal,
    y: Ordinal,
    budget: Optional[EvalBudget] = None,
) -> Ordinal:
    """Evaluate x <op> y by unfolding the defining recursion on y."""
    base, combine, closed = _op(op, x, y)
    meter = Meter(budget)
    memo = meter.memo

    def unfold(y: Ordinal, depth: int) -> Ordinal:
        meter.step(depth)
        hit = memo.get(y)
        if hit is not None:
            return hit
        if depth >= _UNFOLD_DEPTH:
            # Below the unfolding horizon: supply the value inductively.
            acc = closed(x, y, meter.budget)
        else:
            lam, m = limit_and_finite_parts(y)
            if lam is ZERO:
                acc = base(x)
            else:
                acc = memo.get(lam)
                if acc is None:
                    acc = sample_and_infer(lambda g: unfold(g, depth + 1), lam, meter)
                    memo[lam] = acc
            for _ in range(m):
                meter.step(depth)
                acc = combine(acc, x)
                meter.check_size(acc)
        memo[y] = acc
        return acc

    try:
        return unfold(y, 0)
    finally:
        del unfold  # it refers to itself; free the memo now, not at the next gc


def reference_check(op: str, x: Ordinal, y: Ordinal, budget=None) -> bool:
    """True when the closed form and the recursion agree on (x, y)."""
    return _op(op, x, y)[2](x, y, budget) == reference_eval(op, x, y, budget)

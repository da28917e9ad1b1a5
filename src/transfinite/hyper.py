"""Hyperoperations on naturals.

Level 1 is addition, level 2 multiplication, and each level above applies
the level below b-fold:

    [a, b+1] at level n+1  =  [a, [a, b] at level n+1] at level n

with [a, 0] = 0 at level 2 and 1 at level 3 and above.  Level 3 is thus
iterated multiplication, level 4 iterated exponentiation, and so on.  The
leftward variant feeds the accumulator in from the left instead:

    [a, b+1] at level n+1  =  [[a, b] at level n+1, a] at level n

which still recovers multiplication and exponentiation but collapses at
level 4, because exponentiation has no left identity to restart from.

Evaluation is iterative with an explicit frame stack; recursion on values
would overflow any call stack.  Each frame iterates with cycle detection
(bases 0 and 1 loop through tiny value sets) and a bit-length cap, so
running off toward a genuinely huge tower fails fast with BudgetExceeded.
"""

from __future__ import annotations

from typing import Optional

from .budget import EvalBudget
from .errors import BudgetExceeded
from .ordinal import check_natural

Natural = int


def hyper(n: int, a: Natural, b: Natural, budget: Optional[EvalBudget] = None) -> Natural:
    """Level-n hyperoperation applied to (a, b), rightward scheme."""
    return _tower_eval(n, a, b, budget, leftward=False)


def left_hyper(n: int, a: Natural, b: Natural, budget: Optional[EvalBudget] = None) -> Natural:
    """Leftward variant: the accumulator becomes the left operand."""
    return _tower_eval(n, a, b, budget, leftward=True)


def right_identity(n: int) -> Natural:
    """The e with [a, e] = a at level n: 0 for addition, else 1."""
    check_natural(n, "operation index", 1)
    return 0 if n == 1 else 1


def no_left_identity_witness(e: Natural) -> Natural:
    """Some a <= 3 with e**a != a, witnessing that e is no left identity
    for exponentiation.  One exists for every e because no natural squares
    to 2, so the search below cannot fall through.
    """
    check_natural(e, "candidate identity")
    for a in (2, 3, 0, 1):
        if e**a != a:
            return a
    raise AssertionError("unreachable: e**2 = 2 has no natural solution")


class _Frame:
    __slots__ = ("level", "a", "count", "done", "acc", "seen", "trail")

    def __init__(self, level, a, count):
        self.level = level
        self.a = a
        self.count = count
        self.done = 0
        self.acc = 1
        self.seen = {1: 0}
        self.trail = [1]


def _tower_eval(n, a, b, budget, leftward):
    check_natural(n, "operation index", 1)
    budget = budget or EvalBudget()
    for x in (a, b):
        check_natural(x, "argument")
        budget.check_bits(x.bit_length())

    def flat(level, x, y):
        value = x + y if level == 1 else x * y
        budget.check_bits(value.bit_length())
        return value

    if n <= 2:
        return flat(n, a, b)

    memo = {}
    stack = [_Frame(n, a, b)]
    result = None
    while stack:
        if len(stack) > budget.max_depth:
            raise BudgetExceeded(f"level recursion deeper than {budget.max_depth}")
        frame = stack[-1]
        if result is not None:
            # A child frame finished one application for us.
            frame.acc = result
            result = None
            frame.done += 1
            _note(frame)
        if frame.done >= frame.count:
            memo[(frame.level, frame.a, frame.count)] = frame.acc
            result = frame.acc
            stack.pop()
            continue
        seen_at = frame.seen.get(frame.acc)
        if seen_at is not None and seen_at < frame.done:
            # The iteration entered a cycle; jump ahead modulo its period.
            period = frame.done - seen_at
            index = seen_at + (frame.count - seen_at) % period
            memo[(frame.level, frame.a, frame.count)] = frame.trail[index]
            result = frame.trail[index]
            stack.pop()
            continue
        # Rightward, [a, 1] = a holds at every level by induction: the one
        # application is [a, seed] a level down, and the seed is the right
        # identity there.  That lets a pending count of 1 on a fresh
        # accumulator skip the descent, so [a, 1] at an absurd level does
        # not build an absurd stack.  Leftward the application is
        # [seed, a], which is 1 from level 4 up, so no such shortcut.
        if not leftward and frame.count == 1 and frame.done == 0 and frame.level >= 2:
            frame.acc = frame.a
            frame.done = 1
            continue
        child_level = frame.level - 1
        # Rightward applies [a, acc]; leftward applies [acc, a], so the
        # accumulator becomes the child's own base operand.
        x, y = (frame.acc, frame.a) if leftward else (frame.a, frame.acc)
        if child_level <= 2:
            result = flat(child_level, x, y)
            continue
        cached = memo.get((child_level, x, y))
        if cached is not None:
            result = cached
            continue
        stack.append(_Frame(child_level, x, y))
    return result


def _note(frame):
    # No bits check: every accumulator was checked where it was made,
    # by flat() or as an earlier frame's accumulator or input.
    if frame.acc not in frame.seen:
        frame.seen[frame.acc] = frame.done
    frame.trail.append(frame.acc)

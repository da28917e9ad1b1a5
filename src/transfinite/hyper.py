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

Levels 1 and 2 are one native operation.  Level 3 is a^b in both
directions, folded by square-and-multiply (multiplication is
associative).  It never uses Python's power operator, so comparing the
two is a real check.  From level 4 up each level is one loop, and the
last of its b applications is a step down a level rather than a call,
so these chains stay flat however high they start:

    rightward [a, 1] = a                  at every level
    rightward [a, b] = [a, b mod 2]       one level down, for a <= 1: base 1
                                          is a fixed point, base 0 has period 2
    leftward  [a, b] = [1, a]             one level down, for b >= 1

The last holds because the leftward accumulator starts at 1 and
[1, x] = 1 from level 3 up.  Only chains that grow recurse, and the bit
cap ends those within a few levels.  Each level visited is one step on
the budget's Meter, the first at depth 1.
"""

from __future__ import annotations

from typing import Optional

from .budget import EvalBudget, Meter
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
    """An a with e^a != a, witnessing that e is no left identity for
    exponentiation.  a = 2 serves for every e: no natural squares to 2.
    """
    check_natural(e, "candidate identity")
    return 2


def _tower_eval(n, a, b, budget, leftward):
    check_natural(n, "operation index", 1)
    meter = Meter(budget)
    for x in (a, b):
        check_natural(x, "argument")
        meter.budget.check_bits(x.bit_length())
    if n <= 2:
        return _flat(meter.budget, n, a, b)
    return meter.run(_level, n, a, b, leftward, 1)


def _flat(budget, n, x, y):
    value = x + y if n == 1 else x * y
    budget.check_bits(value.bit_length())
    return value


def _level(meter, n, a, b, leftward, depth):
    """[a, b] at level n >= 3, the level visited at the given depth."""
    while True:
        meter.step(depth)
        if n == 3:
            return _power(meter.budget, a, b)
        if b == 0:
            return 1
        if leftward:
            n, a, b = n - 1, 1, a
        elif b == 1:
            return a
        elif a <= 1:
            n, b = n - 1, b % 2
        else:
            acc = a  # the first application, [a, 1] one level down
            for _ in range(b - 2):
                acc = _level(meter, n - 1, a, acc, False, depth + 1)
            n, b = n - 1, acc
        depth += 1


def _power(budget, a, b):
    """a^b by square-and-multiply, every product under the bit cap.  The
    base is squared only while exponent bits remain, so no intermediate
    exceeds the result and a refusal here means the result is too wide.
    """
    result = 1
    while b:
        if b & 1:
            result = _flat(budget, 2, result, a)
        b >>= 1
        if b:
            a = _flat(budget, 2, a, a)
    return result

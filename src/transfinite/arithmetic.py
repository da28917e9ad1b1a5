"""Closed-form ordinal addition, multiplication and exponentiation.

These work directly on Cantor normal forms and never unfold a transfinite
recursion; the definitional evaluator in `reference` exists as an
independent second route for exactly these operations.

Convention for a zero base: 0^0 = 1, 0^b = 0 for successor b, and
0^b = 1 for limit b.  The limit case follows from taking suprema of the
successor case values together with 0^0; it is deliberately kept that way
here and mirrored by the definitional evaluator.

Finite powers x^m of a base that is not additive principal, with m < 16,
are shared across `pow_` calls in a 16-entry LRU keyed by (x, m); larger
exponents are squared out afresh.  A cached power has at most 15 times the
terms of its base, and it keeps that base and itself alive until evicted.
The `max_bits` refusal runs before the lookup, so a hit changes no answer
or refusal.  The cache has no setting.
"""

from __future__ import annotations

import functools
from typing import Optional

from .budget import DEFAULT_BUDGET, EvalBudget
from .errors import BudgetExceeded
from .ordinal import (
    ZERO,
    ONE,
    Natural,
    Ordinal,
    _ord,
    from_natural,
    is_additive_principal,
    is_limit,
    limit_and_finite_parts,
    omega_power,
    order_key,
)


def add(x: Ordinal, y: Ordinal) -> Ordinal:
    """x + y.  The leading term of y absorbs every smaller term of x."""
    if y is ZERO:
        return x
    if x is ZERO:
        return y
    (d, c0), rest = y.terms[0], y.terms[1:]
    # Values are interned, and their order keys compare in C.
    for i, (e, c) in enumerate(x.terms):
        if e is d:
            return _ord(x.terms[:i] + ((d, c + c0),) + rest)
        if order_key(e) < order_key(d):
            return _ord(x.terms[:i] + y.terms)
    return _ord(x.terms + y.terms)


def mul(x: Ordinal, y: Ordinal) -> Ordinal:
    """x * y via left distribution over the normal form of y.

    For an infinite unit w^e of y the product collapses to w^(a1 + e)
    where a1 is the degree of x; the finite part of y multiplies the
    leading coefficient only, keeping the lower terms of x.
    """
    if x is ZERO or y is ZERO:
        return ZERO
    a1, c1 = x.terms[0]
    out = []
    for e, c in y.terms:
        if e is ZERO:
            out.append((a1, c1 * c))
            out.extend(x.terms[1:])
        else:
            out.append((add(a1, e), c))
    return _ord(out)


def pow_(x: Ordinal, y: Ordinal, budget: Optional[EvalBudget] = None) -> Ordinal:
    """x ** y in closed form.

    The budget caps the size of natural powers and of repeated squaring;
    without one DEFAULT_BUDGET applies.
    """
    budget = budget or DEFAULT_BUDGET
    if y is ZERO:
        return ONE
    if x is ZERO:
        if is_limit(y):
            return ONE
        return ZERO
    if x is ONE:
        return ONE
    lam, m = limit_and_finite_parts(y)
    if x.is_natural:
        n = x.natural_value()
        tail_nat = _nat_pow(n, m, budget)
        if lam is ZERO:
            return from_natural(tail_nat)
        # n^(w^e) = w^(w^e') with 1 + e' = e, so n^lam = w^delta below.
        delta = _ord(tuple((_strip_leading_one(e), c) for e, c in lam.terms))
        return _ord(((delta, tail_nat),))
    head = ONE if lam is ZERO else omega_power(mul(x.terms[0][0], lam))
    return mul(head, _pow_finite(x, m, budget))


def _strip_leading_one(e: Ordinal) -> Ordinal:
    # The unique e' with 1 + e' = e, for e >= 1.  Infinite e absorb the 1.
    if e.is_natural:
        return from_natural(e.natural_value() - 1)
    return e


def _nat_pow(n: Natural, m: Natural, budget: EvalBudget) -> Natural:
    # n**m has about m * bits(n) bits; refuse before materializing.
    if n > 1 and m * n.bit_length() > 2 * budget.max_bits:
        raise BudgetExceeded(f"{n}^{m} exceeds the bit budget")
    result = n**m
    budget.check_bits(result.bit_length())
    return result


def _pow_finite(x: Ordinal, m: Natural, budget: EvalBudget) -> Ordinal:
    """x ** m for natural m by repeated squaring (ordinal mul is associative)."""
    if m == 0:
        return ONE
    if is_additive_principal(x):
        # (w^a)^m = w^(a*m); a*m is ordinal mul with a natural on the right.
        return omega_power(mul(x.terms[0][0], from_natural(m)))
    if m > budget.max_bits:
        # A non-principal base yields on the order of m terms.
        raise BudgetExceeded(f"finite power {m} is too large to expand")
    if m < 16:
        return _small_power(x, m)
    return _square_and_multiply(x, m)


def _square_and_multiply(x: Ordinal, m: Natural) -> Ordinal:
    # x ** m for m >= 1.
    result = None
    base = x
    while True:
        if m & 1:
            result = base if result is None else mul(result, base)
        m >>= 1
        if not m:
            return result
        base = mul(base, base)


# The small-power cache of the module docstring: pow_(x, w*k + j) takes
# x^j for every k.
_small_power = functools.lru_cache(maxsize=16)(_square_and_multiply)

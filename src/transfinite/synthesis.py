"""Transfinite ladder of operations built over ordinal addition.

Level 1 is addition.  Above that, ``synth(n, alpha, beta)`` iterates the
level below: beta is decomposed into its additive units, each unit is
evaluated, and the results are folded right-to-left at level n - 1.
Suprema at additive-principal limits are found by sampling along the
fundamental sequence and inferring the least upper bound from growth
rules (see lub.py).

On naturals the ladder agrees with the rightward hyperoperations in
hyper.py; that equality is checked in the tests rather than assumed, so
nothing here may call into hyper.py or native ** / *.  The folds use
the closed forms of arithmetic.py, which the tests check separately
(see _combine_run).

``naive_ext`` is the contrast evaluator: the same integer recursion
lifted literally to ordinals, one successor step at a time.  It
collapses above omega (finite left operands are absorbed by infinite
accumulators), which is exactly what it exists to demonstrate.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .arithmetic import add, mul, pow_
from .budget import EvalBudget, Meter
from .errors import OrdinalDomainError
from .lub import sample_and_infer
from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    check_natural,
    from_natural,
    is_additive_principal,
    is_successor,
    limit_and_finite_parts,
    omega_power,
)

__all__ = [
    "synth",
    "naive_ext",
    "distributes",
    "DistributionCheck",
]


class Memo(dict):
    """A memo to share across synth calls made with one budget.

    Its items are the tables memo[n, alpha][beta], naive_ext's at level
    -n; _eval and _naive are their only writers.  points, not an item,
    maps each limit sampled to its sample points; the one-budget rule
    covers it too, so it is keyed by the limit alone.  A plain dict works
    as a memo, taking its points from lub's process-wide LRU; a Memo's
    points live and die with it.
    """

    __slots__ = ("points",)

    def __init__(self):
        self.points = {}


# op(*args) for _sup's chains and _combine_run's closed powers, kept across
# evaluations in a 256-entry LRU like lub._points.  Unmetered: callers charge
# the steps a hit skips, so a hit moves no answer, refusal or count.
@functools.lru_cache(maxsize=256)
def _shared(op, *args):
    return op(*args)


def _chain(n: int, head: Ordinal) -> dict:
    # {k: <H, ... <H, H>>} with k copies of H at level n - 1, filled in key
    # order by _sup; a write only ever sets an entry to its one value.
    return {1: head}


def synth(
    n: int,
    alpha: Ordinal,
    beta: Ordinal,
    budget: Optional[EvalBudget] = None,
    *,
    memo: Optional[dict] = None,
) -> Ordinal:
    """Level-n ladder operation applied to (alpha, beta).

    A caller may pass a shared ``memo`` dict to reuse sub-results across
    calls; only share one between calls made with the same budget.  It
    holds one table per (level, alpha): the value of synth(n, alpha,
    beta) is at memo[n, alpha][beta], as is each value the call evaluated
    on the way.  The samples w^g*k (k >= 2) of a supremum at levels 2
    and 3 are built along a chain instead, and the memo does not keep
    them.  A Memo also keeps the sample points of every limit its calls
    sample, so each limit's are built once per memo, not on every miss
    of lub's 256-entry LRU.
    """
    # One test on the common path; _check_args raises the error, if any.
    if not (type(n) is int and n > 0 and type(alpha) is Ordinal and type(beta) is Ordinal):
        _check_args(n, alpha, beta)
    return Meter(budget, memo).run(_eval, n, alpha, beta, 0)


def _eval(ctx: Meter, n: int, alpha: Ordinal, beta: Ordinal, depth: int) -> Ordinal:
    table = ctx.memo.get((n, alpha))
    if table is None:
        table = ctx.memo[n, alpha] = {}
    hit = table.get(beta)
    if hit is not None:
        return hit
    ctx.step(depth)
    if n == 1:
        result = add(alpha, beta)
    elif beta is ZERO:
        result = ZERO if n == 2 else ONE
    elif beta == ONE:
        result = alpha
    elif is_additive_principal(beta):
        # beta = w^e with e > 0: an additive-principal limit.
        result = _sup(ctx, n, alpha, beta, depth)
    else:
        result = _fold(ctx, n, alpha, beta, depth)
    ctx.check_size(result)
    table[beta] = result
    return result


def _sup(ctx: Meter, n: int, alpha: Ordinal, lam: Ordinal, depth: int) -> Ordinal:
    """Supremum at lam = w^e by sampling, each sample at depth + 1.

    At levels 2 and 3 with a successor exponent e = g + 1 the samples
    past the seeds are w^g*k, and sample k (k >= 2) is built from
    sample k - 1 as <H, sample k-1> at level n - 1, with
    H = synth(n, alpha, w^g): one add(H, prev) at level 2, one
    mul(H, prev) at level 3.  Addition and multiplication are
    associative, so the value is the one _fold gives.  The samples
    depend only on (n, H), so the chain is one table per (n, H) in
    _shared, fetched at sample w^g and extended from its last entry.

    The chain charges what the fold charges, in one Meter.step at the
    sample's own depth: one step for the sample plus the level-1 run's
    (k-1).bit_length() at level 2, one step for the sample plus one for
    the closed power at level 3.  The size check is _eval's too, so
    budgets refuse exactly the same samples.  A chained sample lives only
    in its chain, not in the memo, so re-sampling one on a shared memo,
    as a retry of a refused call does, is charged again.  The level-3
    fold's power refuses a non-principal H^(k-1) once k - 1 exceeds
    max_bits; past that point the sample takes the fold.

    k is the sample's position: sample_and_infer hands out 0, 1, then
    lam[k] = w^g*k for k = 0, 1, 2, ..., stopping at the first refusal, so
    sample w^g (k = 1) has fetched the chain before any k >= 2 reads it.
    Every sample reads the memo table first, since _eval may have stored
    it (a probe of w^g*k, say); only a miss is evaluated or chained.

    Level 5 and up need no chain: the fold combines through the memoized
    _eval, so only one evaluation per sample is new.  Level 4 combines
    through _combine_run's loop of closed powers, which _shared keeps, so
    sample k makes one power more than sample k - 1 (S(4, 2, w^2) makes 6
    pow_ calls at 8 samples and at 16); the tower cut or the bit cap ends
    such runs within a few samples.
    """
    depth += 1
    exp = lam.terms[0][0]
    if n > 3 or not is_successor(exp):
        return sample_and_infer(lambda gamma: _eval(ctx, n, alpha, gamma, depth), lam, ctx)
    table = ctx.memo[n, alpha]  # made by the _eval that called _sup
    op = add if n == 2 else mul
    k = -3  # the sample's position: 0 and 1 at -2 and -1, then lam[k]
    chain = None  # sample w^g*k at chain[k], set at sample w^g

    def eval_at(gamma: Ordinal) -> Ordinal:
        nonlocal k, chain
        k += 1
        value = table.get(gamma)
        if value is None:
            if k < 2 or (n == 3 and k - 1 > ctx.max_bits):
                value = _eval(ctx, n, alpha, gamma, depth)
            else:
                ctx.step(depth, 1 + (k - 1).bit_length() if n == 2 else 2)
                while len(chain) < k:
                    j = len(chain)
                    chain[j + 1] = op(chain[1], chain[j])
                value = chain[k]
                ctx.check_size(value)
        if k == 1:
            chain = _shared(_chain, n, value)
        return value

    return sample_and_infer(eval_at, lam, ctx)


def _fold(ctx: Meter, n: int, alpha: Ordinal, beta: Ordinal, depth: int) -> Ordinal:
    """Right-to-left fold of beta's additive units at level n - 1.

    With beta = u_1 + ... + u_k (units in CNF order) the value is

        <H_1, <H_2, ... <H_{k-1}, H_k> ... >>   at level n - 1,

    where H_i = synth(n, alpha, u_i).  With every u_i = 1 this unrolls
    to exactly the integer recursion for level n.
    """
    terms = beta.terms
    last_exp, last_count = terms[-1]
    value = _eval(ctx, n, alpha, omega_power(last_exp), depth + 1)
    head = value
    value = _combine_run(ctx, n - 1, head, last_count - 1, value, depth)
    for exp, count in reversed(terms[:-1]):
        head = _eval(ctx, n, alpha, omega_power(exp), depth + 1)
        value = _combine_run(ctx, n - 1, head, count, value, depth)
    return value


def _combine_run(
    ctx: Meter, m: int, head: Ordinal, count: int, value: Ordinal, depth: int
) -> Ordinal:
    """Apply value <- <head, value> at level m, count times.

    Fold levels 1, 2 and 3 are addition, multiplication and power, so
    the fold here uses the closed forms: head*count, head^count and one
    power per unit.  The tests check those forms apart from the ladder:
    mul(x, count) against count literal adds, and add, mul and pow_
    against the definitional evaluator in reference.py.  Without this
    the accumulators, which grow past any fixed normal form shape, would
    be re-decomposed and re-sampled at every step, and evaluation cost
    would explode with nesting depth instead of staying proportional to
    term count.  Level 4 and above stay literal: one recursive
    application per unit.  The closed powers come from _shared, with
    the budget, which decides pow_'s refusals, in its key.
    """
    if count == 0:
        return value
    if m == 1:
        # count copies of head, then value; addition is associative, so
        # the copies are the product head*count.  The run costs
        # count.bit_length() steps, what summing them by doubling takes.
        ctx.step(depth, count.bit_length())
        return add(mul(head, from_natural(count)), value)
    if m == 2:
        # count left-multiplications by head collapse to head^count; the
        # closed power keeps giant unit counts cheap and budget-checked.
        ctx.step(depth)
        return mul(_shared(pow_, head, from_natural(count), ctx.budget), value)
    if m == 3:
        # Iterated powers do not collapse further, but each application
        # is one closed power instead of a descent that re-samples the
        # accumulator's whole fundamental-sequence closure.
        for _ in range(count):
            ctx.step(depth)
            value = _shared(pow_, head, value, ctx.budget)
            ctx.check_size(value)
        return value
    for _ in range(count):
        value = _eval(ctx, m, head, value, depth + 1)
    return value


def naive_ext(
    n: int,
    alpha: Ordinal,
    beta: Ordinal,
    budget: Optional[EvalBudget] = None,
) -> Ordinal:
    """Literal transfinite lift of the integer recursion on beta.

    Base and successor steps as for integers, suprema at limits; no unit
    decomposition.  Beyond omega this collapses: for finite alpha >= 1
    every beta >= omega gives the same value as beta = omega, because
    the level-(n-1) successor steps cannot move an infinite accumulator.
    """
    _check_args(n, alpha, beta)
    return Meter(budget).run(_naive, n, alpha, beta, 0)


def _naive(ctx: Meter, n: int, alpha: Ordinal, beta: Ordinal, depth: int) -> Ordinal:
    table = ctx.memo.setdefault((-n, alpha), {})  # negated levels keep naive values apart
    hit = table.get(beta)
    if hit is not None:
        return hit
    ctx.step(depth)
    if n == 1:
        result = add(alpha, beta)
    else:
        lam, m = limit_and_finite_parts(beta)
        if lam is ZERO:
            value = ZERO if n == 2 else ONE
        else:
            value = sample_and_infer(
                lambda gamma: _naive(ctx, n, alpha, gamma, depth + 1), lam, ctx
            )
        if n == 2:
            # The m successor steps are each add(alpha, .); fold them at once.
            value = _combine_run(ctx, 1, alpha, m, value, depth)
        else:
            for _ in range(m):
                value = _naive(ctx, n - 1, alpha, value, depth + 1)
        result = value
    ctx.check_size(result)
    table[beta] = result
    return result


class DistributionCheck(NamedTuple):
    folded: Ordinal
    direct: Ordinal
    agrees: bool


def distributes(
    n: int,
    alpha: Ordinal,
    beta: Ordinal,
    budget: Optional[EvalBudget] = None,
) -> DistributionCheck:
    """Check the unit decomposition of beta against a direct evaluation.

    Splits beta into its additive units, evaluates each unit through the
    public entry point with a fresh context, folds those values at level
    n - 1 by _fold over a memo holding only them, and compares with
    synth(n, alpha, beta) computed separately.  beta must have at least
    two units for the fold to exist.
    """
    _check_args(n, alpha, beta)
    if n < 2:
        raise OrdinalDomainError("unit folds live at level n - 1; need n >= 2")
    total_units = sum(count for _, count in beta.terms)
    if total_units < 2:
        raise OrdinalDomainError(f"{beta} has fewer than two additive units")

    direct = synth(n, alpha, beta, budget)

    units = {}
    for exp, _ in reversed(beta.terms):
        unit = omega_power(exp)
        units[unit] = synth(n, alpha, unit, budget)
    folded = Meter(budget, {(n, alpha): units}).run(_fold, n, alpha, beta, 0)
    return DistributionCheck(folded, direct, folded == direct)


def _check_args(n, alpha, beta):
    check_natural(n, "operation index", 1)
    for operand in (alpha, beta):
        if not isinstance(operand, Ordinal):
            raise OrdinalDomainError(f"expected an Ordinal, got {operand!r}")

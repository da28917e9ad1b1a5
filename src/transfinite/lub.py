"""Least-upper-bound inference from finite sample runs.

A supremum over a limit is approximated by evaluating finitely many points
along the limit's fundamental sequence (plus the seed points 0 and 1) and
then recognizing the growth shape of the resulting value sequence.  Five
rules are tried in a fixed order:

  CONSTANT_TAIL      three identical trailing values; the sup is that value
                     joined with the maximum of the earlier samples
  TOWER_GROWTH       the last three heights strictly increase; the value
                     escapes every w-tower, i.e. is not below epsilon_0
  PREFIX_PEEL        the increasing tail shares a literal CNF term prefix;
                     peel it and infer the remainder sequence
  EXPONENT_GROWTH    leading exponents strictly increase; the sup is
                     w ** (inferred lub of those exponents)
  COEFFICIENT_GROWTH fixed leading exponent w^e with strictly increasing
                     leading coefficients; the sup is w^(e+1)

TOWER_GROWTH reads only the whole run and raises NotRepresentable.
PREFIX_PEEL and EXPONENT_GROWTH recurse.  The rule search returns
(value, rule) or None.  On a strictly increasing run at most one of the
last three rules applies, so a rule whose sub-inference gives None gives
None for that run; only classify_lub raises NoPatternError, with the
samples.

classify_lub finds the increasing tail and the maximum by the samples'
order keys (see ordinal), so those comparisons stay in C.  The rule search
reads term tuples, not Ordinals: a peeled remainder is a slice, and
interned exponents and leading terms are told apart by identity, so it
makes no order comparison of values; only the answer is built.
sample_and_infer's in-flight tower check reads the heights of the last
four samples as each arrives.
Sample points come from _points, a 256-entry LRU shared across
evaluations; it holds each interned limit it keys on, so no key goes
stale.  A caller may pass the points themselves, a tuple, in place of
the limit; the LRU does not see them.  synthesis._sup's chained route
does, handing the positions of the samples it reads from a chain in
place of those points, so they are never built.

The rule search on a strictly increasing run, _infer_increasing, is a
second 256-entry LRU with no setting, keyed by the run as a tuple of term
tuples: classify_lub looks up its increasing tail, PREFIX_PEEL its peeled
remainders and EXPONENT_GROWTH its exponent run.  It reads nothing else,
and values are interned, so an answer depends on its key alone.  It is
unmetered, like the rest of classify_lub, and moves no answer, rule or
refusal; a cached None still makes classify_lub raise with the current
call's samples.  It keeps alive the exponents inside its keys and the
values of its answers until they fall out or cache_clear() runs.

The inferred value is exact whenever the sampled function is weakly
increasing and the sample points are cofinal in the limit, which holds for
the operations in this package on every argument the growth rules accept.
"""

from __future__ import annotations

import enum
import functools
from operator import attrgetter, is_not, lt
from typing import Callable, Optional, Sequence, Tuple, Union

from .arithmetic import add
from .budget import Meter
from .errors import BudgetExceeded, NoPatternError, NotRepresentable
from .ordinal import (
    ZERO, ONE, Ordinal, _ord, cnf_height, fundamental_prefix, omega_power, order_key,
    successor,
)

_TERMS = attrgetter("terms")


class LubInference(enum.Enum):
    CONSTANT_TAIL = "constant-tail"
    PREFIX_PEEL = "prefix-peel"
    EXPONENT_GROWTH = "exponent-growth"
    COEFFICIENT_GROWTH = "coefficient-growth"
    TOWER_GROWTH = "tower-growth"


def infer_lub(samples: Sequence[Ordinal]) -> Ordinal:
    return classify_lub(samples)[0]


def classify_lub(samples: Sequence[Ordinal]) -> Tuple[Ordinal, LubInference]:
    """Infer the least upper bound of a sample run and name the rule used."""
    samples = list(samples)
    if len(samples) < 3:
        raise NoPatternError(f"need at least 3 samples, got {len(samples)}", samples)

    if samples[-1] is samples[-2] is samples[-3]:
        return max(samples, key=order_key), LubInference.CONSTANT_TAIL

    # TOWER_GROWTH.  Height grows weakly with value (see ordinal), so
    # climbing heights are climbing values, and no window of the tail
    # reads a value from them: a shared prefix or a fixed leading exponent
    # means equal heights, and the exponents climb too.  With a == 0 the
    # tail's leading zero is dropped, and two values are too few for a
    # trend ([0, 1, w] has no pattern).
    a, b, c = cnf_height(samples[-3]), cnf_height(samples[-2]), cnf_height(samples[-1])
    if 0 < a < b < c:
        raise NotRepresentable(
            "samples climb a w-tower; the supremum is not below epsilon_0", samples
        )

    # Everything else needs a strictly increasing tail to read a trend from.
    keys = list(map(order_key, samples))
    i = len(keys) - 1
    while i > 0 and keys[i - 1] < keys[i]:
        i -= 1
    found = _infer_increasing(tuple(map(_TERMS, samples[i:])))
    if found is None:
        raise NoPatternError("samples match no growth rule", samples)
    value, rule = found
    # sup(all) = max(sup(tail), the samples before the tail).
    return max([value, *samples[:i]], key=order_key), rule


@functools.lru_cache(maxsize=256)
def _infer_increasing(run: Tuple[tuple, ...]) -> Optional[Tuple[Ordinal, LubInference]]:
    """Infer the lub of a strictly increasing run, retrying on suffixes.

    A run whose early entries come from seed stages can hide the trend
    (e.g. [w, w*2, w*2+1, w*2+2, ...] has no shared literal prefix, yet
    its tail peels to w*2 + k).  Dropping leading entries is sound: the
    run is strictly increasing, so any trailing window's lub dominates
    everything dropped.  A leading zero is dropped first, and at least
    three entries must remain.  None when no window fits a rule.
    """
    if not run[0]:
        run = run[1:]
    for start in range(len(run) - 2):
        found = _lub_of_increasing(run[start:])
        if found is not None:
            return found
    return None


def _lub_of_increasing(run: Tuple[tuple, ...]) -> Optional[Tuple[Ordinal, LubInference]]:
    # run: >= 3 strictly increasing nonzero term tuples.  At most one rule
    # applies: a shared prefix fixes every leading exponent and
    # coefficient, and strictly increasing exponents are not a fixed one.

    # PREFIX_PEEL.  The shared prefix must be literal (exponent and
    # coefficient alike); remainders are again strictly increasing.
    prefix = _common_term_prefix(run)
    if prefix:
        n = len(prefix)
        sub = _infer_increasing(tuple([t[n:] for t in run]))
        return None if sub is None else (add(_ord(prefix), sub[0]), LubInference.PREFIX_PEEL)

    # Leading exponents never fall along an increasing run, and values are
    # interned, so neighbours that are distinct objects strictly increase,
    # and the first and last exponents are one object exactly when all are.

    # EXPONENT_GROWTH.
    exps = [t[0][0] for t in run]
    if all(map(is_not, exps, exps[1:])):
        sub = _infer_increasing(tuple([e.terms for e in exps]))
        return None if sub is None else (omega_power(sub[0]), LubInference.EXPONENT_GROWTH)

    # COEFFICIENT_GROWTH.
    if exps[0] is exps[-1]:
        coeffs = [t[0][1] for t in run]
        if all(map(lt, coeffs, coeffs[1:])):
            return omega_power(successor(exps[0])), LubInference.COEFFICIENT_GROWTH

    return None


def _common_term_prefix(run: Tuple[tuple, ...]) -> tuple:
    # run is strictly increasing (_lub_of_increasing is the one caller), and
    # the values that begin with a given term prefix form an interval of the
    # order, so the first and last samples agree exactly where all do.  A
    # prefix of all of run[0] leaves it 0, which _infer_increasing drops.
    first, last = run[0], run[-1]
    for n, (a, b) in enumerate(zip(first, last)):
        if a != b:
            return first[:n]
    return first


# 0, 1, lam[0], ..., lam[n-1].  256 limits get 92% of 1024's hits on a
# 1000-pair reference check, at 2.7 MiB (12%) less peak RSS.
@functools.lru_cache(maxsize=256)
def _points(lam: Ordinal, n: int) -> Tuple[Ordinal, ...]:
    return (ZERO, ONE, *fundamental_prefix(lam, n))


def sample_and_infer(
    eval_at: Callable[[Ordinal], Ordinal],
    lam: Union[Ordinal, tuple],
    meter: Meter,
) -> Ordinal:
    """Supremum of eval_at over all points below the limit lam.

    Samples eval_at(0), eval_at(1), then eval_at(lam[k]) for
    k < meter.budget.sup_samples, with eval_at counting its work on
    meter.  The points come unmetered from _points, a 256-entry LRU
    shared across evaluations.  lam may instead be the tuple of what to
    hand eval_at, in order, taken as it is: synthesis._sup's chained
    route passes the seeds 0, 1, lam[0] and lam[1], then positions that
    its eval_at reads in place of points.
    Once the two seed probes have at least four fundamental-sequence
    values behind them, a check runs after each new sample that only
    acts when it proves the sup escapes epsilon_0, cutting off ever
    larger towers early.  Checking
    sooner would mistake a benign height climb for a tower: the probes 0
    and 1 sit far below any infinite sample, and the first
    fundamental-sequence values of a nested limit climb once or twice
    before their height flattens.  A genuine tower keeps climbing, so
    waiting costs one sample.  Successful value inferences always use the
    full run.

    NotRepresentable from a sample itself, or from the in-flight check,
    is final: the sampled function is weakly increasing here, so any
    sample at or above epsilon_0 pins the supremum there too.  A sample
    that exceeds the budget cuts the run and gives its work back, so the
    rest of the evaluation has room to finish; completed samples keep
    theirs and stay memoized.  A cut run of at least 3 samples is still
    inferred from, since further samples only refine a visible trend; if
    it gives no value, the refusal that cut it is the answer, as its few
    samples may show only the early height climb or no trend yet.  A cut
    run is settled inside the handler that caught the refusal, so no
    frame keeps the refusal, whose traceback holds eval_at and its memo.
    """
    points = lam if type(lam) is tuple else _points(lam, meter.budget.sup_samples)
    samples = []
    for g in points:
        work = meter.work
        try:
            x = eval_at(g)
        except BudgetExceeded as cut:
            meter.work = work
            if len(samples) < 3:
                raise
            try:
                return infer_lub(samples)
            except (NotRepresentable, NoPatternError):
                raise cut from None
        samples.append(x)
        if len(samples) >= 6 and (samples[-4]._key[0] < samples[-3]._key[0]
                                  < samples[-2]._key[0] < x._key[0]):
            classify_lub(samples)  # its tower test fires: raises NotRepresentable
    try:
        return infer_lub(samples)
    except NoPatternError as err:
        rendered = ", ".join(str(s) for s in samples)
        raise BudgetExceeded(
            f"no growth rule matched after {len(samples)} samples: [{rendered}]",
            samples,
        ) from err

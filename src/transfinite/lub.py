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

The inferred value is exact whenever the sampled function is weakly
increasing and the sample points are cofinal in the limit, which holds for
the operations in this package on every argument the growth rules accept.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

from .arithmetic import add
from .budget import Meter
from .errors import BudgetExceeded, NoPatternError, NotRepresentable
from .ordinal import (
    ZERO,
    ONE,
    Ordinal,
    _ord,
    cnf_height,
    fundamental_prefix,
    omega_power,
    successor,
)


class LubInference(enum.Enum):
    CONSTANT_TAIL = "constant-tail"
    PREFIX_PEEL = "prefix-peel"
    EXPONENT_GROWTH = "exponent-growth"
    COEFFICIENT_GROWTH = "coefficient-growth"
    TOWER_GROWTH = "tower-growth"


def infer_lub(samples: Sequence[Ordinal]) -> Ordinal:
    value, _ = classify_lub(samples)
    return value


def classify_lub(samples: Sequence[Ordinal]) -> Tuple[Ordinal, LubInference]:
    """Infer the least upper bound of a sample run and name the rule used."""
    samples = list(samples)
    if len(samples) < 3:
        raise NoPatternError(f"need at least 3 samples, got {len(samples)}", samples)

    if samples[-1] == samples[-2] == samples[-3]:
        return max(samples), LubInference.CONSTANT_TAIL

    # TOWER_GROWTH.  By induction on the leading exponent, a <= b implies
    # cnf_height(a) <= cnf_height(b), so climbing heights are climbing
    # values, and no window of the tail reads a value from them: a shared
    # prefix or a fixed leading exponent means equal heights, and the
    # exponents climb too.  With a == 0 the tail's leading zero is dropped,
    # and two values are too few for a trend ([0, 1, w] has no pattern).
    a, b, c = cnf_height(samples[-3]), cnf_height(samples[-2]), cnf_height(samples[-1])
    if 0 < a < b < c:
        raise NotRepresentable(
            "samples climb a w-tower; the supremum is not below epsilon_0", samples
        )

    # Everything else needs a strictly increasing tail to read a trend from.
    run = _increasing_tail(samples)
    found = _infer_increasing(run)
    if found is None:
        raise NoPatternError("samples match no growth rule", samples)
    value, rule = found
    # sup(all) = max(sup(tail), the samples before the tail).
    return max([value, *samples[: len(samples) - len(run)]]), rule


def _tower_preview(samples: List[Ordinal]) -> bool:
    """Cheap filter for the in-flight tower check.

    A run heading straight for epsilon_0 keeps climbing in height with
    every sample.  Only that sustained shape justifies a mid-run
    classification; anything else waits for the final inference over the
    full run, which stays authoritative.  Four climbing heights make
    classify_lub's tower test fire, so the classification always raises.
    """
    a, b, c, d = map(cnf_height, samples[-4:])
    return a < b < c < d


def _increasing_tail(samples: List[Ordinal]) -> List[Ordinal]:
    i = len(samples) - 1
    while i > 0 and samples[i - 1] < samples[i]:
        i -= 1
    return samples[i:]


def _infer_increasing(run: List[Ordinal]) -> Optional[Tuple[Ordinal, LubInference]]:
    """Infer the lub of a strictly increasing run, retrying on suffixes.

    A run whose early entries come from seed stages can hide the trend
    (e.g. [w, w*2, w*2+1, w*2+2, ...] has no shared literal prefix, yet
    its tail peels to w*2 + k).  Dropping leading entries is sound: the
    run is strictly increasing, so any trailing window's lub dominates
    everything dropped.  A leading zero is dropped first, and at least
    three entries must remain.  None when no window fits a rule.
    """
    if run[0] is ZERO:
        run = run[1:]
    for start in range(len(run) - 2):
        found = _lub_of_increasing(run[start:])
        if found is not None:
            return found
    return None


def _lub_of_increasing(run: List[Ordinal]) -> Optional[Tuple[Ordinal, LubInference]]:
    # run: >= 3 strictly increasing nonzero ordinals.  At most one rule
    # applies: a shared prefix fixes every leading exponent and
    # coefficient, and strictly increasing exponents are not a fixed one.

    # PREFIX_PEEL.  The shared prefix must be literal (exponent and
    # coefficient alike); remainders are again strictly increasing.
    prefix = _common_term_prefix(run)
    if prefix:
        sub = _infer_increasing([_ord(s.terms[len(prefix):]) for s in run])
        return None if sub is None else (add(_ord(prefix), sub[0]), LubInference.PREFIX_PEEL)

    # EXPONENT_GROWTH.
    exps = [s.terms[0][0] for s in run]
    if all(a < b for a, b in zip(exps, exps[1:])):
        sub = _infer_increasing(exps)
        return None if sub is None else (omega_power(sub[0]), LubInference.EXPONENT_GROWTH)

    # COEFFICIENT_GROWTH.
    first_exp = run[0].terms[0][0]
    if all(s.terms[0][0] == first_exp for s in run):
        coeffs = [s.terms[0][1] for s in run]
        if all(a < b for a, b in zip(coeffs, coeffs[1:])):
            return omega_power(successor(first_exp)), LubInference.COEFFICIENT_GROWTH

    return None


def _common_term_prefix(run: List[Ordinal]):
    # run is strictly increasing (_lub_of_increasing is the one caller), and
    # the values that begin with a given term prefix form an interval of the
    # order, so the first and last samples agree exactly where all do.  A
    # prefix of all of run[0] leaves it 0, which _infer_increasing drops.
    first, last = run[0].terms, run[-1].terms
    for n, (a, b) in enumerate(zip(first, last)):
        if a != b:
            return first[:n]
    return first


def sample_and_infer(
    eval_at: Callable[[Ordinal], Ordinal],
    lam: Ordinal,
    meter: Meter,
) -> Ordinal:
    """Supremum of eval_at over all points below the limit lam.

    Samples eval_at(0), eval_at(1), then eval_at(lam[k]) for
    k < meter.budget.sup_samples, with eval_at counting its work on
    meter.  Once the two seed probes have at least four
    fundamental-sequence values behind them, a check runs after each new
    sample that only acts when it proves the sup escapes epsilon_0,
    cutting off ever larger towers early.  Checking sooner would mistake
    a benign height climb for a tower: the probes 0 and 1 sit far below
    any infinite sample, and the first fundamental-sequence values of a
    nested limit climb once or twice before their height flattens.  A
    genuine tower keeps climbing, so waiting costs one sample.
    Successful value inferences always use the full run.

    NotRepresentable from a sample itself, or from the in-flight check,
    is final: the sampled function is weakly increasing here, so any
    sample at or above epsilon_0 pins the supremum there too.  A sample
    that exceeds the budget cuts the run and gives its work back, so the
    rest of the evaluation has room to finish; completed samples keep
    theirs and stay memoized.  A cut run of at least 3 samples is still
    inferred from, since further samples only refine a visible trend; if
    it gives no value, the refusal that cut it is the answer, as its few
    samples may show only the early height climb or no trend yet.
    """
    gammas = [ZERO, ONE] + fundamental_prefix(lam, meter.budget.sup_samples)
    samples: List[Ordinal] = []
    cut = None
    for g in gammas:
        work = meter.work
        try:
            samples.append(eval_at(g))
        except BudgetExceeded as err:
            meter.work = work
            if len(samples) < 3:
                raise
            cut = err
            break
        if len(samples) >= 6 and _tower_preview(samples):
            classify_lub(samples)  # raises NotRepresentable
    try:
        return infer_lub(samples)
    except NotRepresentable:
        if cut is None:
            raise
    except NoPatternError as err:
        if cut is None:
            rendered = ", ".join(str(s) for s in samples)
            raise BudgetExceeded(
                f"no growth rule matched after {len(samples)} samples: [{rendered}]",
                samples,
            ) from err
    raise cut

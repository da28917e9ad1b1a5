"""Closure explorer: which ordinals have initial segments closed under a ladder level.

An ordinal delta is "main" for level i when synth(i, alpha, beta) < delta
for every alpha, beta < delta.  That is undecidable by sampling alone, so
verdicts are asymmetric: a refutation carries a concrete witness pair and
is re-checkable, while a confirmation only says "main on this sample" --
no pair drawn from a fixed, deterministic candidate lattice escaped.

Each candidate is settled by a monotone search.  The ladder grows weakly
in both arguments, so the least escaping pair in (alpha, beta) order --
the first pair a scan of every alpha, then every beta, would return --
is found by bisecting alpha at the largest beta below delta, then beta
at that alpha (beta is scanned when alpha <= 1, where the ladder is not
monotone in beta).  A candidate whose search meets a refusal of the
budget is settled again from the start by that scan, which skips the
refused pairs; a verdict's pairs_skipped counts the refusals of the
route that decided it, so it is 0 whenever the search decides.

The reports pair the confirmed infinite mains, in order, against the
ladder values synth(i+1, w, w^rank), rank = 0, 1, 2, ...  Ranks are
0-indexed: rank 0 pairs with the smallest infinite main.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .budget import EvalBudget
from .errors import BudgetExceeded, NotRepresentable, OrdinalDomainError
from .ordinal import OMEGA, ONE, ZERO, Ordinal, check_natural, from_natural, omega_power
from .synthesis import Memo, synth

__all__ = [
    "candidate_lattice",
    "is_main_number",
    "enumerate_main_numbers",
    "MainVerdict",
    "Refutation",
    "ConjectureRow",
    "MainNumberReport",
    "DEFAULT_LATTICE_SPEC",
]

DEFAULT_LATTICE_SPEC = (3, 5, 1)

# Hard ceiling on lattice size; generous specs explode combinatorially.
LATTICE_CAP = 200_000


def candidate_lattice(
    depth: int = 3,
    coeff: int = 5,
    terms: int = 1,
    bound: Optional[Ordinal] = None,
) -> List[Ordinal]:
    """All CNF ordinals within the given structural caps, sorted ascending.

    depth caps the nesting height, coeff the value of any coefficient,
    terms the number of compressed terms at each level.  The same caps
    apply inside exponents.  Zero is always included.  With bound given,
    only ordinals <= bound are returned (the caps still shape what is
    generated, so a loose bound does not widen the lattice).

    The sorted lattice of the most recent spec is kept for the process,
    and each call returns a fresh list.  The heaviest spec under the cap,
    (2, 7, 4), has 188,707 entries, takes about 2 s to build and keeps
    about 105 MiB of RSS while it is held.
    """
    for name, v in (("depth", depth), ("coeff", coeff), ("terms", terms)):
        check_natural(v, f"lattice {name}", 1)
    lattice = _lattice(depth, coeff, terms, LATTICE_CAP)
    return list(lattice if bound is None else lattice[: bisect_right(lattice, bound)])


@lru_cache(maxsize=1)
def _lattice(depth: int, coeff: int, terms: int, cap: int) -> Tuple[Ordinal, ...]:
    pool = [ZERO]
    for _ in range(depth):
        # Each (combo, coeffs) below is a distinct normal form, and every
        # nonzero member of pool is one of them (by induction over depth:
        # pool only grows), so the grown pool holds exactly 1 + fresh.
        fresh = sum(math.comb(len(pool), r) * coeff**r for r in range(1, terms + 1))
        if 1 + fresh > cap:
            raise BudgetExceeded(f"candidate lattice exceeds {cap} entries")
        # exponents are sorted descending, so each combo already is;
        # tuple order on terms is the value order
        exponents = sorted(pool, key=attrgetter("terms"), reverse=True)
        pool = [ZERO] + [
            Ordinal(tuple(zip(combo, coeffs)))
            for r in range(1, terms + 1)
            for combo in itertools.combinations(exponents, r)
            for coeffs in itertools.product(range(1, coeff + 1), repeat=r)
        ]
    return tuple(sorted(pool, key=attrgetter("terms")))


class MainVerdict(NamedTuple):
    candidate: Ordinal
    main: bool                              # True = main-on-sample only
    witness: Optional[Tuple[Ordinal, Ordinal]]
    value: Optional[Ordinal]                # None with a witness: >= epsilon_0
    pairs_skipped: int                      # pairs the budget refused to settle


class Refutation(NamedTuple):
    candidate: Ordinal
    alpha: Ordinal
    beta: Ordinal
    value: Optional[Ordinal]


class ConjectureRow(NamedTuple):
    rank: int
    expected_text: str
    observed: Optional[Ordinal]
    match: Optional[bool]


def is_main_number(
    i: int,
    delta: Ordinal,
    lattice_spec: Tuple[int, int, int] = DEFAULT_LATTICE_SPEC,
    budget: Optional[EvalBudget] = None,
) -> MainVerdict:
    """Closure test for a single candidate against the candidate lattice."""
    check_natural(i, "operation index", 1)
    if not isinstance(delta, Ordinal) or delta.is_zero:
        raise OrdinalDomainError(f"candidate must be an Ordinal > 0, got {delta!r}")
    depth, coeff, terms = lattice_spec
    entries = candidate_lattice(depth, coeff, terms)
    return _classify(i, delta, entries, budget, {})


def _classify(
    i: int,
    delta: Ordinal,
    entries: Sequence[Ordinal],
    budget: Optional[EvalBudget],
    memo: Memo,
) -> MainVerdict:
    below = entries[: bisect_left(entries, delta)]
    try:
        return _search(i, delta, below, budget, memo)
    except BudgetExceeded:
        return _scan(i, delta, below, budget, memo)


def _escape(
    i: int, delta: Ordinal, alpha: Ordinal, beta: Ordinal,
    budget: Optional[EvalBudget], memo: Memo,
) -> Tuple[bool, Optional[Ordinal]]:
    """Whether the pair (alpha, beta) escapes delta, and its value.

    A pair escapes when its value is >= delta or not representable; a
    value that is not representable is None, and certainly >= epsilon_0
    > delta.  A refusal of the budget propagates.
    """
    try:
        value = synth(i, alpha, beta, budget, memo=memo)
    except NotRepresentable:
        return True, None
    return value >= delta, value


def _search(
    i: int,
    delta: Ordinal,
    below: Sequence[Ordinal],
    budget: Optional[EvalBudget],
    memo: Memo,
) -> MainVerdict:
    """The least escaping pair in (alpha, beta) order, found by bisection.

    The ladder grows weakly in both arguments, so escaping at beta_max is
    monotone in alpha, and at alpha >= 2 escaping is monotone in beta.
    For alpha <= 1 beta is scanned: 0^beta is not monotone at level 3
    and S(n, 0, beta) alternates from level 4.  A refusal propagates.
    """
    values = {}

    def escapes(alpha: Ordinal, beta: Ordinal) -> bool:
        escaped, values[alpha, beta] = _escape(i, delta, alpha, beta, budget, memo)
        return escaped

    # bisect_left over the keys False... True finds the first escape.
    a = bisect_left(below, True, key=lambda x: escapes(x, below[-1]))
    if a == len(below):
        return MainVerdict(delta, True, None, None, 0)
    alpha = below[a]
    if alpha > ONE:
        # (alpha, beta_max) escapes, so the search stops below it.
        b = bisect_left(below, True, hi=len(below) - 1, key=lambda y: escapes(alpha, y))
    else:
        b = next(k for k, y in enumerate(below) if escapes(alpha, y))
    beta = below[b]
    return MainVerdict(delta, False, (alpha, beta), values[alpha, beta], 0)


def _scan(
    i: int,
    delta: Ordinal,
    below: Sequence[Ordinal],
    budget: Optional[EvalBudget],
    memo: Memo,
) -> MainVerdict:
    """Every alpha in order, then beta in order; refusals are counted."""
    skipped = 0
    for alpha in below:
        # Probe at the largest beta first and scan beta only if that
        # escapes.  Values grow weakly in beta for alpha >= 2, and for
        # alpha <= 1 at levels 1 and 2.  For alpha <= 1 from level 3 on
        # every value is <= 1, which reaches delta only at delta = 1,
        # where 0 is the only beta.
        try:
            if not _escape(i, delta, alpha, below[-1], budget, memo)[0]:
                continue
        except BudgetExceeded:
            skipped += 1  # probe unsettled: fall back to the full scan
        for beta in below:
            try:
                escaped, value = _escape(i, delta, alpha, beta, budget, memo)
            except BudgetExceeded:
                skipped += 1
                continue
            if escaped:
                return MainVerdict(delta, False, (alpha, beta), value, skipped)
    return MainVerdict(delta, True, None, None, skipped)


class MainNumberReport(NamedTuple):
    op_index: int
    bound: Ordinal
    lattice_spec: Tuple[int, int, int]
    budget: EvalBudget
    candidates_scanned: int
    confirmed: Tuple[Ordinal, ...]
    confirmed_infinite: Tuple[Ordinal, ...]
    refuted: Tuple[Refutation, ...]
    conjectured_match: Tuple[ConjectureRow, ...]
    all_match: bool
    pairs_skipped: int

    def json_dict(self) -> dict:
        """Plain-data rendering with a fixed key order, fit for json.dumps."""
        return {
            "op_index": self.op_index,
            "bound": str(self.bound),
            "lattice_spec": {
                "depth": self.lattice_spec[0],
                "coeff": self.lattice_spec[1],
                "terms": self.lattice_spec[2],
            },
            "budget": {
                "max_depth": self.budget.max_depth,
                "max_bits": self.budget.max_bits,
                "sup_samples": self.budget.sup_samples,
            },
            "candidates_scanned": self.candidates_scanned,
            "confirmed": [str(x) for x in self.confirmed],
            "confirmed_infinite": [str(x) for x in self.confirmed_infinite],
            "refuted": [
                {
                    "candidate": str(r.candidate),
                    "witness": [str(r.alpha), str(r.beta)],
                    "value": "NotRepresentable" if r.value is None else str(r.value),
                }
                for r in self.refuted
            ],
            "conjectured_match": [
                {
                    "rank": row.rank,
                    "expected": row.expected_text,
                    "observed": None if row.observed is None else str(row.observed),
                    "match": row.match,
                }
                for row in self.conjectured_match
            ],
            "all_match": self.all_match,
            "pairs_skipped": self.pairs_skipped,
            "note": (
                "confirmed entries are main-on-sample relative to the lattice; "
                "refutations carry re-checkable witnesses"
            ),
        }


def enumerate_main_numbers(
    i: int,
    bound: Ordinal,
    lattice_spec: Tuple[int, int, int] = DEFAULT_LATTICE_SPEC,
    budget: Optional[EvalBudget] = None,
) -> MainNumberReport:
    """Scan lattice candidates <= bound and build the closure report.

    Confirmed infinite mains are ranked in ascending order and compared
    with synth(i+1, w, w^rank); one extra row past the last confirmed
    rank shows the next expected value.
    """
    check_natural(i, "operation index", 1)
    if not isinstance(bound, Ordinal) or bound.is_zero:
        raise OrdinalDomainError(f"bound must be an Ordinal > 0, got {bound!r}")
    budget = budget or EvalBudget()
    depth, coeff, terms = lattice_spec
    entries = candidate_lattice(depth, coeff, terms, bound=bound)
    candidates = [x for x in entries if not x.is_zero]

    memo: Memo = {}
    confirmed: List[Ordinal] = []
    refuted: List[Refutation] = []
    skipped = 0
    for delta in candidates:
        verdict = _classify(i, delta, entries, budget, memo)
        skipped += verdict.pairs_skipped
        if verdict.main:
            confirmed.append(delta)
        else:
            alpha, beta = verdict.witness
            refuted.append(Refutation(delta, alpha, beta, verdict.value))

    confirmed_infinite = [x for x in confirmed if not x.is_natural]
    rows: List[ConjectureRow] = []
    all_match = True
    for rank in range(len(confirmed_infinite) + 1):
        try:
            expected = synth(i + 1, OMEGA, omega_power(from_natural(rank)), budget, memo=memo)
            expected_text = str(expected)
        except NotRepresentable:
            expected = None
            expected_text = "NotRepresentable"
        except BudgetExceeded:
            expected = None
            expected_text = "BudgetExceeded"
        observed = confirmed_infinite[rank] if rank < len(confirmed_infinite) else None
        if observed is None:
            match: Optional[bool] = None
        else:
            match = expected is not None and expected == observed
            all_match = all_match and match
        rows.append(ConjectureRow(rank, expected_text, observed, match))

    return MainNumberReport(
        op_index=i,
        bound=bound,
        lattice_spec=(depth, coeff, terms),
        budget=budget,
        candidates_scanned=len(candidates),
        confirmed=tuple(confirmed),
        confirmed_infinite=tuple(confirmed_infinite),
        refuted=tuple(refuted),
        conjectured_match=tuple(rows),
        all_match=all_match,
        pairs_skipped=skipped,
    )

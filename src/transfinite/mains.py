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
at that alpha.  One bisection of beta serves every alpha: escaping is
monotone in beta at alpha >= 2 at every level, and at alpha <= 1 at
levels 1 and 2.  From level 3 on, every value at alpha <= 1 is at most
1, so such a pair escapes only at delta = 1, where 0 is the only beta.

In a report, each alpha search starts at the witness alpha of the last
refutation, since neighbouring candidates often share it.  A refused
synth call keeps the values its _eval calls finished in the shared memo
(the samples synthesis._sup builds along a chain are not among them, and
a retry builds them again), so a probe is retried while each refusal
grows the memo.  That ends: each retry adds an entry or raises, and one
probe has finitely many sub-evaluations to add.  A probe refused
without growth sends its candidate to a scan of every pair, which skips
the refused pairs; a verdict's pairs_skipped counts the distinct pairs
the scan left unsettled, so it is 0 whenever the search decides.
A refutation's value is the one synth left in the memo, at
memo[i, alpha][beta]; it is None when not representable.

The shared memo is a synthesis.Memo, so each limit's sample points are
built once per report and die with the memo.

The reports pair the confirmed infinite mains, in order, against the
ladder values synth(i+1, w, w^rank), rank = 0, 1, 2, ...  Ranks are
0-indexed: rank 0 pairs with the smallest infinite main.

is_main_number and enumerate_main_numbers pause the cyclic garbage
collector for their whole call and restore its state after, so it does
not re-walk a memo that grows past a hundred thousand entries.  That
is safe: a value only refers to values built before it, so values and
memo tables are acyclic, and lub.sample_and_infer keeps no refused run's
traceback, so a report leaves no cyclic garbage.  A report frees its memo
before the pause ends, so the one collection after it walks no memo.  The
pause is process-wide: other threads run without the collector meanwhile.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .budget import DEFAULT_BUDGET, EvalBudget
from .errors import BudgetExceeded, NotRepresentable, OrdinalDomainError
from .ordinal import OMEGA, ZERO, Ordinal, check_natural, from_natural, omega_power
from .synthesis import Memo, synth

__all__ = [
    "candidate_lattice",
    "is_main_number",
    "enumerate_main_numbers",
    "MainVerdict",
    "ConjectureRow",
    "MainNumberReport",
    "DEFAULT_LATTICE_SPEC",
]

DEFAULT_LATTICE_SPEC = (3, 5, 1)

# Hard ceiling on lattice size; generous specs explode combinatorially.
LATTICE_CAP = 200_000


def candidate_lattice(
    depth: int = DEFAULT_LATTICE_SPEC[0],
    coeff: int = DEFAULT_LATTICE_SPEC[1],
    terms: int = DEFAULT_LATTICE_SPEC[2],
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
    (2, 7, 4), has 188,707 entries.
    """
    for name, v in (("depth", depth), ("coeff", coeff), ("terms", terms)):
        check_natural(v, f"lattice {name}", 1)
    if not (bound is None or isinstance(bound, Ordinal)):
        raise OrdinalDomainError(f"lattice bound must be an Ordinal, got {bound!r}")
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


Pair = Tuple[Ordinal, Ordinal]


class MainVerdict(NamedTuple):
    candidate: Ordinal
    main: bool                              # True = main-on-sample only
    witness: Optional[Pair]
    value: Optional[Ordinal]                # None with a witness: >= epsilon_0
    pairs_skipped: int                      # distinct pairs the scan left unsettled


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
    with _collector_paused():
        check_natural(i, "operation index", 1)
        if not isinstance(delta, Ordinal) or delta.is_zero:
            raise OrdinalDomainError(f"candidate must be an Ordinal > 0, got {delta!r}")
        entries = candidate_lattice(*_spec(lattice_spec))
        return _classify(i, delta, entries, budget, Memo())


def _spec(lattice_spec) -> Tuple[int, int, int]:
    try:
        depth, coeff, terms = lattice_spec
    except (TypeError, ValueError):
        raise OrdinalDomainError(
            f"lattice_spec must be (depth, coeff, terms), got {lattice_spec!r}"
        ) from None
    return depth, coeff, terms


@contextlib.contextmanager
def _collector_paused():
    # Used as a with block, not a decorator: a decorator sets __wrapped__
    # on the public name, and perfbench's worker refuses an untraced pass
    # over a wrapped function.
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _classify(
    i: int,
    delta: Ordinal,
    entries: Sequence[Ordinal],
    budget: Optional[EvalBudget],
    memo: Memo,
    hint: Optional[Ordinal] = None,
) -> MainVerdict:
    top = delta.terms  # term tuple order is value order
    below = entries[: bisect_left(entries, top, key=attrgetter("terms"))]

    def escapes(alpha: Ordinal, beta: Ordinal) -> bool:
        # Not representable means >= epsilon_0 > delta; a refusal propagates.
        try:
            return synth(i, alpha, beta, budget, memo=memo).terms >= top
        except NotRepresentable:
            return True

    def resumes(alpha: Ordinal, beta: Ordinal) -> bool:
        # A refused synth keeps the _eval results it finished in the memo,
        # so a retry resumes from them; chained samples are built again.
        # Retry while each refusal grows the memo.  That ends: each retry
        # adds an entry or raises, and one probe's sub-evaluations are
        # finite, a well-founded recursion over at most sup_samples + 2
        # points per supremum.
        size = None
        while True:
            try:
                return escapes(alpha, beta)
            except BudgetExceeded:
                grown = sum(map(len, memo.values()))
                if grown == size:
                    raise
                size = grown

    refused = set()
    try:
        pair = _search(resumes, below, hint)
    except BudgetExceeded:
        pair = _scan(escapes, below, refused)
    if pair is None:
        return MainVerdict(delta, True, None, None, len(refused))
    # synth left the witness's value in the memo, unless not representable.
    return MainVerdict(delta, False, pair, memo[i, pair[0]].get(pair[1]), len(refused))


def _search(escapes, below: Sequence[Ordinal], hint) -> Optional[Pair]:
    """The least pair in (alpha, beta) order that escapes(alpha, beta),
    found by bisection, or None.

    The ladder grows weakly in both arguments, so escaping at beta_max is
    monotone in alpha, and at every alpha escaping is monotone in beta
    (the module docstring says why for alpha <= 1).  Refusals propagate:
    _classify retries a refused probe only while it grows the memo, so finitely often.

    hint, an alpha in below, starts the alpha search: if it escapes at
    beta_max and the alpha before it does not, it is the answer, and
    otherwise only the side of it that holds the first escape is bisected.
    Before bisecting a side that holds the largest alpha, that alpha is
    probed, which settles a main candidate.
    """
    def at_max(x: Ordinal) -> bool:
        return escapes(x, below[-1])

    # bisect_left over the keys False... True finds the first escape in
    # [lo, hi), which a hint narrows to one side of itself.
    lo, hi = 0, len(below)
    if hint is not None:
        h = bisect_left(below, hint)
        if not at_max(hint):
            lo = h + 1
        elif h == 0 or not at_max(below[h - 1]):
            lo = hi = h
        else:
            hi = h - 1
    if lo < hi == len(below):
        # Escaping at beta_max is monotone in alpha, so the top alpha
        # settles a main candidate in one probe.
        if not at_max(below[-1]):
            return None
        hi -= 1
    a = bisect_left(below, True, lo, hi, key=at_max)
    if a == len(below):
        return None
    alpha = below[a]
    # (alpha, beta_max) escapes, so the search stops below it.
    b = bisect_left(below, True, hi=len(below) - 1, key=lambda y: escapes(alpha, y))
    return alpha, below[b]


def _scan(escapes, below: Sequence[Ordinal], refused: set) -> Optional[Pair]:
    """The least escaping pair by every alpha in order, then beta in order,
    or None.  refused collects the distinct pairs the budget refused that
    no later attempt here settled."""
    def escape(alpha: Ordinal, beta: Ordinal) -> Optional[bool]:
        # escapes(alpha, beta), or None when the budget refuses the pair.
        try:
            escaped = escapes(alpha, beta)
        except BudgetExceeded:
            refused.add((alpha, beta))
            return None
        refused.discard((alpha, beta))
        return escaped

    for alpha in below:
        # Probe at the largest beta first and scan beta only if that
        # escapes or is refused: escaping is monotone in beta at every
        # alpha (see the module docstring).
        if escape(alpha, below[-1]) is False:
            continue
        for beta in below:
            if escape(alpha, beta):
                return alpha, beta
    return None


class MainNumberReport(NamedTuple):
    op_index: int
    bound: Ordinal
    lattice_spec: Tuple[int, int, int]
    budget: EvalBudget
    candidates_scanned: int
    confirmed: Tuple[Ordinal, ...]
    confirmed_infinite: Tuple[Ordinal, ...]
    refuted: Tuple[MainVerdict, ...]
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
            "budget": self.budget._asdict(),
            "candidates_scanned": self.candidates_scanned,
            "confirmed": [str(x) for x in self.confirmed],
            "confirmed_infinite": [str(x) for x in self.confirmed_infinite],
            "refuted": [
                {
                    "candidate": str(r.candidate),
                    "witness": [str(x) for x in r.witness],
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
    with _collector_paused():
        check_natural(i, "operation index", 1)
        if not isinstance(bound, Ordinal) or bound.is_zero:
            raise OrdinalDomainError(f"bound must be an Ordinal > 0, got {bound!r}")
        budget = budget or DEFAULT_BUDGET
        spec = _spec(lattice_spec)
        entries = candidate_lattice(*spec, bound=bound)
        candidates = [x for x in entries if not x.is_zero]

        memo = Memo()
        verdicts: List[MainVerdict] = []
        hint = None
        for delta in candidates:
            verdicts.append(_classify(i, delta, entries, budget, memo, hint))
            hint = verdicts[-1].witness[0] if verdicts[-1].witness else hint
        confirmed = [v.candidate for v in verdicts if v.main]
        confirmed_infinite = [x for x in confirmed if not x.is_natural]
        rows: List[ConjectureRow] = []
        for rank in range(len(confirmed_infinite) + 1):
            try:
                expected = synth(i + 1, OMEGA, omega_power(from_natural(rank)), budget, memo=memo)
                expected_text = str(expected)
            except (NotRepresentable, BudgetExceeded) as exc:
                expected = None
                expected_text = type(exc).__name__
            observed = confirmed_infinite[rank] if rank < len(confirmed_infinite) else None
            # Values are interned, and None never equals an Ordinal.
            match = None if observed is None else expected == observed
            rows.append(ConjectureRow(rank, expected_text, observed, match))
        del memo  # freed here, or the collection after the pause walks it

        return MainNumberReport(
            op_index=i,
            bound=bound,
            lattice_spec=spec,
            budget=budget,
            candidates_scanned=len(candidates),
            confirmed=tuple(confirmed),
            confirmed_infinite=tuple(confirmed_infinite),
            refuted=tuple(v for v in verdicts if not v.main),
            conjectured_match=tuple(rows),
            all_match=all(row.match is not False for row in rows),
            pairs_skipped=sum(v.pairs_skipped for v in verdicts),
        )

"""Scale measured times to a fixed reference speed of the processor.

On a shared machine the speed of a core changes by up to half within
seconds as other tenants come and go, which swamps most changes to the
code.  A calibration slice is a fixed piece of pure-Python work on plain
tuples from oracle.py, which does not import the package under test, so
no change to the package changes the slice.  An interval timer runs one
slice every ``INTERVAL_S`` seconds in the middle of whatever operation
is running (SIGALRM), and the slice's own time is taken out of that
operation's time.

A time measured while nearby slices took ``d`` seconds each is
multiplied by ``(NOMINAL_SLICE_S / d) ** SENSITIVITY``.  The slice is
cache-resident interpreter work, and code that waits on memory or runs
in C slows less than the slice when the core is contended, so the
sensitivity is below 1.  It is one constant for every operation of
every workload; spread.py measures, from committed runs, the log-log slope
of pass times against slice times that it stands for.  A reported second
is thus a second on a processor that runs a slice in ``NOMINAL_SLICE_S``;
the raw seconds are reported beside it.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from typing import Callable, List, Optional

import oracle

NOMINAL_SLICE_S = 0.0025
SENSITIVITY = 0.8
INTERVAL_S = 0.05
WINDOW_S = 0.5  # a slice's speed is the median over slices this close to it
SLICE_PAIRS = 20
SLICE_ROUNDS = 50


def _copy(p: oracle.Plain) -> oracle.Plain:
    return tuple((_copy(e), c) for e, c in p)


def _pairs(count: int) -> list:
    """Half equal values held in distinct objects, compared to the end, and
    half unrelated values; all nested three deep."""
    rng = random.Random("calibration")
    out = []
    for i in range(count):
        x = oracle.rand_tree(rng, 3)
        out.append((x, _copy(x) if i % 2 else oracle.rand_tree(rng, 3)))
    return out


_PAIRS = _pairs(SLICE_PAIRS)


def run_slice() -> float:
    """One calibration slice; returns its duration in seconds.

    The few values fit in the processor's caches, so after the first round
    the slice does not depend on what the workload left there.  The
    collector is off during the slice: a collection's cost depends
    on the workload's heap, not on the processor's speed.
    """
    cmp = oracle.cmp
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(SLICE_ROUNDS):
            for x, y in _PAIRS:
                cmp(x, y)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def median_slice(count: int) -> float:
    return statistics.median(run_slice() for _ in range(count))


def factor(slice_s: float) -> float:
    """Scale for a time measured while slices took ``slice_s`` each."""
    return (NOMINAL_SLICE_S / slice_s) ** SENSITIVITY


class SpeedMeter:
    """Runs calibration slices on a timer while it is started.

    ``spent`` is the total time slices have taken so far; an operation
    subtracts the growth of ``spent`` over its run from its duration.
    ``on_slice(d)``, if given, is told the duration of every slice.
    """

    def __init__(self, on_slice: Optional[Callable[[float], None]] = None):
        self.on_slice = on_slice
        self.spent = 0.0
        self.ends: List[float] = []
        self.durations: List[float] = []
        self._previous = None
        self._smoothed: Optional[List[float]] = None

    def _tick(self, signum, frame) -> None:
        duration = run_slice()
        self.spent += duration
        self.ends.append(time.perf_counter())
        self.durations.append(duration)
        self._smoothed = None
        if self.on_slice is not None:
            self.on_slice(duration)

    def start(self) -> None:
        """Run a slice now, then one every INTERVAL_S seconds."""
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and run a last slice, so a pass shorter than
        INTERVAL_S still has a slice on each side."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a duration measured over [start, end] into
        reference seconds.

        Each slice's time is the median over the slices within WINDOW_S
        of it, which drops a slice that one burst slowed.  An operation
        takes the mean factor of the slices that ran inside it, so a long
        one is weighted by how long each part of it ran at which speed;
        one with no slice inside takes the factor of the next slice.
        """
        if self._smoothed is None:
            self._smoothed = [
                statistics.median(self.durations[
                    bisect.bisect_left(self.ends, t - WINDOW_S):
                    bisect.bisect_right(self.ends, t + WINDOW_S)])
                for t in self.ends
            ]
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        near = self._smoothed[lo:hi] or [self._smoothed[min(lo, len(self.ends) - 1)]]
        return statistics.fmean(factor(d) for d in near)

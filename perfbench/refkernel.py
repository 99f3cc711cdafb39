"""Slices of a fixed reference kernel, sampled while a sweep runs.

On a shared host the speed of the machine changes within seconds: the same
sweep takes from 1x to 1.5x its quiet-machine time, so the sweep time of
one run says as much about the neighbours as about the program.  While a
timed sweep runs, a ``Sampler`` interrupts it every ``INTERVAL_S`` seconds
and times one slice of this kernel; the benchmark subtracts the slices
from the sweep time and reports the sweep in units of the mean slice
(``sweep_rel``).  A slowdown of the machine stretches both, so the ratio
keeps what the program changed.  The slices take about 3% of a sweep.

A slice does the kind of work the sweep does (list scheduling of integer
durations on a heap, and exact ``Fraction`` sums) on fixed inputs.  It
imports nothing from the program, so no change to the program can change
it; change it only together with the benchmark, because every
``sweep_rel`` figure is in its units.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import random
import signal
import time
from fractions import Fraction
from typing import Iterator, List

INTERVAL_S = 0.1

_RNG = random.Random(20210809)
_JOBS = [_RNG.randint(1, 10**6) for _ in range(3000)]


def _slice() -> int:
    heap = [(0, i) for i in range(64)]
    for d in _JOBS:
        load, i = heap[0]
        heapq.heapreplace(heap, (load + d, i))
    frac = Fraction(0)
    for d in _JOBS[:300]:
        frac += Fraction(d, 7 + d % 13)
    return max(load for load, _ in heap) + frac.numerator % 1000


_EXPECTED = _slice()


def time_slice() -> float:
    """Wall seconds of one slice, with the collector off so the size of the
    program's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = _slice()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError(f"reference slice returned {result}, not {_EXPECTED}")
    return elapsed


class Sampler:
    """Times one slice every INTERVAL_S seconds of wall time inside ``sampling()``."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.slices.append(time_slice())

    @contextlib.contextmanager
    def sampling(self) -> Iterator["Sampler"]:
        """Sample during the block; ``slices`` then holds this block's slice times."""
        self.slices = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

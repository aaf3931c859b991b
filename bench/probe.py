"""CPU speed probe for the end-to-end timings.

On a shared host the CPU speed one process sees can change by up to 2x
within tens of seconds, with no steal time reported, so raw wall seconds of
the same work drift from run to run. While the probe is active, a SIGALRM
handler times a fixed pure-Python computation every INTERVAL seconds of wall
time. ``speed`` is the mean of REFERENCE_S / sample over an interval, the
CPU speed relative to the one at which that computation takes REFERENCE_S.
``rescale`` turns a measured interval into seconds at that reference speed:
it removes the handler's own time and multiplies the rest by ``speed``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.1
# Median duration of _reference() on the 2-core x86-64 host (Python 3.11)
# where the benchmark was written.
REFERENCE_S = 0.00065


def _reference():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i % 7 + 1) * Fraction(i % 5 + 1, 3)
    counts = {}
    for i in range(600):
        counts[i % 50] = counts.get(i % 50, 0) + i
    return total


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (start, duration) of each timed computation
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        _reference()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start, end):
        """Mean of REFERENCE_S / sample over the samples taken in [start, end),
        or the last sample before ``end`` when none was."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            inside = [max((s for s in self.samples if s[0] < end), default=self.samples[0])[1]]
        return statistics.fmean(REFERENCE_S / d for d in inside)

    def rescale(self, seconds, start, end):
        """``seconds`` measured over the wall interval [start, end), without
        the handler's time, in seconds at the reference speed."""
        handler = sum(d for t, d in self.samples if start <= t < end)
        return (seconds - handler) * self.speed(start, end)

"""Timing at reference speed, for a machine whose speed drifts.

The benchmark runs on shared machines whose cores slow down and speed up
with their neighbours' load, by up to a factor of two over seconds to
minutes, with CPU time tracking wall time.  A time measured there says as
much about the neighbours as about nilorbits.  So the benchmark times a
fixed reference loop (pure Python: tuples, recursion, a dict) right before
and right after every stretch of measured work, and reports each measured
time at reference speed:

    reported = measured * REFERENCE_S / (mean of the two loop times)

A stretch is one item, or a run of consecutive items that together took
at least ``Clock.every_s``.  ``REFERENCE_S`` is what the loop takes on the
baseline machine when it is idle, so the reported figures read as seconds
there.  The loop does not touch nilorbits: a change to the library moves
the measured time and leaves the loop alone.
"""

from __future__ import annotations

import statistics
import time

# Seconds of one ``reference_loop`` on the baseline machine (Intel Xeon,
# 2.1 GHz, Python 3.11.7) when idle.
REFERENCE_S = 1.2e-3
REFERENCE_SIZE = 18


def _partitions(total: int, largest: int) -> list:
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


def reference_loop() -> int:
    """A fixed amount of interpreter work, about a millisecond."""
    weights = {}
    for lam in _partitions(REFERENCE_SIZE, REFERENCE_SIZE):
        weights[lam] = sum(i * part for i, part in enumerate(lam)) % 7
    return len(weights)


def probe() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Clock:
    """Measured stretches of work and the factor that brings each to
    reference speed.

    ``add`` records a measured time; once the times added since the last
    probe reach ``every_s``, or on ``flush``, the loop is timed again and
    every time since the last probe gets the factor ``REFERENCE_S`` over the
    mean of the probes before and after it.
    """

    def __init__(self, every_s: float = 0.02):
        self.every_s = every_s
        self.raw: list[float] = []
        self.factor: list[float] = []
        reference_loop()  # warm-up: the first loop pays for its own set-up
        self.probes = [probe()]
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._since += seconds
        if self._since >= self.every_s:
            self.flush()

    def flush(self) -> None:
        """Probe now, and give every time added since the last probe its
        factor."""
        if len(self.factor) == len(self.raw):
            return
        self.probes.append(probe())
        factor = 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
        self.factor += [factor] * (len(self.raw) - len(self.factor))
        self._since = 0.0

    def scaled(self, first: int = 0) -> list[float]:
        """The times from index ``first`` on, at reference speed."""
        self.flush()
        return [raw * factor for raw, factor in
                zip(self.raw[first:], self.factor[first:])]

    def median_factor(self) -> float:
        self.flush()
        return statistics.median(self.factor)

"""Host speed, sampled with a fixed reference loop between timed calls.

The benchmark shares its host with other tenants.  On a 2-vCPU VM the speed
of a fixed CPU loop was seen to move between levels up to 2.4x apart, in
stretches from under a second to half a minute, in wall time and CPU time
alike.  A 25 s run can fall wholly inside a slow stretch, so neither longer
runs nor medians over a run remove it.

The benchmark therefore times a reference loop (small ``Fraction``
arithmetic, comparisons and dict updates, like the package's own inner
loops) before a timed call whenever ``GAP_S`` has passed since the last
sample, and once after the timed loop.  Every time it reports is a wall time
scaled to the reference speed: multiplied by ``REFERENCE_S`` over the mean
of the loop's times just before and just after the timed interval.  The loop
uses only the standard library, so a change to the package never changes it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

REFERENCE_TERMS = 375
# The reference loop's time on the fast level of a 2-vCPU Intel Xeon VM at
# 2.1 GHz with Python 3.11; reported times are wall times at that speed.
REFERENCE_S = 0.001
GAP_S = 0.025  # calls shorter than this share a sample with their neighbours


def reference_loop() -> float:
    """Seconds the fixed reference loop takes right now."""
    start = perf_counter()
    acc = Fraction(0)
    low: dict[int, Fraction] = {}
    for i in range(1, REFERENCE_TERMS):
        q = Fraction(i % 13 + 1, i % 11 + 1)
        acc = acc + q if acc < 40 else acc - q
        slot = i % 17
        if slot not in low or q < low[slot]:
            low[slot] = q
    return perf_counter() - start


class HostSpeed:
    """Reference-loop samples over a run, and wall times scaled by them."""

    def __init__(self):
        self.ends: list[float] = []  # when each sample finished
        self.loops: list[float] = []  # how long each sample's loop took
        self.sample()

    def sample(self) -> None:
        self.loops.append(reference_loop())
        self.ends.append(perf_counter())

    def maybe_sample(self) -> None:
        if perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """`end - start` at the reference speed.

        Uses the last sample that finished before `start` and the first that
        finished after `end`; call ``sample()`` after the last timed interval.
        """
        before = max(0, bisect.bisect_right(self.ends, start) - 1)
        after = min(len(self.ends) - 1, bisect.bisect_left(self.ends, end))
        local = (self.loops[before] + self.loops[after]) / 2
        return (end - start) * REFERENCE_S / local

    def summary(self) -> str:
        ordered = sorted(self.loops)
        mid = ordered[len(ordered) // 2]
        return (
            f"reference loop {len(ordered)} samples: min {ordered[0] * 1000:.3f} ms, "
            f"median {mid * 1000:.3f} ms, max {ordered[-1] * 1000:.3f} ms "
            f"(reference {REFERENCE_S * 1000:.3f} ms)"
        )

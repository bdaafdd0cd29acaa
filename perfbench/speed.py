"""Machine-speed reference for rescaling wall times.

On the 2-vCPU virtual machine the baseline was measured on, the same code
runs up to 1.7x slower in bursts of seconds to minutes, whatever runs in it.  A fixed reference kernel of a few
milliseconds, independent of baresim (numpy array passes and an interpreter
loop), is timed after every solve; a wall time t measured while the kernel
took r seconds is reported as t * REF_S / r, the time it would have taken
on a machine where the kernel takes REF_S.  Changes to baresim do not touch
the kernel, so they move the rescaled time as they move the wall time.

r is the median of the kernel timings taken within WINDOW_S of the solve:
the ones right before and right after it, LONG_REPEATS of each around a
solve longer than LONG_S.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.004  # nominal reference-kernel time
NEAREST = 3       # fewest reference samples behind a rescaling
WINDOW_S = 0.1    # samples this close to a solve count for it
LONG_S = 0.5      # solves this long get LONG_REPEATS samples on each side
LONG_REPEATS = 3


def reference_kernel(rng: np.random.Generator) -> float:
    a = rng.standard_normal(30_000)
    for _ in range(10):
        a = np.sqrt(np.abs(a) + 1.0)
    total = 0
    for i in range(30_000):
        total += i % 7
    return float(a[0]) + total


class SpeedTrack:
    """Reference-kernel samples over a run, and the rescaling they imply."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng([seed, 3])
        self.times: list[float] = []   # sample mid-points
        self.samples: list[float] = []  # kernel durations

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_kernel(self._rng)
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.samples.append(t1 - t0)

    def after_solve(self, elapsed: float) -> None:
        self.sample(LONG_REPEATS if elapsed > LONG_S else 1)

    def scale(self, start: float, end: float | None = None) -> float:
        """REF_S over the median of the samples within WINDOW_S of
        [start, end], or of the NEAREST samples closest to its middle when
        fewer fall there."""
        end = start if end is None else end
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo >= NEAREST:
            return REF_S / statistics.median(self.samples[lo:hi])
        at = 0.5 * (start + end)
        i = bisect.bisect_left(self.times, at)
        lo, hi = max(0, i - NEAREST), min(len(self.times), i + NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - at))[:NEAREST]
        return REF_S / statistics.median(self.samples[j] for j in near)

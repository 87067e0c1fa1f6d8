"""Host-speed calibration: fixed numpy work timed next to every measured call.

On a shared host the same code runs up to about 40% slower for seconds at a
time, and its CPU time grows with its wall time, so the loss is in work done
per second rather than in waiting.  Medians over a few seconds cannot remove
that.  The benchmark therefore times a calibration block right before and
right after each measured call and scales the call's time by the block's
nominal time over its measured time, which reports it in seconds of a host
running at nominal speed.  The block repeats a deep KL sweep's operation mix
(a matrix product, a quotient, logs, exponentials) on arrays of the
workload's own shape, so it sees the same cache or memory-bandwidth pressure.
It never calls deepbnmf: a change to the package moves scaled times exactly
as it moves raw ones, and the raw times are reported next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal cost of one block per matrix entry and repetition, close to the
# fast phase of a 2-core x86-64 host (numpy 2.4, OpenBLAS, one BLAS thread).
NOMINAL_NS_PER_CELL = 16.7
BLOCKS_PER_SAMPLE = 10
_CELLS_PER_BLOCK = 300_000


class HostSpeed:
    """Times the calibration block for data of shape (m, n) and rank r."""

    def __init__(self, m: int, n: int, r: int):
        rng = np.random.default_rng(0)
        self._W = rng.uniform(0.1, 1.0, (m, r))
        self._H = rng.uniform(0.1, 1.0, (r, n))
        self._Y = rng.uniform(0.1, 1.0, (m, n))
        self._reps = max(1, round(_CELLS_PER_BLOCK / (m * n)))
        self.nominal_s = 1e-9 * NOMINAL_NS_PER_CELL * m * n * self._reps
        self.samples = []

    def _block(self) -> float:
        started = time.perf_counter()
        for _ in range(self._reps):
            V = self._W @ self._H
            G = (self._Y / V) @ self._H.T
            L = np.log(V) + np.exp(-V)
            np.sqrt(L * L + G.sum())
        return time.perf_counter() - started

    def sample(self) -> float:
        """Median time of a few calibration blocks, run now."""
        seconds = statistics.median(self._block() for _ in range(BLOCKS_PER_SAMPLE))
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two samples into nominal seconds."""
        return self.nominal_s / (0.5 * (before + after))

"""Host-speed calibration for the benchmark's timings.

On a shared host the same pass can take twice as long a minute later,
because neighbours slow the core down, not because the program changed.
The benchmark therefore runs a fixed kernel between timed pieces of work
and scales each piece's time by REFERENCE_S over the median of the kernel
times around it: a host running everything 1.5x slower for a while leaves
the scaled time where it was. The kernel is the benchmark's own code,
never dgdlab's, so a change to dgdlab cannot move it. Like dgdlab, it
spends its time in Python loops around small numpy operations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a 2-core 2.1 GHz x86 VM (Python 3.11, numpy 2.4,
# one BLAS thread); scaled times are seconds on that host at that speed.
REFERENCE_S = 0.010
SWEEPS = 60
WARM_UP = 5  # first calls and a cold core read slow

_START = np.add.outer(np.arange(8.0), np.arange(8.0)) / 8.0


def kernel() -> float:
    """Plane rotations (norm-preserving) over an 8x8 matrix, with Python-side bookkeeping."""
    work = _START.copy()
    total = 0.0
    for _ in range(SWEEPS):
        for p in range(7):
            for q in range(p + 1, 8):
                row_p = work[p].copy()
                row_q = work[q].copy()
                work[p] = 0.8 * row_p - 0.6 * row_q
                work[q] = 0.6 * row_p + 0.8 * row_q
        total += float(np.linalg.norm(work))
    return total


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Series:
    """Kernel times taken between consecutive timed pieces of work.

    Piece k of work runs between kernel times k and k + 1; its scale uses
    the median of the two kernel times before it and the two after it.
    """

    def __init__(self):
        for _ in range(WARM_UP):
            measure()
        self.times = [measure()]

    def mark(self) -> int:
        """Take a kernel time after a piece of work; returns that piece's index."""
        self.times.append(measure())
        return len(self.times) - 2

    def scale(self, index: int) -> float:
        window = self.times[max(0, index - 1) : index + 3]
        return REFERENCE_S / statistics.median(window)

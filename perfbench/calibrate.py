"""Machine-speed calibration that scales every reported time.

The hosts this benchmark runs on are shared: the same code runs at one of
two speeds, about 1.6 times apart, and switches between them over seconds
to minutes, while CPU time stays equal to wall time.  A run of 30 seconds
can fall in either, so statistics inside one run cannot remove it.  A fixed
kernel of small numpy calls and interpreter work, the same mix the solver
executes but none of the package's code, slows down in the same
proportion.  While a workload runs, a :class:`Sampler` times one chunk of
this kernel between solver runs every ``INTERVAL_S`` seconds, so the chunks
see the speeds in the share the workload saw them, and every time of the
run is scaled by ``REFERENCE_S / mean chunk time``.  Times are thus
reported in units of a reference machine, the one the benchmark was
defined on (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4), where
the mean chunk took ``REFERENCE_S``.  Chunks are timed in thread CPU time,
so a chunk timed on a pool worker does not count waiting for the
interpreter lock.  The sampling costs about 2% of the wall time.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.0125
INTERVAL_S = 0.5


def kernel(steps: int = 150) -> float:
    """One chunk: seeded draws, a small SVD, a Gram solve and float bookkeeping."""
    A = np.random.default_rng(7).standard_normal((3, 5))
    x = np.zeros(5)
    acc = 0.0
    for i in range(steps):
        r = np.random.default_rng(np.random.SeedSequence((7, i)))
        g = A @ x + r.uniform(-1.0, 1.0, size=3)
        s = np.linalg.svd(A, compute_uv=False)
        y = np.linalg.solve(A @ A.T, g)
        acc += float(np.sum(np.abs(y))) + float(s[-1])
        x = x + 1e-9 * (A.T @ y)
    return acc


class Sampler:
    """Times kernel chunks, at most one per ``INTERVAL_S`` unless forced."""

    def __init__(self):
        self.chunks: list[float] = []
        self._last = -float("inf")
        self._lock = threading.Lock()

    def sample(self, force: bool = False) -> None:
        with self._lock:
            now = time.perf_counter()
            if not force and now - self._last < INTERVAL_S:
                return
            self._last = now
        start = time.thread_time()
        kernel()
        self.chunks.append(time.thread_time() - start)

    def scale(self) -> float:
        """Factor from this machine's times to reference-machine times."""
        return REFERENCE_S / statistics.fmean(self.chunks)

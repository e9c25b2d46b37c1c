"""Machine-speed probe for a shared, noisy host.

On a small shared VM the same computation runs up to 1.7x slower in some
phases than in others, and a slow phase can last minutes, longer than a
run.  The probe times a fixed Python-and-NumPy computation that does not
use the package, between units of work.  A unit's time is scaled by
``NOMINAL_S / probe time`` around it, which removes the phase from the
comparison of two runs.  The scaled figures are seconds at the speed at
which the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time that defines the reference speed: about its median on a
#: 2-core Intel Xeon VM with Python 3.11 and NumPy 2.4.
NOMINAL_S = 0.06

#: Timings per probe; the median is used.
REPEATS = 3


class Probe:
    def __init__(self):
        g = np.random.default_rng(0)
        self.mat = g.random((64, 64))
        self.vec = g.random(20000)

    def once(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200000):
            acc += i * 0.5
        g = np.random.default_rng(1)
        for _ in range(80):
            draws = g.gamma(1.5 + g.poisson(2.0, 5000), 2.0)
            acc += float(np.exp(-self.vec).sum() + (self.mat @ self.mat).sum()
                         + draws.sum())
        return time.perf_counter() - t0

    def measure(self):
        return statistics.median(self.once() for _ in range(REPEATS))

    @staticmethod
    def scale(before, after):
        """Factor from seconds to nominal-speed seconds for work done
        between two probe measurements."""
        return NOMINAL_S / (0.5 * (before + after))

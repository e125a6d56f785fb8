"""Host-speed calibration for the end-to-end timings.

On a shared host the same operation runs up to 1.5x slower for minutes at
a time while other tenants load the machine, which swamps any change to
opident.  The benchmark therefore pins itself and its children to one CPU
and times a fixed kernel between operations: a truncated product of two
sparse bivariate series held in dicts, with small rational and integer
coefficients, the shape of work opident spends its time on but written
without opident.  A run's wall times t become t * REFERENCE_S / mean(kernel
times).  A change to opident moves the scaled numbers exactly as it moves
the raw ones; a slower host slows the kernel as well and cancels out.  On
the series sweep, ten 35 s runs during heavy contention spread 25% raw and
9% scaled.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from fractions import Fraction

# Kernel time that defines a reference second: about its time on a lightly
# loaded 2-core Intel Xeon host at 2.1 GHz under Python 3.11.7.
REFERENCE_S = 0.09

_TOTAL_DEGREE = 26


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so the kernel and the
    operations it calibrates see the same contention."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _operands():
    rng = random.Random(1)
    exps = [(i, j) for i in range(12) for j in range(12) if i + j < 14]
    a = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for e in exps}
    b = {e: rng.randint(-99, 99) for e in exps}
    return a, b


def kernel_s() -> float:
    """Wall time of one fixed run of the calibration kernel."""
    a, b = _operands()
    t0 = time.perf_counter()
    for _ in range(3):
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                if i1 + i2 + j1 + j2 >= _TOTAL_DEGREE:
                    continue
                e = (i1 + i2, j1 + j2)
                p = c1 * c2
                prev = out.get(e)
                out[e] = p if prev is None else prev + p
    return time.perf_counter() - t0


class Speed:
    """Kernel samples taken between measurements, and the scale they imply."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        self.samples.append(kernel_s())

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / statistics.mean(self.samples)

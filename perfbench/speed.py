"""Host speed probe.

The shared host runs this benchmark at speeds that drift by up to 1.6x, in
regimes from seconds to minutes long (other tenants on the same cores).  A
fixed kernel that uses no dirichlet_j code is timed between ops, in the same
process; each run's timings are divided by the median slowdown of the kernel
against REFERENCE_S, so they read in the units of a host running at the
reference speed.  Raw timings are kept in the run record.

numpy is imported on first use, so a process that probes with the Python
kernel never loads it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# kernel seconds on the host the benchmark was defined on, in its fast regime
REFERENCE_S = {"python": 1.15e-3, "numpy": 20.4e-3}
INTERVAL_S = {"python": 0.1, "numpy": 0.5}  # op time between two probes
# deep-series runs numpy kernels over 1e6-element arrays; the rest is Python
KERNEL = {"deep-series": "numpy"}


def _python_kernel() -> None:
    # float arithmetic, then Bernoulli numbers by the Akiyama-Tanigawa
    # recurrence: big-integer Fractions like the program's exact layer
    acc = 0.0
    for k in range(1, 1000):
        acc += (k * 0.5) ** -1.5
    a = [Fraction(0)] * 25
    for m in range(25):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])


def _numpy_kernel() -> None:
    # built and freed in each sample, in place after the first array, so that
    # the probe adds no lasting memory to the program process it runs in
    import numpy as np

    x = np.arange(1, 10**6 + 1, dtype=float)
    y = np.multiply(x, 0.3)
    np.sin(y, out=y)
    np.divide(y, x, out=y)
    np.divide(y, x, out=y)
    float(np.sum(y))


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class Probe:
    """Samples the kernel every INTERVAL_S of op time; call `due` between ops."""

    def __init__(self, workload: str):
        self.kind = KERNEL.get(workload, "python")
        self.samples: list[float] = []  # kernel seconds
        self._busy = INTERVAL_S[self.kind]  # probe before the first op

    def due(self, busy: float) -> None:
        """Record that `busy` seconds of op time passed; probe when due."""
        self._busy += busy
        if self._busy >= INTERVAL_S[self.kind]:
            self._busy = 0.0
            self.sample()

    def sample(self) -> None:
        kernel = _KERNELS[self.kind]
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)


def slowdown(samples: list[float], kind: str) -> float:
    """Median kernel time of the probes over REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S[kind]

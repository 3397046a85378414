"""Host-speed calibration: a fixed numpy split-step kernel timed between repeats.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to about ±20% over seconds to minutes.  The drift slows every process alike,
and it does not show as preemption: CPU time tracks wall time.  Medians over
a run cannot remove a slow phase that lasts the whole run, so the
end-to-end times are scaled by the host's speed, measured with this kernel
between the repeats::

    reference time = mean measured time * REFERENCE_S[grid] / mean kernel time

The result reads as seconds on a host that runs the kernel in
``REFERENCE_S``.  The caller times the kernel after every repeat for a
share of the repeat's wall time, so the samples cover the whole run.  The kernel is a Strang split step (nonlinear phase, FFT
pair with a multiplier, a mass sum) on the workload's own grid shape, so its
mix of FFTs, array arithmetic and interpreter overhead is close to the
program's.  It uses numpy alone and lives here, so no change to ``scnls``
changes it; a slower program still reads slower.

``REFERENCE_S`` was measured once as the median kernel time on a 2-vCPU
x86-64 host with numpy 2.4.6 and Python 3.11, and is fixed from then on.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.fft import fftn, ifftn  # bound here, before a tracer wraps numpy.fft

# grid points one timing steps through: 0.1 to 0.2 s at the reference speed
POINTS = 1_500_000
# median kernel seconds per (dim, n) on the reference host
REFERENCE_S = {(1, 512): 0.185, (1, 1024): 0.133, (2, 256): 0.111}


class HostSpeed:
    """Times the calibration kernel on one grid shape."""

    def __init__(self, dim: int, n: int):
        self.reference_s = REFERENCE_S[(dim, n)]
        self.steps = max(1, round(POINTS / n**dim))
        axis = np.linspace(-np.pi, np.pi, n, endpoint=False)
        r2 = sum(np.square(x) for x in np.meshgrid(*[axis] * dim, indexing="ij"))
        k = np.fft.fftfreq(n, d=1.0 / n)
        k2 = sum(np.square(x) for x in np.meshgrid(*[k] * dim, indexing="ij"))
        self.u0 = np.exp(-r2).astype(complex)
        self.multiplier = np.exp(-0.5j * 1e-4 * k2)

    def sample(self, seconds: float) -> list[float]:
        """Kernel timings, repeated until they add up to ``seconds`` (at least one)."""
        timings = [self.time()]
        while sum(timings) < seconds:
            timings.append(self.time())
        return timings

    def time(self) -> float:
        """Seconds the kernel takes now."""
        u = self.u0
        start = time.perf_counter()
        for _ in range(self.steps):
            u = u * np.exp(0.5j * 1e-4 * np.abs(u) ** 2)
            u = ifftn(self.multiplier * fftn(u))
            float(np.sum(np.abs(u) ** 2))
        return time.perf_counter() - start

    def scale(self, seconds: float, kernel_s) -> float:
        """``seconds`` in reference seconds, given kernel timings taken around it."""
        return seconds * self.reference_s / statistics.fmean(kernel_s)

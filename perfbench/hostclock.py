"""Host-speed calibration interleaved with the timed census body.

On a shared host the speed available to one process drifts by 20-50% over
seconds to minutes.  A fixed calibration kernel, independent of conebands,
runs for about 2.5 ms every 0.05 s of the body, from a one-shot SIGALRM
timer that is re-armed when the kernel ends, so kernels never nest.  Its
time measures the host speed:

    speed factor = mean kernel time / NOMINAL_KERNEL_S

Each unit's time is divided by the factor of the samples taken during it
(or of the whole run, if it got too few), so it reads as seconds on a host
running at the nominal speed.  Time spent in the kernel is subtracted from
the unit it interrupted.

The kernel mixes what the census does: short Python float recurrences (as
in the Frobenius series) and 2x2 numpy products with rescaling (as in the
log-scaled monodromy).  It does not drift with LAPACK work: on the
oracle's dense eigh, scaling by it raised the spread (3.5% to 10% over 10 s
windows), and a windowed eigh kernel run between units did not reduce it
either, so oracle units are not scaled.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

NOMINAL_KERNEL_S = 0.0025  # mean kernel time at the nominal host speed
INTERVAL_S = 0.05

_ROT = np.array([[0.9, 0.1], [-0.1, 0.9]])


def kernel(reps: int = 150) -> float:
    acc = 0.0
    m = np.eye(2)
    for _ in range(reps):
        c = 1.0
        for j in range(40):
            c = -c / (2.0 * (j + 1) * (j + 3.5))
            acc += c * math.sqrt(j + 1.0)
        m = _ROT @ m
        m = m / float(np.max(np.abs(m)))
    return acc + float(m[0, 0])


class HostClock:
    """Runs the kernel periodically while active; accumulates its cost."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._old = None

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen_wall += dt
        self.stolen_cpu += time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def speed_factor(self, samples=None) -> float:
        """Mean kernel time over nominal, of all samples or of the given
        ones; > 1 on a slow host, 1 if unsampled."""
        samples = self.samples if samples is None else samples
        if not samples:
            return 1.0
        return (sum(samples) / len(samples)) / NOMINAL_KERNEL_S


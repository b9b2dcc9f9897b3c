"""Host-speed calibration for the end-to-end timings.

On a shared machine the same code runs up to 2x slower for tens of
seconds at a time, far more than the changes the benchmark must resolve.
The benchmark therefore times a fixed reference kernel alongside the
workload and reports times scaled to the kernel's nominal speed: a pass
that took 12 s while the kernel ran at 80% of nominal speed counts as
9.6 s.  On a 2-vCPU Intel Xeon at 2.0 GHz, four runs of identical inputs
had an inter-quartile spread of 13-41% unscaled and 3-17% scaled.  The
kernel does not track every workload exactly: the LAPACK-heavy bcs_n20
slows less than the kernel in a slow phase, lmg scan slightly more.
The process's CPU time is no substitute: in a slow phase it grew with the
wall time (it stayed within 3% of it), so the host loses speed, not
time slices.

Inside a workload process a SIGALRM timer runs the kernel every
SAMPLE_INTERVAL_S between bytecodes of the main thread; the time spent
sampling is taken out of every interval it falls in.
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

import numpy as np

# one reference() call on the machine above when it was not contended
NOMINAL_S = 0.0007
SAMPLE_INTERVAL_S = 0.1
# samples this far either side of an interval also describe its speed
WINDOW_S = 1.0


def reference() -> float:
    """A fixed mix of the work the package spends its time on: interpreted
    complex arithmetic, small objects built and sorted, small numpy calls
    and a small symmetric eigensolve."""
    zs = [complex(math.cos(i), math.sin(0.5 * i)) for i in range(400)]
    acc = 0.0
    for z in zs:
        acc += abs(z * z.conjugate() + 1.0) ** 0.5
    zs.sort(key=lambda z: (z.real, z.imag))
    table = {i: (z, abs(z)) for i, z in enumerate(zs)}
    a = np.arange(21.0)
    for _ in range(120):
        a = np.sqrt(a + 1.0)
    h = np.diag(a) + np.diag(a[:-2], 2) + np.diag(a[:-2], -2)
    w = np.linalg.eigvalsh(h)
    return acc + len(table) + float(w[0])


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth (single hiccups)."""
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.mean(ordered[k:len(ordered) - k])


class Sampler:
    """Times reference() on a timer while a workload runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        # a collection of the workload's garbage must not land in a sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, a: float, b: float) -> float:
        """Duration of [a, b] without the sampling inside it, scaled to
        nominal speed by the samples within WINDOW_S of the interval."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        own = (b - a) - sum(self.durations[lo:hi])
        wlo = bisect.bisect_left(self.starts, a - WINDOW_S)
        whi = bisect.bisect_left(self.starts, b + WINDOW_S)
        window = self.durations[wlo:whi]
        if not window:
            raise RuntimeError("no speed samples near the interval")
        return own * NOMINAL_S / trimmed_mean(window)

    def mean_speed(self) -> float:
        """Mean kernel speed over the run, as a share of nominal."""
        return statistics.mean(NOMINAL_S / d for d in self.durations)

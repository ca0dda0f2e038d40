"""Machine-speed probe: times a fixed kernel every few milliseconds, from SIGALRM.

The benchmark runs on a few vCPUs of a shared host.  There the same work
runs at one of two speeds, about 1.7x apart, as the host's other tenants
come and go: for milliseconds in some minutes, for whole minutes in others.
CPU time follows wall time, so it does not help.  A run's wall-clock figures
therefore measure the host more than the program.

The probe measures the host instead, while the program runs.  Every
``INTERVAL_S`` a SIGALRM handler runs ``kernel()``, a fixed mix of small
numpy operations, dict/list building and JSON encoding like the program's
own, and records how long it took.  Scaling a span of the program's wall
time by ``KERNEL_REF_S / mean(kernel times in the span)`` gives the time
the span would have taken at a fixed reference speed.  Over the two host
speeds the program's own slowdown follows the kernel's within 2-4%.

The kernel does not use the program, so a change to the program does not
move the reference.  Time spent in the handler is taken out of the span.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.005
# Median kernel time at the host's faster speed on the 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6) where the baseline was measured.  Scaled
# figures are in seconds at that speed.
KERNEL_REF_S = 2.4e-4
KERNEL_ROUNDS = 16
OUTLIER = 3.0

_M = np.exp(np.random.default_rng(0).uniform(-1.0, 1.0, size=(6, 6)))
_W = np.full(6, 1.0 / 6.0)


def kernel(rounds: int = KERNEL_ROUNDS) -> float:
    """Small numpy operations on a 6x6 matrix, and a small dict made and JSON-encoded."""
    s = 0.0
    for i in range(rounds):
        logs = np.log(_M)
        v = np.exp(logs.mean(axis=1))
        s += float((v / v.sum()) @ _W)
        doc = {"id": f"e{i}", "row": [round(float(x), 6) for x in v[:3]], "k": i}
        s += len(json.dumps(doc))
    return s


class SpeedProbe:
    """Kernel times sampled from SIGALRM between ``start()`` and ``stop()``."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = [0.0]  # prefix sums of durations
        self.floor = math.inf  # set by stop()
        self._old = None

    def _handler(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not the kernel's time
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.record(t0, t1 - t0)

    def record(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)
        self._busy.append(self._busy[-1] + duration)

    def start(self) -> None:
        kernel()  # first-call costs out of the samples
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        if len(self.durations) >= 2:
            # The 10th percentile: the faster speed, if the run saw it.
            self.floor = statistics.quantiles(self.durations, n=10)[0]

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _window(self, a: float, b: float) -> tuple[int, int]:
        """Indices of the samples taken in [a, b), widened to at least two."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        while j - i < 2 and (i > 0 or j < len(self.starts)):
            if i > 0:
                i -= 1
            if j < len(self.starts) and j - i < 2:
                j += 1
        return i, j

    def scaled(self, a: float, b: float) -> float:
        """Seconds that the span [a, b) of wall time would take at the reference speed."""
        if not self.starts:
            raise RuntimeError("the speed probe took no samples")
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        busy = self._busy[hi] - self._busy[lo]  # handler time inside the span
        i, j = self._window(a, b)
        return (b - a - busy) * KERNEL_REF_S / mean_kernel_time(self.durations[i:j], self.floor)

    def factor(self) -> float:
        """Median of reference time over kernel time, over every sample."""
        return KERNEL_REF_S / statistics.median(self.durations)


def mean_kernel_time(durations: list[float], floor: float) -> float:
    """Mean kernel time, without samples over OUTLIER times ``floor``.

    The two host speeds are 1.7x apart; a sample far slower than that was
    preempted or interrupted, which says nothing about the speed.  The mean,
    not the median, because a span's wall time adds up its slow and fast
    stretches.
    """
    kept = [d for d in durations if d <= OUTLIER * floor]
    return statistics.fmean(kept or durations)


def sample_kernel(count: int | str) -> list[float]:
    """Times of ``count`` kernel runs in a row, after one untimed run."""
    kernel()
    times = []
    for _ in range(int(count)):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times

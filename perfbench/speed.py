"""Machine-speed yardstick for the end-to-end timings.

On a shared host the speed of this machine drifts by a quarter and more over
seconds, and process CPU time drifts with it, so raw wall times of the same
operation spread more than any useful bound.  A fixed reference kernel (dict
updates with complex values, small Hermitian eigensolves: the mix the
package runs) is timed every PERIOD_S seconds from a timer signal, on the
thread that runs the operations: run once to bring it back into cache, then
once timed, with the garbage collector off.  A timed interval is then
reported at the nominal speed, where the kernel takes REF_NOMINAL_S: its
wall time, less the kernel runs inside it, times REF_NOMINAL_S over the mean
kernel time during the interval.  An interval too short to hold RECENT
kernel runs uses the median of the latest RECENT instead, so that one
disturbed run does not scale it.  ``speedcheck.py`` checks that the scaled
figures stay the program's own.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2
RECENT = 8
REF_NOMINAL_S = 0.004

_B = np.random.default_rng(0).standard_normal((16, 12, 12, 2)).view(complex)[..., 0]
_H = _B + np.conj(np.swapaxes(_B, 1, 2))


def reference_kernel() -> None:
    """Allocates nothing the garbage collector tracks (int keys, complex
    values, arrays), so that the program's heap cannot slow it down."""
    d: dict = {}
    for i in range(2000):
        key = (i % 97) * 89 + i % 89
        d[key] = d.get(key, 0j) + complex(i, 1)
    for _ in range(4):
        np.linalg.eigh(_H)


class SpeedSampler:
    """Times the reference kernel every PERIOD_S seconds while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.ticks: list[tuple[float, float]] = []  # (start, seconds): whole ticks

    def _tick(self, *_):
        enabled = gc.isenabled()
        gc.disable()  # no collection of the program's objects inside the kernel
        t0 = time.perf_counter()
        reference_kernel()  # brings the kernel's code and data back into cache
        t = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append((t, end - t))
        self.ticks.append((t0, end - t0))
        if enabled:
            gc.enable()

    def start(self):
        if not self.samples:
            reference_kernel()  # first call loads LAPACK; not a sample
            for _ in range(RECENT):  # the speed before the first interval
                self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No samples while a child process runs: it would share the core."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end] would take at the nominal speed."""
        inside = [d for t, d in self.samples if start <= t < end]
        ticks = sum(d for t, d in self.ticks if start <= t < end)
        if len(inside) >= RECENT:
            kernel = statistics.fmean(inside)
        else:
            if not self.samples:
                self._tick()
            kernel = statistics.median([d for t, d in self.samples if t < end][-RECENT:]
                                       or [d for _, d in self.samples[:RECENT]])
        return (end - start - ticks) * REF_NOMINAL_S / kernel

    def summary_ms(self) -> dict:
        times = [d for _, d in self.samples]
        return {"nominal": 1e3 * REF_NOMINAL_S, "samples": len(times),
                "mean": 1e3 * statistics.fmean(times) if times else None}

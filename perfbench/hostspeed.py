"""Wall time corrected for the host's changing speed.

On a shared host one core's speed changes with other tenants' load. On a
2-vCPU cloud VM (Intel Xeon, 2.1 GHz) consecutive runs of train_ref took
from 19 to 31 seconds, and the same code ran up to 1.6x slower for minutes
at a time. No statistic over one run's own timings removes that. So while a workload runs,
`SpeedProbe` interrupts it every PROBE_EVERY_S seconds (SIGALRM, handled
between bytecodes in the main thread) to time a fixed reference kernel of
small numpy calls, the same kind of work charqa does. Each stretch of
workload time between two probes is scaled by NOMINAL_PROBE_S over the
local probe time (the median of the four nearest probes), and probe time
itself is left out. The result, "steady seconds", is the time the work
would take on this host when the reference kernel runs at its nominal
speed. The benchmark code, kernel included, is the same for every commit it
compares, so the scale cancels in any comparison. In a traced run the spans
are timed on a clock that stops while a probe runs (`exclude`).
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PROBE_EVERY_S = 0.25
NOMINAL_PROBE_S = 1.5e-3
_PROBE_INPUT = np.random.default_rng(0).standard_normal((8, 32))


def reference_kernel() -> float:
    s = 0.0
    for _ in range(150):
        b = _PROBE_INPUT @ _PROBE_INPUT.T
        s += float(np.mean(np.exp(b * 0.01)))
    return s


class SpeedProbe:
    """Context manager: probes the host's speed while the block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._old_handler = None

    def probe(self, *_):
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.probe()
        return False

    def exclude(self, t: np.ndarray) -> np.ndarray:
        """Map perf_counter times to a clock that stops while a probe runs."""
        if not self.starts:
            return t
        d = np.asarray(self.ends) - np.asarray(self.starts)
        spent = np.cumsum(d)
        knots = np.column_stack([self.starts, self.ends]).ravel()
        before = np.column_stack([spent - d, spent]).ravel()
        return t - np.interp(t, knots, before)

    def _local(self, k: int) -> float:
        """Median duration of the four probes nearest to gap k (between
        probe k-1 and probe k)."""
        lo, hi = max(0, k - 2), min(len(self.starts), k + 2)
        return float(np.median([self.ends[i] - self.starts[i] for i in range(lo, hi)]))

    def steady_seconds(self, t0: float, t1: float) -> float:
        """Workload time in [t0, t1], probes left out, each stretch scaled to
        the nominal probe speed."""
        if not self.starts:
            return t1 - t0
        total = 0.0
        k = bisect.bisect_right(self.starts, t0)  # first probe starting after t0
        cursor = t0
        if k > 0 and self.ends[k - 1] > t0:  # t0 falls inside probe k-1
            cursor = self.ends[k - 1]
        while cursor < t1:
            stop = min(self.starts[k], t1) if k < len(self.starts) else t1
            if stop > cursor:
                total += (stop - cursor) * NOMINAL_PROBE_S / self._local(k)
            if k >= len(self.starts) or self.starts[k] >= t1:
                break
            cursor = self.ends[k]
            k += 1
        return total

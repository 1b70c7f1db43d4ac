"""Host-speed correction for timings taken on a shared machine.

On a host whose CPUs are shared with other tenants, the same code can run
at half speed for seconds at a time, so wall times spread more from run to
run than any change worth measuring. ``SpeedProbe`` samples the host's
speed while the program runs: every ``PERIOD_S`` a timer signal interrupts
the program between bytecodes and times ``kernel``, a fixed mix of
interpreter work and small numpy calls like the program's own. A corrected
time is the program's wall time with the probes taken out, scaled at each
moment by how much slower the kernel ran than ``REF_KERNEL_S``: seconds of
work at the reference speed. On an unloaded host it is close to the wall
time.

    with SpeedProbe() as probe:
        t0 = probe.clock()
        work()
        seconds = probe.corrected(t0, probe.clock())
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# the kernel's time on this project's reference host, unloaded (2-CPU VM,
# Python 3.11, numpy 2.4); a corrected time is in seconds at this speed
REF_KERNEL_S = 1.0e-3

_MATRIX = np.random.default_rng(0).random((40, 40))


def kernel() -> float:
    """A fixed amount of dict, str and int work and small numpy calls."""
    counts, total = {}, 0
    for i in range(2000):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        total += len(str(k))
    x = float(total)
    for _ in range(20):
        x += float((_MATRIX @ _MATRIX).sum()) + float(np.exp(_MATRIX[0]).sum())
    return x


class SpeedProbe:
    """Times ``kernel`` every ``period`` seconds of wall time while
    installed. ``clock`` is ``perf_counter`` less the time spent in probes;
    ``samples`` holds ``(clock at the probe, kernel seconds)``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._saved = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def factor(self, start: float, end: float) -> float:
        """Mean of ``REF_KERNEL_S / kernel seconds`` over the probes between
        two readings of ``clock``; the last earlier probe if none fell
        between, and 1 before the first probe."""
        within = [d for t, d in self.samples if start <= t <= end]
        if not within:
            earlier = [d for t, d in self.samples if t <= end]
            within = earlier[-1:] or [REF_KERNEL_S]
        return statistics.fmean(REF_KERNEL_S / d for d in within)

    def corrected(self, start: float, end: float) -> float:
        """Seconds at the reference speed between two readings of ``clock``:
        the mean over probes of the reference-to-measured speed ratio times
        the elapsed time, which weights each moment by its own speed."""
        return (end - start) * self.factor(start, end)

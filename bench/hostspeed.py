"""Host-speed sampling, to scale measured times to a fixed reference speed.

On a shared virtual machine the host slows whole stretches of a run, by up to
a third for tens of seconds, and no estimator over one run's repeats removes
that.  So the benchmark times a fixed probe task alongside the program and
reports seconds at the speed where the probe takes PROBE_REFERENCE_S: a time t
measured while the probe took p is reported as t * PROBE_REFERENCE_S / p.
The probe is stdlib Fraction and dict work, like spflag's inner loops, and no
change to spflag can change it.  It runs inside the measured process, where
it tracks the host's speed best, so a large heap in that process also slows
it a little (see bench/README.md).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 0.00035  # the probe's median time on the machine the figures in README.md come from


def probe() -> float:
    """Seconds taken by a fixed task in the style of spflag's inner loops."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        seen[(i % 17, i)] = acc
    return time.perf_counter() - start


def probe_median(count: int = 25) -> float:
    return statistics.median(probe() for _ in range(count))


class HostSpeed:
    """Times `probe` every PROBE_INTERVAL_S from a SIGALRM handler while
    active, so that samples also fall inside long operations.

    `spent` is the time taken by the handler, for callers to subtract from
    what they measure.  Worker processes forked meanwhile do not inherit the
    timer.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, probe seconds)
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to reference seconds."""
        inside = [p for t, p in self.samples if start <= t <= end]
        return PROBE_REFERENCE_S / statistics.median(inside or [probe_median()])

"""Host-speed normalisation of the end-to-end timings.

The shared machines this benchmark runs on change speed by up to 2x, for
seconds and for minutes at a time, and process CPU time moves with wall
time.  Medians inside one run cannot remove a slow minute, so two sets of
runs of the same code disagreed by more than the bound.

``HostSpeed`` measures the host while the program runs: a SIGALRM timer
runs a fixed probe (dict work over integers, fractions and complex floats,
and a few small numpy eigensolves: the kinds of work the package does)
every ``INTERVAL`` seconds, in the same thread as the program.  An op's
time is then

    (wall time - probe time inside it) x REFERENCE_PROBE_S / probe time

where the probe time is the mean, without its top and bottom tenth, of
the probes inside the op and in the ``LOOKBACK`` seconds before it.  (A
slow stretch slows an op by its average over the op, so a mean follows it
better than a median: it halved the spread left in repeated ops.)  That is the op's time at the host speed at
which the probe takes ``REFERENCE_PROBE_S`` (about its median on the
2-vCPU host the baseline was measured on); a slower program reads slower,
a slower host does not.  The probe does not touch the package, so no
program change moves it.

Set-up runs in fresh interpreters, so there the timer is off and a burst
of probes runs in this process before and after each interpreter instead.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

INTERVAL = 0.2          # seconds between probes (the probe takes about 2% of the time)
LOOKBACK = 1.0          # probes this long before an op also describe it
MIN_PROBES = 3
REFERENCE_PROBE_S = 4.0e-3


def probe() -> None:
    """Fixed work: dict updates with integer, rational and complex values, small eigensolves."""
    d: dict = {}
    for i in range(1000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + k * k % 13
    e: dict = {}
    for i in range(1, 150):
        k = (i % 13, i % 7)
        e[k] = e.get(k, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    sum(complex(i, 1) * complex(1, i) for i in range(200))
    for _ in range(5):
        np.polynomial.legendre.leggauss(8)


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.mean(values[cut:len(values) - cut])


class WallClock:
    """Plain wall time: what the traced run uses."""

    def seconds(self, t0: float, t1: float) -> float:
        return t1 - t0


class HostSpeed:
    """Wall time scaled to the reference host speed by the probes around it."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def burst(self, n: int) -> list[float]:
        """Times of ``n`` probes run now, back to back (the timer must be stopped)."""
        for _ in range(n):
            self._sample(None, None)
        return self.durations[-n:]

    def speed_factor(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the probe time around [t0, t1]."""
        near = [d for s, d in zip(self.starts, self.durations) if t0 - LOOKBACK <= s <= t1]
        if len(near) < MIN_PROBES:
            near = self.durations[-MIN_PROBES:]
        return REFERENCE_PROBE_S / trimmed_mean(near)

    def seconds(self, t0: float, t1: float) -> float:
        """The op's time at reference speed."""
        wall = t1 - t0 - sum(d for s, d in zip(self.starts, self.durations) if t0 <= s <= t1)
        return wall * self.speed_factor(t0, t1)

    @property
    def probes(self) -> int:
        return len(self.durations)

    def median_probe(self) -> float:
        return statistics.median(self.durations)

"""Timer probes that measure how fast the host runs while a workload runs.

The host this benchmark was built on shares its cores with other tenants: a
vCPU runs at full speed or about 1.8x slower, and it switches between the two
every few seconds. A repeat of several seconds spends a varying share of its
time slowed, so the wall times of identical repeats differed by up to 1.7x.

A probe is a fixed loop of about 0.1 ms, run from a SIGALRM handler every
``PERIOD_S`` seconds of the workload process. How long it takes says how fast
the CPU runs at that moment. ``corrected`` cuts a timed interval at the
probes and divides each slice by the mean slowdown the probes at its two
ends saw, relative to ``FAST_PROBE_S``. The result is the interval's length
at the development host's uncontended speed, with the probes' own time left
out. The probe uses nothing from the package, so no change to the package
can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.025
# A probe's time on the development host (2-vCPU Xeon, Python 3.11) at full
# speed: the fastest probe of a 30-second run read 0.0927 to 0.0949 ms.
FAST_PROBE_S = 0.0935e-3


class _Running:
    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0.0
        self.mean = 0.0
        self.m2 = 0.0


def _probe(state: _Running) -> None:
    """Update a running mean and variance 400 times: slotted attributes and float math."""
    carry = 0.0
    for i in range(400):
        value = math.sin(i * 0.01) + carry
        state.n += 1.0
        delta = value - state.mean
        state.mean += delta / state.n
        state.m2 += delta * (value - state.mean)
        carry = state.mean * 1e-9


class Probes:
    """Runs a probe every ``PERIOD_S`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, seconds) of each probe
        self._state = _Running()

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe(self._state)
        self.marks.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def corrected(start: float, end: float, marks) -> float:
    """Seconds of ``[start, end]`` at the speed where a probe takes ``FAST_PROBE_S``.

    ``marks`` are one process's probes in time order. A probe's reading is
    the median of it and its two neighbours, so an interrupt that lands in
    one probe does not count as a slow phase. Each slice between two probes
    takes the mean reading of the two; a slice at either end of the interval
    takes the reading of the probe nearest to it.
    """
    if not marks:
        return end - start
    seconds = [took for _, took in marks]
    smooth = [statistics.median(seconds[max(0, i - 1):i + 2]) for i in range(len(seconds))]
    inside = [i for i, (at, took) in enumerate(marks) if start <= at and at + took <= end]
    if not inside:
        nearest = min(range(len(marks)), key=lambda i: abs(marks[i][0] - start))
        return (end - start) * FAST_PROBE_S / smooth[nearest]
    first, last = inside[0], inside[-1]
    total = (marks[first][0] - start) * FAST_PROBE_S / smooth[first]
    for i in inside[:-1]:
        slowdown = (smooth[i] + smooth[i + 1]) / (2.0 * FAST_PROBE_S)
        total += (marks[i + 1][0] - marks[i][0] - marks[i][1]) / slowdown
    return total + (end - marks[last][0] - marks[last][1]) * FAST_PROBE_S / smooth[last]

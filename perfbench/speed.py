"""Host-speed normalisation of timed work on a shared host.

The benchmark runs on a few vCPUs of a shared cloud host whose speed drifts
by up to ~1.6x as co-tenants come and go, on a scale of seconds to
minutes.  The slowdown shows in CPU time as much as in wall time, so
neither clock gives steady figures, and a whole run can fall into a slow
spell.  :class:`SpeedGauge` samples the speed while the timed work runs:
an interval timer (``SIGALRM`` every :data:`TICK_S`) interrupts the work,
and the handler times :func:`kernel`, a fixed pure-Python loop, in CPU
time of its thread.  That clock slows with the host but not when the
kernel waits for a CPU its own pool workers hold.  Each
stretch of work between two ticks is rescaled by how much slower than
:data:`REFERENCE_KERNEL_S` the kernels around it ran (the median of the
:data:`WINDOW` nearest, so that one interrupted kernel does not count);
the kernels' own time is left out.  The sum is the work's duration at
reference speed, which on a 2-vCPU VM in its fast state reads about the
raw wall time.  On that VM a pure-Python kernel tracked the workloads'
slowdown better than a small numpy one: within one run, rollout passes
whose raw walls ranged over 1.00-1.48 s were rescaled to within +-5% of
each other.  Across ten 30-s runs per workload, the median rescaled pass
spread by 1-3% (quartile distance over median), where the fastest raw
pass had spread by 8-43%.

Python runs the handler between bytecodes, so a tick that falls inside a
long C call is handled when the call returns; the stretch before it is
then longer, and still counted in full.  Forked children inherit the
handler but not the timer.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: Interval between two speed samples.
TICK_S = 0.025
#: Loop length of :func:`kernel` (~0.35 ms, 1.4% of a tick).
KERNEL_ITERATIONS = 6000
#: Time of :func:`kernel` at reference speed: the fast state of a 2-vCPU
#: cloud VM (Python 3.11).
REFERENCE_KERNEL_S = 350e-6
#: Kernels whose median rates one stretch of work: three before it and
#: three after it.
WINDOW = 6


def kernel() -> int:
    """The fixed calibration loop."""
    total = 0
    for index in range(KERNEL_ITERATIONS):
        total += index * index
    return total


class SpeedGauge:
    """Times work at reference speed; ``with gauge:`` around the work."""

    def __init__(self) -> None:
        self.segments: List[float] = []
        self.kernels: List[float] = []
        self._last = 0.0
        self._previous = None
        self._running = False

    def start(self) -> None:
        self.segments, self.kernels = [], []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """End the work with one last sample; does nothing if not running."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._running = False
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedGauge":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _tick(self, *_signal) -> None:
        started = time.perf_counter()
        self.segments.append(started - self._last)
        cpu_started = time.thread_time()
        kernel()
        self.kernels.append(time.thread_time() - cpu_started)
        self._last = time.perf_counter()

    @property
    def raw_s(self) -> float:
        """Wall time of the work itself, without the kernels."""
        return sum(self.segments)

    @property
    def reference_s(self) -> float:
        """Duration of the work at reference speed."""
        half = WINDOW // 2
        total = 0.0
        for index, segment in enumerate(self.segments):
            # Stretch ``index`` lies between kernels ``index - 1`` and ``index``.
            window = sorted(self.kernels[max(0, index - half) : index + half])
            total += segment * REFERENCE_KERNEL_S / window[len(window) // 2]
        return total

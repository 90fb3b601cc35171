"""Periodic progress heartbeat for long sweep runs.

A :class:`Heartbeat` is fed once per settled job by the sweep engine and
emits at most one progress line per ``interval_s`` seconds::

    [sweep] 132/1440 jobs (96 cached) 4.1 jobs/s eta 5m19s

The rate is computed over jobs settled since the heartbeat started (cache
hits count — they are real progress through the sweep), and the ETA
extrapolates that rate over the remaining jobs, so a re-run that serves 90%
of its jobs from the cache instantly reports a correspondingly short ETA.
``interval_s=0`` emits on every update (useful in tests).  Lines go to
stderr unless ``emit`` says otherwise, and every emitted line is also kept in
``lines``, which is how tests observe the cadence.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, List, Optional


def _format_eta(seconds: float) -> str:
    # Negative, NaN and infinite remainders all render as unknown rather
    # than crashing int(round(inf)) or printing "nan".
    if not math.isfinite(seconds) or seconds < 0:
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class Heartbeat:
    """Rate-limited progress reporting over a fixed job total."""

    def __init__(
        self,
        total_jobs: int,
        interval_s: float = 5.0,
        label: str = "sweep",
        emit: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if total_jobs < 0:
            raise ValueError(f"total_jobs must be non-negative, got {total_jobs}")
        if interval_s < 0:
            raise ValueError(f"interval_s must be non-negative, got {interval_s}")
        self.total_jobs = total_jobs
        self.interval_s = interval_s
        self.label = label
        self._emit = emit if emit is not None else self._emit_stderr
        self._clock = clock
        self._started = clock()
        # Quiet for the first interval: a sweep that finishes quickly should
        # produce no heartbeat at all (interval 0 emits on every update).
        self._last_emit: Optional[float] = self._started if interval_s > 0 else None
        self.lines: List[str] = []

    @staticmethod
    def _emit_stderr(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def format_line(self, done: int, cache_hits: int) -> str:
        # Zero-elapsed (first update on a coarse clock) and zero-rate (no jobs
        # settled yet) intervals must never leak inf/nan or divide by zero
        # into the progress line: rate degrades to 0 and the ETA to "?".
        elapsed = self._clock() - self._started
        rate = done / elapsed if elapsed > 0 else 0.0
        if not math.isfinite(rate):
            rate = 0.0
        remaining = self.total_jobs - done
        eta = _format_eta(remaining / rate) if rate > 0 else "?"
        detail = f" ({cache_hits} cached)" if cache_hits else ""
        return (
            f"[{self.label}] {done}/{self.total_jobs} jobs{detail} "
            f"{rate:.1f} jobs/s eta {eta}"
        )

    def update(self, done: int, cache_hits: int) -> Optional[str]:
        """Emit a progress line if the interval elapsed; returns the line or None."""
        now = self._clock()
        if self._last_emit is not None and now - self._last_emit < self.interval_s:
            return None
        line = self.format_line(done, cache_hits)
        self._last_emit = now
        self.lines.append(line)
        self._emit(line)
        return line

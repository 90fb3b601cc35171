"""JSONL progress journaling with checkpoint/resume.

Every journaled sweep run appends to one append-only JSON-lines file named
after the sweep's identity hash, so interrupted, re-started and *sharded*
runs of the same sweep all converge on the same journal:

``{"type": "sweep", ...}``
    Header written once per file: sweep name/hash, job count, code version.
``{"type": "result", "job": <hash>, "result": ..., "ts": ..., "duration_s": ...}``
    One record per completed job, written the moment the job finishes.
``{"type": "error", "job": <hash>, "error": ..., "ts": ..., "duration_s": ...}``
    A failed job; failures are re-attempted on the next run.

Result/error records carry a wall-clock timestamp (``ts``, seconds since the
epoch) and — when the engine measured one — the job's execution time on its
worker (``duration_s``, monotonic).  Both fields are additive: journals
written before they existed replay exactly as before (resume only reads
``job``/``result``), and old readers ignore the extra keys.  Records whose
result came from the result cache are tagged ``"source": "cache"`` so the
latency report can separate real executions from cache fills.

Resume is simply "replay the journal before executing": completed jobs are
reloaded from their records and skipped.  Records for jobs no longer in the
sweep (stale code) are ignored by virtue of content-hash addressing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.utils.serialization import PathLike, append_jsonl, append_jsonl_many, iter_jsonl
from repro.version import __version__, source_fingerprint

from repro.runtime.jobs import JobSpec, SweepSpec

#: Environment variable overriding the default journal directory.
JOURNAL_ENV_VAR = "REPRO_RUNTIME_JOURNAL"


def default_journal_dir() -> Path:
    override = os.environ.get(JOURNAL_ENV_VAR)
    if override:
        return Path(override)
    return Path.cwd() / ".repro_runtime" / "journals"


@dataclass
class JournalState:
    """Everything a resume needs: per-job results and errors keyed by hash.

    ``durations``/``job_ids``/``sources`` mirror the optional timing fields of
    newer journal records (absent entries mean the record predates them); they
    feed the ``status`` durations summary and the ``report`` latency table.
    """

    header: Optional[Dict[str, Any]] = None
    results: Dict[str, Any] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    durations: Dict[str, float] = field(default_factory=dict)
    job_ids: Dict[str, str] = field(default_factory=dict)
    sources: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class SweepStatus:
    """Progress summary of one sweep's journal (the CLI ``status`` view).

    The duration fields summarise the journal's per-record ``duration_s``
    values; they are ``None`` when the journal predates job timing (or nothing
    has executed yet), and the textual summary degrades gracefully then.
    """

    name: str
    sweep_hash: str
    total_jobs: int
    completed: int
    failed: int
    total_duration_s: Optional[float] = None
    slowest_job_s: Optional[float] = None
    slowest_job_id: Optional[str] = None

    @property
    def pending(self) -> int:
        return max(0, self.total_jobs - self.completed)

    @property
    def complete(self) -> bool:
        return self.total_jobs > 0 and self.completed >= self.total_jobs

    def describe(self) -> str:
        state = "complete" if self.complete else f"{self.pending} pending"
        failed = f", {self.failed} failed last attempt" if self.failed else ""
        line = f"{self.name}: {self.completed}/{self.total_jobs} jobs done ({state}{failed})"
        if self.total_duration_s is not None:
            line += f"; {self.total_duration_s:.2f}s job time"
            if self.slowest_job_s is not None:
                slowest = self.slowest_job_id or "?"
                line += f", slowest {slowest} at {self.slowest_job_s:.2f}s"
        return line


class Journal:
    """Append-only progress log for one sweep, with batched writes.

    Records accumulate in an in-memory buffer and are appended in one
    open/write once ``buffer_size`` records queue up or ``flush_interval_s``
    has elapsed since the last flush — on a fused sweep settling hundreds of
    jobs per second, per-record opens were a measurable engine cost.  The
    on-disk format is byte-identical to unbuffered appends (torn-line repair
    included), ``load``/``status`` flush first so readers never miss buffered
    records, and the engine flushes in a ``finally`` so an interrupt loses at
    most the final partial batch — the same exposure window the old
    one-record-per-write scheme had for the job in flight.
    ``buffer_size=1`` restores strict write-through.
    """

    def __init__(
        self,
        path: PathLike,
        buffer_size: int = 64,
        flush_interval_s: float = 0.5,
    ) -> None:
        self.path = Path(path)
        self.buffer_size = max(1, int(buffer_size))
        self.flush_interval_s = float(flush_interval_s)
        self._buffer: list = []
        self._last_flush = time.monotonic()

    @classmethod
    def for_sweep(
        cls,
        sweep: SweepSpec,
        directory: Optional[PathLike] = None,
        version: Optional[str] = None,
    ) -> "Journal":
        """The canonical journal for ``sweep`` under the current code.

        Like the result store, journals are namespaced by ``version``, by
        default the first 16 hex digits of the source fingerprint: results of
        other code are never resumed, even without a version bump.
        """
        base = Path(directory) if directory is not None else default_journal_dir()
        version = version if version is not None else source_fingerprint()[:16]
        return cls(base / f"{sweep.name}-{sweep.sweep_hash[:10]}-v{version}.jsonl")

    # ------------------------------------------------------------------ writing
    def _append(self, record: Dict[str, Any]) -> None:
        self._buffer.append(record)
        if (
            len(self._buffer) >= self.buffer_size
            or time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        """Write every buffered record now (one append, fsync-safe order)."""
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            append_jsonl_many(self.path, buffered)
        self._last_flush = time.monotonic()

    @property
    def pending_writes(self) -> int:
        return len(self._buffer)

    def record_header(self, sweep: SweepSpec) -> None:
        """Write the sweep header if this journal file is new.

        Headers flush immediately: the file's existence is the "a run touched
        this sweep" signal the status tools and this method itself rely on.
        """
        if self.path.exists():
            return
        append_jsonl(
            self.path,
            {
                "type": "sweep",
                "name": sweep.name,
                "sweep_hash": sweep.sweep_hash,
                "total_jobs": len(sweep),
                "version": __version__,
            },
        )

    def record_result(
        self,
        spec: JobSpec,
        result: Any,
        duration_s: Optional[float] = None,
        source: Optional[str] = None,
    ) -> None:
        record = {
            "type": "result",
            "job": spec.spec_hash,
            "job_id": spec.job_id,
            "result": result,
            "ts": time.time(),
        }
        if duration_s is not None:
            record["duration_s"] = float(duration_s)
        if source is not None:
            record["source"] = source
        self._append(record)

    def record_error(
        self, spec: JobSpec, error: str, duration_s: Optional[float] = None
    ) -> None:
        record = {
            "type": "error",
            "job": spec.spec_hash,
            "job_id": spec.job_id,
            "error": error,
            "ts": time.time(),
        }
        if duration_s is not None:
            record["duration_s"] = float(duration_s)
        self._append(record)

    # ------------------------------------------------------------------ reading
    def load(self) -> JournalState:
        """Replay the journal into a resumable state snapshot.

        A later success clears an earlier error for the same job and vice
        versa, so the snapshot reflects each job's *latest* outcome.
        """
        self.flush()
        state = JournalState()
        for record in iter_jsonl(self.path):
            kind = record.get("type")
            if kind == "sweep" and state.header is None:
                state.header = record
            elif kind == "result":
                digest = record["job"]
                state.results[digest] = record.get("result")
                state.errors.pop(digest, None)
                self._load_timing(state, digest, record)
            elif kind == "error":
                digest = record["job"]
                state.errors[digest] = str(record.get("error", ""))
                state.results.pop(digest, None)
                self._load_timing(state, digest, record)
        return state

    @staticmethod
    def _load_timing(state: JournalState, digest: str, record: Dict[str, Any]) -> None:
        """Fold one record's optional timing/provenance fields into the state."""
        if "job_id" in record:
            state.job_ids[digest] = str(record["job_id"])
        duration = record.get("duration_s")
        if duration is not None:
            state.durations[digest] = float(duration)
        else:
            state.durations.pop(digest, None)
        source = record.get("source")
        if source is not None:
            state.sources[digest] = str(source)
        else:
            state.sources.pop(digest, None)

    @staticmethod
    def _duration_summary(state: JournalState, hashes=None):
        """(total, slowest, slowest_job_id) over the journaled durations."""
        items = [
            (digest, duration)
            for digest, duration in state.durations.items()
            if hashes is None or digest in hashes
        ]
        if not items:
            return None, None, None
        slowest_digest, slowest = max(items, key=lambda item: item[1])
        total = sum(duration for _, duration in items)
        return total, slowest, state.job_ids.get(slowest_digest, slowest_digest[:12])

    def status(self, sweep: Optional[SweepSpec] = None) -> SweepStatus:
        """Progress against ``sweep`` (or against the journal's own header)."""
        state = self.load()
        if sweep is not None:
            hashes = {job.spec_hash for job in sweep.jobs}
            completed = sum(1 for digest in state.results if digest in hashes)
            failed = sum(1 for digest in state.errors if digest in hashes)
            total_s, slowest_s, slowest_id = self._duration_summary(state, hashes)
            return SweepStatus(
                name=sweep.name,
                sweep_hash=sweep.sweep_hash,
                total_jobs=len(sweep),
                completed=completed,
                failed=failed,
                total_duration_s=total_s,
                slowest_job_s=slowest_s,
                slowest_job_id=slowest_id,
            )
        header = state.header or {}
        total_s, slowest_s, slowest_id = self._duration_summary(state)
        return SweepStatus(
            name=str(header.get("name", self.path.stem)),
            sweep_hash=str(header.get("sweep_hash", "")),
            total_jobs=int(header.get("total_jobs", state.completed)),
            completed=state.completed,
            failed=len(state.errors),
            total_duration_s=total_s,
            slowest_job_s=slowest_s,
            slowest_job_id=slowest_id,
        )

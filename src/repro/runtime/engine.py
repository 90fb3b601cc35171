"""The sweep engine: cache -> executor orchestration, journaled.

:class:`SweepRunner` is the one entry point every consumer shares — the
refactored experiment generators (serial, no persistence), the CLI (parallel,
cached, journaled) and the benchmarks.  Each job of a sweep is either served
from the content-addressed result cache or executed on the configured
backend.  The cache is the only place results live: an interrupted, failed,
partial or sharded run resumes because its completed jobs are cache hits on
the next run.  Cache misses reach the backend as dispatch groups
(:func:`~repro.runtime.fusion.plan_fusion`): the sweep's own specs with
their sweep indices, so every result settles at its job's index, and a
fused group that fails re-runs its members as groups of one.

Fresh results are cached the moment they arrive, so an interrupt at any
point loses at most the jobs currently in flight.  The sweep's journal
records progress only (which jobs settled, how, and how long they took) for
``status`` and ``report``; the engine never reads it.  A job's result
depends only on its spec, so every run uses the cache, journal and ledger
the runner was configured with.

The engine is the merge point of the observability layer (:mod:`repro.obs`):
when metrics or tracing are enabled in the parent process it asks the
executor to capture a per-job delta, merges worker metrics snapshots into
the parent registry and worker spans into the parent tracer, wraps its own
phases (cache resolve, dispatch, per-job settle) in spans, and attaches the
merged registry snapshot to the returned :class:`SweepReport`.  Every
resolution decision is also routed through the ``repro.runtime.engine``
logger, and an optional :class:`~repro.obs.Heartbeat` emits a rate-limited
progress line as jobs settle.

When constructed with a :class:`~repro.obs.RunLedger`, the engine appends one
durable run record (metrics snapshot, span rollup, environment fingerprint,
provenance counts) at the end of every run — the cross-run
trajectory ``repro-runtime obs history/diff/check`` queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import Heartbeat, RunLedger, get_metrics, get_tracer, span
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.executor import DispatchGroup, Executor, SerialExecutor
from repro.runtime.fusion import DEFAULT_FUSION_WIDTH, plan_fusion
from repro.runtime.jobs import SweepSpec
from repro.runtime.journal import Journal
from repro.utils.logging import get_logger
from repro.utils.serialization import PathLike

logger = get_logger("runtime.engine")


class SweepExecutionError(RuntimeError):
    """Raised after a sweep finishes dispatching with one or more failed jobs."""

    def __init__(self, sweep: SweepSpec, failures: Sequence[Tuple[str, str]]) -> None:
        self.sweep = sweep
        self.failures = list(failures)
        summary = "; ".join(job_id for job_id, _ in self.failures[:5])
        super().__init__(
            f"sweep {sweep.name!r}: {len(self.failures)} of {len(sweep)} jobs failed "
            f"({summary}{', ...' if len(self.failures) > 5 else ''})\n"
            + "\n".join(error for _, error in self.failures[:3])
        )


@dataclass
class SweepReport:
    """Results plus provenance counters for one engine run."""

    sweep: SweepSpec
    results: List[Any]          #: one entry per job, in sweep order; None if not run (other shard)
    executed: int = 0           #: jobs computed fresh this run
    cache_hits: int = 0         #: jobs resolved from the result cache
    skipped: int = 0            #: jobs outside this run's shard
    fused_jobs: int = 0         #: executed jobs that rode a fused group
    fused_groups: int = 0       #: fused groups dispatched this run
    wall_time_s: float = 0.0
    journal_path: Optional[str] = None
    shard: Optional[Tuple[int, int]] = None
    #: Merged metrics snapshot (parent + per-job worker deltas); None unless
    #: metrics were enabled for the run.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        return self.skipped == 0

    def describe(self) -> str:
        shard = f" shard {self.shard[0]}/{self.shard[1]}" if self.shard else ""
        fused = (
            f" ({self.fused_jobs} fused into {self.fused_groups} groups)"
            if self.fused_groups
            else ""
        )
        return (
            f"{self.sweep.name}{shard}: {len(self.sweep)} jobs — "
            f"{self.executed} executed{fused}, {self.cache_hits} cache hits, "
            f"{self.skipped} skipped in {self.wall_time_s:.2f}s"
        )


def _parse_shard(shard: Optional[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    if shard is None:
        return None
    index, count = int(shard[0]), int(shard[1])
    return index, count


class SweepRunner:
    """Runs :class:`SweepSpec` values through cache, journal and executor."""

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        journal_dir: Optional[PathLike] = None,
        heartbeat_interval: Optional[float] = None,
        ledger: Optional["RunLedger"] = None,
        fusion_width: int = DEFAULT_FUSION_WIDTH,
    ) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.journal_dir = journal_dir
        self.heartbeat_interval = heartbeat_interval
        self.ledger = ledger
        self.fusion_width = fusion_width

    def run(
        self,
        sweep: SweepSpec,
        shard: Optional[Tuple[int, int]] = None,
    ) -> SweepReport:
        """Execute (the selected shard of) ``sweep`` and return a report.

        Raises :class:`SweepExecutionError` after the dispatch loop if any
        job failed; every job that *did* complete is cached first, so a
        follow-up run with the same cache recomputes only the failures.  The
        members of a failed fused group are re-run alone before that, so one
        bad job fails only itself.
        """
        started = time.perf_counter()
        metrics = get_metrics()
        tracer = get_tracer()
        observe = metrics.enabled or tracer is not None
        shard = _parse_shard(shard)
        report = SweepReport(sweep=sweep, results=[None] * len(sweep), shard=shard)
        if shard is not None:
            selected = set(sweep.shard_indices(*shard))
        else:
            selected = set(range(len(sweep)))
        report.skipped = len(sweep) - len(selected)
        heartbeat = None
        if self.heartbeat_interval is not None:
            heartbeat = Heartbeat(
                total_jobs=len(selected),
                interval_s=self.heartbeat_interval,
                label=sweep.name,
            )

        def pulse() -> None:
            if heartbeat is not None:
                heartbeat.update(report.cache_hits + report.executed, report.cache_hits)

        root = span("sweep.run", sweep=sweep.name, jobs=len(sweep))
        with root:
            journal = None
            if self.journal_dir is not None:
                journal = Journal.for_sweep(sweep, self.journal_dir)
                journal.record_header(sweep)
            cache = self.cache

            def settle(index: int, result: Any) -> None:
                report.results[index] = result

            def settle_ok(index: int, spec, payload: Any, duration_s) -> None:
                with span("job.settle", job=spec.job_id):
                    settle(index, payload)
                    report.executed += 1
                    if cache is not None:
                        cache.put(spec, payload)
                    if journal is not None:
                        journal.record_result(spec, duration_s=duration_s)
                if metrics.enabled:
                    metrics.counter("engine.jobs_executed").inc()
                    if duration_s is not None:
                        metrics.histogram("engine.job_duration_s").observe(duration_s)
                logger.debug(
                    "job %s: executed in %.3fs",
                    spec.job_id,
                    duration_s if duration_s is not None else -1.0,
                )

            def settle_error(spec, error: str, duration_s) -> None:
                failures.append((spec.job_id, error))
                if journal is not None:
                    journal.record_error(spec, error, duration_s=duration_s)
                if metrics.enabled:
                    metrics.counter("engine.jobs_failed").inc()
                logger.warning("job %s: failed\n%s", spec.job_id, error)

            failures: List[Tuple[str, str]] = []
            pending = []
            try:
                with span("engine.resolve", jobs=len(selected)) as resolve_span:
                    # One scan of the store's segments answers every probe;
                    # get() then runs only for hashes the snapshot holds.
                    cache_index: Set[str] = set()
                    if cache is not None:
                        with span("engine.cache_index"):
                            cache_index = cache.index()
                    for index in sorted(selected):
                        spec = sweep.jobs[index]
                        if cache is not None:
                            cached = (
                                cache.get(spec) if spec.spec_hash in cache_index else MISS
                            )
                            if cached is not MISS:
                                settle(index, cached)
                                report.cache_hits += 1
                                if journal is not None:
                                    journal.record_result(spec, source="cache")
                                logger.debug("job %s: result cache hit", spec.job_id)
                                pulse()
                                continue
                        pending.append((index, spec))
                    resolve_span.set_attribute("cache_hits", report.cache_hits)
                if metrics.enabled:
                    metrics.counter("engine.jobs_cache_hit").inc(report.cache_hits)

                # Fusion planning: every cache-miss job rides one dispatch
                # group, and each result settles at its member's sweep index.
                with span("engine.fuse_plan", jobs=len(pending)) as fuse_span:
                    groups = plan_fusion(pending, self.fusion_width)
                    fused = [group for group in groups if len(group.indices) > 1]
                    fused_jobs = sum(len(group.indices) for group in fused)
                    fuse_span.set_attribute("groups", len(fused))
                    fuse_span.set_attribute("fused_jobs", fused_jobs)
                if fused:
                    unfused = len(pending) - fused_jobs
                    if metrics.enabled:
                        metrics.counter("fusion.groups").inc(len(fused))
                        metrics.counter("fusion.fused_jobs").inc(fused_jobs)
                        metrics.counter("fusion.unfused_jobs").inc(unfused)
                    logger.info(
                        "fusion: %d groups of %d jobs, %d unfused", len(fused), fused_jobs, unfused
                    )

                # Members of a failed fused group, re-run alone after the
                # dispatch loop so that one bad job fails only itself.
                contained: List[DispatchGroup] = []

                def settle_event(indices: Tuple[int, ...], status: str, payload: Any, obs) -> None:
                    duration_s = obs.get("duration_s") if obs else None
                    if obs:
                        if metrics.enabled and obs.get("metrics") is not None:
                            metrics.merge(obs["metrics"])
                        if tracer is not None and obs.get("spans"):
                            tracer.absorb(obs["spans"])
                    if status == "ok":
                        if len(indices) > 1:
                            report.fused_groups += 1
                            report.fused_jobs += len(indices)
                        # The group measured one wall-clock duration; attribute
                        # an equal share to each member so per-job latency
                        # stays integrable.
                        share = duration_s / len(indices) if duration_s is not None else None
                        for index, result in zip(indices, payload):
                            settle_ok(index, sweep.jobs[index], result, share)
                    elif len(indices) > 1:
                        logger.warning(
                            "fused group failed; re-running its members alone\n%s", payload
                        )
                        contained.extend(DispatchGroup((i,), (sweep.jobs[i],)) for i in indices)
                    else:
                        settle_error(sweep.jobs[indices[0]], str(payload), duration_s)
                    pulse()

                with span(
                    "engine.dispatch", jobs=len(pending), backend=self.executor.name
                ):
                    for event in self.executor.submit(groups, observe):
                        settle_event(*event)
                    if contained:
                        for event in self.executor.submit(contained, observe):
                            settle_event(*event)
            finally:
                if journal is not None:
                    journal.flush()

            report.wall_time_s = time.perf_counter() - started
            if journal is not None:
                report.journal_path = str(journal.path)
            if metrics.enabled:
                report.metrics = metrics.snapshot()
            if self.ledger is not None:
                # Ledger writes are best-effort telemetry: a full disk or a
                # read-only checkout must not turn a finished sweep into a
                # failure.  Failed runs are recorded too (counts.failed > 0) —
                # a regression that also breaks jobs should not hide itself.
                with span("engine.ledger_write"):
                    try:
                        self.ledger.record_sweep(sweep, report, failures=len(failures))
                    except Exception:
                        logger.warning(
                            "run ledger write to %s failed", self.ledger.path, exc_info=True
                        )
            root.set_attribute("executed", report.executed)
            root.set_attribute("cache_hits", report.cache_hits)
            root.set_attribute("failed", len(failures))
        logger.info(report.describe())
        if failures:
            raise SweepExecutionError(sweep, failures)
        return report


def run_sweep(sweep: SweepSpec) -> List[Any]:
    """Convenience path for generators: run everything serially, results in order."""
    return SweepRunner().run(sweep).results

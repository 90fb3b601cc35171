"""The sweep engine: cache -> executor orchestration, journaled.

:class:`SweepRunner` is the one entry point every consumer shares — the
refactored experiment generators (serial, no persistence), the CLI (parallel,
cached, journaled) and the benchmarks.  Each job of a sweep is either served
from the content-addressed result cache or executed on the configured
backend.  The cache is the only place results live: an interrupted, failed,
partial or sharded run resumes because its completed jobs are cache hits on
the next run.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import Heartbeat, RunLedger, get_metrics, get_tracer, span
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.fusion import (
    DEFAULT_FUSION_WIDTH,
    FusedGroup,
    describe_plan,
    plan_fusion,
)
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
        heartbeat_emit: Optional[Callable[[str], None]] = None,
        ledger: Optional["RunLedger"] = None,
        fusion_width: int = DEFAULT_FUSION_WIDTH,
    ) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.journal_dir = journal_dir
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_emit = heartbeat_emit
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
        follow-up run with the same cache recomputes only the failures.
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
                emit=self.heartbeat_emit,
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
                            if metrics.enabled:
                                probe = "hit" if cached is not MISS else "miss"
                                metrics.counter(f"cache.probe.{probe}").inc()
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

                # Fusion planning: group cache-miss jobs that differ only
                # along a registered axis into synthetic engine.fused jobs.
                # Synthetic indices live past the end of the sweep so they can
                # never collide with real job indices.
                dispatch_items: List[Tuple[int, Any]] = pending
                groups_by_index: Dict[int, FusedGroup] = {}
                if len(pending) > 1:
                    with span("engine.fuse_plan", jobs=len(pending)) as fuse_span:
                        plan = plan_fusion(pending, self.fusion_width)
                        fuse_span.set_attribute("groups", len(plan.groups))
                        fuse_span.set_attribute("fused_jobs", plan.fused_job_count)
                    if plan.groups:
                        dispatch_items = list(plan.singles)
                        for offset, group in enumerate(plan.groups):
                            synthetic = len(sweep) + offset
                            groups_by_index[synthetic] = group
                            dispatch_items.append((synthetic, group.fused))
                        if metrics.enabled:
                            metrics.counter("fusion.groups").inc(len(plan.groups))
                            metrics.counter("fusion.fused_jobs").inc(plan.fused_job_count)
                            metrics.counter("fusion.unfused_jobs").inc(len(plan.singles))
                        logger.info("fusion: %s", describe_plan(plan))

                with span(
                    "engine.dispatch", jobs=len(pending), backend=self.executor.name
                ):
                    for index, status, payload, obs in self.executor.submit(
                        dispatch_items, observe
                    ):
                        duration_s = obs.get("duration_s") if obs else None
                        if obs:
                            if metrics.enabled and obs.get("metrics") is not None:
                                metrics.merge(obs["metrics"])
                            if tracer is not None and obs.get("spans"):
                                tracer.absorb(obs["spans"])
                        group = groups_by_index.get(index)
                        if group is not None:
                            if status == "ok" and (
                                not isinstance(payload, list)
                                or len(payload) != len(group.members)
                            ):
                                status = "error"
                                payload = (
                                    f"fused group returned "
                                    f"{len(payload) if isinstance(payload, list) else type(payload).__name__} "
                                    f"results for {len(group.members)} members"
                                )
                            if status == "ok":
                                report.fused_groups += 1
                                report.fused_jobs += len(group.members)
                                # The group measured one wall-clock duration;
                                # attribute an equal share to each member so
                                # per-job latency stays integrable.
                                member_duration = (
                                    duration_s / len(group.members)
                                    if duration_s is not None
                                    else None
                                )
                                for member_index, member_spec, member_result in zip(
                                    group.indices, group.members, payload
                                ):
                                    settle_ok(
                                        member_index,
                                        member_spec,
                                        member_result,
                                        member_duration,
                                    )
                            else:
                                for member_spec in group.members:
                                    settle_error(member_spec, str(payload), None)
                            pulse()
                            continue
                        spec = sweep.jobs[index]
                        if status == "ok":
                            settle_ok(index, spec, payload, duration_s)
                        else:
                            settle_error(spec, str(payload), duration_s)
                        pulse()
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

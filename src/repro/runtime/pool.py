"""``repro.runtime.pool`` — a persistent, warm worker pool.

:class:`MultiprocessExecutor` builds a fresh ``multiprocessing.Pool`` per
``submit``: every run pays process spawn, module import, world recompilation
and policy re-quantization from a cold start.  The warm pool spawns its
workers **once per parent process** and keeps them alive across
:meth:`SweepRunner.run` calls, so the per-process warm caches
(:mod:`repro.utils.warmcache`: compiled worlds, world metrics, quantized
policy states, loaded array backends) stay hot from one sweep to the next —
the substrate ROADMAP's always-on sweep service sits on.

Scheduling is dynamic pull, not static partition: the parent enqueues
pre-sized chunks (the :func:`repro.runtime.executor.plan_chunks` guided
schedule — large chunks first, shrinking to singletons) on one shared task
queue, and whichever worker is free next pulls the next chunk.  A fast
worker that exhausts its fair share keeps pulling — that surplus is counted
as *steals*, the work-stealing behaviour fixed ``chunksize`` dispatch lacks.

Every completed chunk carries the worker's :func:`warm_cache_stats`
snapshot, so the parent reports fleet-wide warm-cache hit rates without a
separate control round-trip.  Observability: ``pool.spawned_workers``,
``pool.chunks``, ``pool.steal_events``, ``pool.jobs`` counters, a
``pool.workers`` occupancy gauge, and a ``pool.submit`` span per run.

Worker failures surface, they do not hang: results are collected with a
liveness-checked timeout, and a dead worker with work outstanding shuts the
pool down and raises; the next :func:`get_pool` starts a fresh one.
Job-level exceptions were already converted to ``"error"`` events inside the
worker, so the only way a worker dies is an interpreter-level crash.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue as queue_mod
import threading
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import get_metrics, span
from repro.runtime.executor import (
    ExecutionEvent,
    Executor,
    IndexedJob,
    SerialExecutor,
    default_worker_count,
    run_chunk,
    split_chunks,
)
from repro.utils import warmcache

#: Seconds between liveness checks while waiting on results.  Long enough to
#: stay off the hot path, short enough that a crashed worker surfaces fast.
_LIVENESS_INTERVAL_S = 5.0


def _pool_worker_main(worker_id: int, tasks, results) -> None:
    """Worker loop: pull a chunk, run it, ship events + warm-cache stats."""
    while True:
        message = tasks.get()
        if message is None:
            break
        submission_id, chunk_id, chunk, observe = message
        try:
            events = run_chunk(chunk, observe)
            results.put(
                (
                    submission_id,
                    chunk_id,
                    worker_id,
                    events,
                    warmcache.warm_cache_stats(),
                )
            )
        except BaseException:  # noqa: BLE001 - last resort before worker death
            # run_chunk never raises; this guards pickling/queue failures so the
            # parent sees a structured loss instead of a silent hang.
            results.put((submission_id, chunk_id, worker_id, None, {}))
            raise


class PersistentWorkerPool:
    """Spawn-once process pool with one shared task queue (dynamic pull)."""

    def __init__(self) -> None:
        self._tasks = multiprocessing.Queue()
        self._results = multiprocessing.Queue()
        self._workers: List[multiprocessing.process.BaseProcess] = []
        self._lock = threading.Lock()
        self._submission_seq = 0
        self.spawned_total = 0
        self.warm_stats_by_worker: Dict[int, Dict[str, Dict[str, int]]] = {}
        self.last_chunk_workers: Dict[int, int] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def ensure_workers(self, count: int) -> int:
        """Grow the pool to ``count`` live workers; never shrinks.

        Returns how many new processes were spawned (0 on a warm re-run —
        the property the pool-reuse tests pin).
        """
        if count < 1:
            raise ConfigurationError(f"worker count must be >= 1, got {count}")
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool has been shut down")
            self._reap_dead()
            spawned = 0
            while len(self._workers) < count:
                worker_id = self.spawned_total
                process = multiprocessing.Process(
                    target=_pool_worker_main,
                    args=(worker_id, self._tasks, self._results),
                    name=f"repro-pool-{worker_id}",
                    daemon=True,
                )
                process.start()
                self._workers.append(process)
                self.spawned_total += 1
                spawned += 1
            return spawned

    def _reap_dead(self) -> None:
        self._workers = [p for p in self._workers if p.is_alive()]

    @property
    def size(self) -> int:
        return len(self._workers)

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for _ in workers:
            try:
                self._tasks.put(None)
            except (ValueError, OSError):
                break
        for process in workers:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()

    # -- execution -----------------------------------------------------------

    def run_chunks(
        self,
        chunks: Sequence[Sequence[IndexedJob]],
        observe: bool,
    ) -> Iterator[List[ExecutionEvent]]:
        """Dispatch ``chunks`` to whichever workers pull them first.

        Yields each chunk's event list as it completes (unordered) and
        updates :attr:`warm_stats_by_worker` / :attr:`last_chunk_workers`
        from the piggybacked per-worker snapshots.
        """
        with self._lock:
            self._submission_seq += 1
            submission_id = self._submission_seq
        self.last_chunk_workers = {}
        for chunk_id, chunk in enumerate(chunks):
            self._tasks.put((submission_id, chunk_id, list(chunk), observe))
        outstanding = len(chunks)
        while outstanding:
            try:
                record = self._results.get(timeout=_LIVENESS_INTERVAL_S)
            except queue_mod.Empty:
                with self._lock:
                    dead = [p for p in self._workers if not p.is_alive()]
                if dead:
                    # A worker killed while holding a queue lock leaves every
                    # live worker blocked on that queue: no later submission
                    # could complete on these queues, so retire the pool.
                    names = ", ".join(p.name for p in dead)
                    self.shutdown()
                    raise RuntimeError(
                        f"worker pool lost processes with work outstanding: {names}"
                    )
                continue
            rec_submission, chunk_id, worker_id, events, warm_stats = record
            if rec_submission != submission_id:
                # A chunk from an abandoned earlier submission (e.g. after an
                # engine error mid-iteration); drop it.
                continue
            if events is None:
                raise RuntimeError(
                    f"worker {worker_id} failed to return chunk {chunk_id}"
                )
            self.warm_stats_by_worker[worker_id] = warm_stats
            self.last_chunk_workers[chunk_id] = worker_id
            outstanding -= 1
            yield events

    def warm_stats(self) -> Dict[str, Dict[str, int]]:
        """Fleet-wide warm-cache totals (latest snapshot per worker)."""
        return warmcache.aggregate_stats(self.warm_stats_by_worker)


_GLOBAL_POOL: Optional[PersistentWorkerPool] = None
_GLOBAL_POOL_LOCK = threading.Lock()


def get_pool() -> PersistentWorkerPool:
    """The process-wide persistent pool, created on first use and after a shutdown."""
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        if _GLOBAL_POOL is None or _GLOBAL_POOL._closed:
            _GLOBAL_POOL = PersistentWorkerPool()
            atexit.register(_GLOBAL_POOL.shutdown)
        return _GLOBAL_POOL


def shutdown_pool() -> None:
    """Tear down the global pool (testing hook; next use respawns)."""
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        pool, _GLOBAL_POOL = _GLOBAL_POOL, None
    if pool is not None:
        pool.shutdown()


class WarmPoolExecutor(Executor):
    """Executor facade over the process-wide :class:`PersistentWorkerPool`.

    Interface-compatible with :class:`MultiprocessExecutor`; the differences
    are persistence (workers and their warm caches survive across ``submit``
    calls and across :class:`SweepRunner` instances) and dynamic pull
    scheduling with steal accounting.  ``last_stats`` holds the most recent
    submission's pool/steal/warm numbers for callers that want them without
    the obs registry (benchmark gates, tests).
    """

    name = "warm-pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_worker_count()
        self.last_stats: Dict[str, object] = {}

    def submit(
        self, items: Sequence[IndexedJob], observe: bool = False
    ) -> Iterator[ExecutionEvent]:
        items = list(items)
        if not items:
            return
        if self.workers == 1 or len(items) == 1:
            yield from SerialExecutor().submit(items, observe)
            return
        pool = get_pool()
        spawned = pool.ensure_workers(self.workers)
        chunks = split_chunks(items, self.workers)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("pool.spawned_workers").inc(spawned)
            metrics.counter("pool.chunks").inc(len(chunks))
            metrics.counter("pool.jobs").inc(len(items))
            metrics.gauge("pool.workers").set(pool.size)
        jobs_done = 0
        with span("pool.submit", jobs=len(items), chunks=len(chunks), workers=pool.size):
            for events in pool.run_chunks(chunks, observe):
                jobs_done += len(events)
                yield from events
        steals = self._count_steals(pool.last_chunk_workers, pool.size)
        if metrics.enabled:
            metrics.counter("pool.steal_events").inc(steals)
        self.last_stats = {
            "workers": pool.size,
            "spawned": spawned,
            "spawned_total": pool.spawned_total,
            "chunks": len(chunks),
            "jobs": jobs_done,
            "steal_events": steals,
            "warm": pool.warm_stats(),
        }

    @staticmethod
    def _count_steals(chunk_workers: Dict[int, int], pool_size: int) -> int:
        """Chunks a worker pulled beyond its fair share of the submission."""
        if not chunk_workers or pool_size < 1:
            return 0
        per_worker: Dict[int, int] = {}
        for worker_id in chunk_workers.values():
            per_worker[worker_id] = per_worker.get(worker_id, 0) + 1
        fair = -(-len(chunk_workers) // pool_size)  # ceil division
        return sum(max(0, count - fair) for count in per_worker.values())

    def warm_stats(self) -> Dict[str, Dict[str, int]]:
        return dict(self.last_stats.get("warm", {}))  # type: ignore[arg-type]


__all__ = [
    "PersistentWorkerPool",
    "WarmPoolExecutor",
    "get_pool",
    "shutdown_pool",
]

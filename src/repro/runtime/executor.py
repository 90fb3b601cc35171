"""Worker-pool execution backends.

Every backend implements one interface — :meth:`Executor.submit` takes
:class:`DispatchGroup` values (as :func:`repro.runtime.fusion.plan_fusion`
forms them), runs each through one :func:`~repro.runtime.jobs.run_group`
call and yields one ``(indices, status, payload, obs)`` event per group as
groups finish (possibly out of submission order) — so the engine above them
is oblivious to *where* jobs run:

* :class:`SerialExecutor` runs groups inline, in order.  It is the default
  for direct experiment-generator calls.
* :class:`MultiprocessExecutor` fans groups out over a ``multiprocessing``
  pool with chunked dispatch; each chunk runs through :func:`run_chunk`, the
  same loop the warm pool's workers use.

Failures never tear down the pool mid-sweep: a runner exception is caught in
the worker and reported as an ``"error"`` status so the engine can journal
every completed job before raising.

Every event's ``obs`` element is the group's observation delta from
:class:`repro.obs.observe_job`: always the measured ``duration_s``, plus —
when ``submit`` is called with ``observe=True`` — the metrics snapshot and
span records the group produced while it ran.  The delta is plain JSON-able
data, so it crosses the process boundary exactly like the results do, and
the engine merges it into the parent registry/tracer regardless of which
backend executed the group.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import traceback
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import observe_job
from repro.runtime.jobs import JobSpec, run_group


class DispatchGroup(NamedTuple):
    """The unit of dispatch: sweep indices and their own specs, in sweep order.

    The members of a fused group share one runner call; any other job is a
    group of one.
    """

    indices: Tuple[int, ...]
    specs: Tuple[JobSpec, ...]


#: (the group's indices, "ok" | "error", results or error message, observation delta)
ExecutionEvent = Tuple[Tuple[int, ...], str, object, dict]


def _execute(group: DispatchGroup, observe: bool) -> ExecutionEvent:
    head = group.specs[0]
    watch = observe_job(head.job_id, head.kind, capture=observe)
    try:
        with watch:
            results = run_group(group.specs)
        return group.indices, "ok", results, watch.delta()
    except Exception:  # noqa: BLE001 - reported to the engine, re-raised there
        return group.indices, "error", traceback.format_exc(limit=8), watch.delta()


def run_chunk(chunk: Sequence[DispatchGroup], observe: bool) -> List[ExecutionEvent]:
    """Run one chunk of groups in order: the loop every worker process runs."""
    return [_execute(group, observe) for group in chunk]


class Executor:
    """Interface shared by all execution backends."""

    name = "abstract"

    def submit(
        self, groups: Sequence[DispatchGroup], observe: bool = False
    ) -> Iterator[ExecutionEvent]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run every group inline in the calling process."""

    name = "serial"

    def submit(
        self, groups: Sequence[DispatchGroup], observe: bool = False
    ) -> Iterator[ExecutionEvent]:
        for group in groups:
            yield _execute(group, observe)


def default_worker_count() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def plan_chunks(total: int, workers: int) -> List[int]:
    """Size-aware dynamic chunk plan: a list of chunk sizes summing to ``total``.

    The plan follows guided self-scheduling: each chunk takes
    ``remaining / (2 * workers)`` groups, so early chunks are large (low
    dispatch overhead while everyone is busy) and the tail shrinks to single
    groups (no worker left holding a fat chunk while the rest idle — the
    straggler tail of a fixed ``chunksize`` dispatch).
    """
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    sizes: List[int] = []
    remaining = total
    while remaining > 0:
        size = min(max(1, remaining // (2 * workers)), remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def split_chunks(
    groups: Sequence[DispatchGroup], workers: int
) -> List[List[DispatchGroup]]:
    """Partition ``groups`` (in order) according to :func:`plan_chunks`."""
    chunks: List[List[DispatchGroup]] = []
    cursor = 0
    for size in plan_chunks(len(groups), workers):
        chunks.append(list(groups[cursor : cursor + size]))
        cursor += size
    return chunks


class MultiprocessExecutor(Executor):
    """Fan groups out over a throwaway ``multiprocessing.Pool``.

    Chunks follow the :func:`plan_chunks` guided schedule and are pulled
    dynamically (``chunksize=1`` over pre-sized chunk lists), so a slow group
    late in the sweep does not strand its fixed-chunk neighbours behind it.
    Prefer :class:`repro.runtime.pool.WarmPoolExecutor` (what
    :func:`make_executor` returns) unless the workload specifically wants
    cold workers per run.
    """

    name = "multiprocess"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_worker_count()

    def submit(
        self, groups: Sequence[DispatchGroup], observe: bool = False
    ) -> Iterator[ExecutionEvent]:
        groups = list(groups)
        if not groups:
            return
        if self.workers == 1 or len(groups) == 1:
            # A one-worker pool would only add IPC overhead.
            yield from SerialExecutor().submit(groups, observe)
            return
        chunks = split_chunks(groups, self.workers)
        pool = multiprocessing.Pool(processes=min(self.workers, len(chunks)))
        try:
            run = functools.partial(run_chunk, observe=observe)
            for events in pool.imap_unordered(run, chunks, chunksize=1):
                yield from events
        finally:
            pool.terminate()
            pool.join()


def make_executor(workers: Optional[int] = None) -> Executor:
    """The conventional knob: ``None``/``0``/``1`` workers -> serial, else the
    persistent warm pool (spawn once, reuse across every subsequent run)."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    from repro.runtime.pool import WarmPoolExecutor  # lazy: avoids import cycle

    return WarmPoolExecutor(workers=workers)

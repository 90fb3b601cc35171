"""Sweep-level job fusion: run grid points that differ only along one axis
as a single batched call.

The paper's evaluation grids cross world × platform × policy with a BER (or
voltage) axis, and the expensive half of each job — world compilation,
geometry metrics, pipeline construction, policy training — does not depend on
that axis.  A kind opts in with ``@job_kind(name, fuse_along=(...))`` (see
:mod:`repro.runtime.jobs`); its one runner takes member :class:`JobSpec`s
that agree off the axis, in sweep order, computes the shared half once and
returns one result per member.

:func:`plan_fusion` partitions the engine's cache-miss jobs into dispatch
groups (:class:`~repro.runtime.executor.DispatchGroup`): the sweep's own
specs with their sweep indices, the unit every executor runs through one
:func:`~repro.runtime.jobs.run_group` call.  Any other job is a group of
one, so the fused and unfused paths are the same function, and the engine's
per-job cache entries and journal records are bitwise-identical either way.
A group is never cached or journaled — only its members are — and a failed
fused group re-runs its members alone, so one bad job fails only itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.executor import DispatchGroup
from repro.runtime.jobs import JobSpec, fusion_axis
from repro.utils.serialization import stable_hash

#: Default cap on members per fused group.  Wide enough to cover a full BER
#: axis (6 levels) or voltage axis (7 levels) in one group with room for
#: denser grids, narrow enough that one group cannot starve the pool.
DEFAULT_FUSION_WIDTH = 16


def fusion_key(spec: JobSpec, axis: Sequence[str]) -> str:
    """Content hash of every param of ``spec`` *off* the fusion ``axis``.

    Two jobs share a key iff they are of one kind and identical except along
    the axis — the precondition for sharing the axis-independent computation.
    """
    invariant = {k: v for k, v in spec.params.items() if k not in axis}
    return stable_hash({"kind": spec.kind, "invariant": invariant})


def plan_fusion(
    pending: Sequence[Tuple[int, JobSpec]],
    max_width: int = DEFAULT_FUSION_WIDTH,
) -> List[DispatchGroup]:
    """Partition cache-miss ``(index, spec)`` pairs into dispatch groups.

    Jobs sharing a fusion key form one group, split into ``max_width``
    chunks; every other job is a group of one, and ``max_width=1`` makes
    every group a group of one.  Deterministic: groups come in order of their
    first member, and members keep the order of ``pending``.
    """
    if max_width < 1:
        raise ConfigurationError(f"fusion width must be >= 1, got {max_width}")
    buckets: Dict[object, List[Tuple[int, JobSpec]]] = {}
    for index, spec in pending:
        axis = fusion_axis(spec.kind) if max_width > 1 else ()
        # A job that does not fuse keys on its own index: a bucket of one.
        buckets.setdefault(fusion_key(spec, axis) if axis else index, []).append(
            (index, spec)
        )
    groups = []
    for bucket in buckets.values():
        for start in range(0, len(bucket), max_width):
            indices, specs = zip(*bucket[start : start + max_width])
            groups.append(DispatchGroup(indices, specs))
    groups.sort(key=lambda group: group.indices[0])
    return groups


__all__ = [
    "DEFAULT_FUSION_WIDTH",
    "fusion_key",
    "plan_fusion",
]

"""Sweep-level job fusion: run grid points that differ only along one axis
as a single batched call.

The paper's evaluation grids cross world × platform × policy with a BER (or
voltage) axis, and the expensive half of each job — world compilation,
geometry metrics, pipeline construction, policy training — does not depend on
that axis.  PR 4's quantize-once/corrupt-per-map fault machinery was built to
share exactly that work *inside* one job; fusion extends the sharing *across*
jobs: the engine groups cache-miss jobs whose params are identical except
along their kind's fusion axis and dispatches each group as one synthetic
``engine.fused`` job.

A kind opts in with ``@job_kind(name, fuse_along=(...))`` (see
:mod:`repro.runtime.jobs`).  It then has one runner, which takes the member
:class:`JobSpec`s in sweep order, computes the shared half once and returns
one result per member.  A lone job of the kind runs as a group of one, so the
fused and unfused paths are the same function, and the engine's per-job cache
entries and journal records are bitwise-identical either way.  When a fused
group fails, the engine re-runs its members alone, so one bad job fails only
itself.

Fused jobs are ordinary :class:`JobSpec`s (kind ``engine.fused``, params =
inner kind + the member param dicts), so they flow through any executor,
hash deterministically, and reconstruct bit-for-bit in worker processes.
The fused spec itself is never cached or journaled — only its members are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, fusion_axis, job_kind, run_group
from repro.utils.serialization import stable_hash

FUSED_KIND = "engine.fused"

#: Default cap on members per fused job.  Wide enough to cover a full BER axis
#: (6 levels) or voltage axis (7 levels) in one group with room for denser
#: grids, narrow enough that one fused job cannot starve the pool.
DEFAULT_FUSION_WIDTH = 16


def fusion_key(spec: JobSpec, axis: Sequence[str]) -> str:
    """Content hash of every param of ``spec`` *off* the fusion ``axis``.

    Two jobs share a key iff they are of one kind and identical except along
    the axis — the precondition for sharing the axis-independent computation.
    """
    invariant = {k: v for k, v in spec.params.items() if k not in axis}
    return stable_hash({"kind": spec.kind, "invariant": invariant})


@dataclass(frozen=True)
class FusedGroup:
    """One planned fused dispatch: members in sweep order + the synthetic spec."""

    indices: Tuple[int, ...]
    members: Tuple[JobSpec, ...]
    fused: JobSpec


@dataclass
class FusionPlan:
    """Partition of the pending set into fused groups and leftover singles."""

    groups: List[FusedGroup] = field(default_factory=list)
    singles: List[Tuple[int, JobSpec]] = field(default_factory=list)

    @property
    def fused_job_count(self) -> int:
        return sum(len(group.indices) for group in self.groups)


def fused_spec(members: Sequence[JobSpec]) -> JobSpec:
    """The synthetic transport job for ``members`` (all of one fusable kind)."""
    kinds = {spec.kind for spec in members}
    if len(kinds) != 1:
        raise ConfigurationError(f"cannot fuse mixed kinds: {sorted(kinds)}")
    (inner_kind,) = kinds
    return JobSpec(
        kind=FUSED_KIND,
        params={
            "kind": inner_kind,
            "members": [dict(spec.params) for spec in members],
        },
    )


def plan_fusion(
    pending: Sequence[Tuple[int, JobSpec]],
    max_width: int = DEFAULT_FUSION_WIDTH,
) -> FusionPlan:
    """Group cache-miss jobs sharing a fusion key into fused dispatches.

    Deterministic: groups form in order of first appearance, members keep
    sweep order, and oversized groups split into ``max_width`` chunks.
    Groups of one member stay unfused — a fused wrapper would only add
    overhead without sharing anything.
    """
    if max_width < 1:
        raise ConfigurationError(f"fusion width must be >= 1, got {max_width}")
    plan = FusionPlan()
    buckets: Dict[str, List[Tuple[int, JobSpec]]] = {}
    for index, spec in pending:
        axis = fusion_axis(spec.kind) if max_width > 1 else ()
        if not axis:
            plan.singles.append((index, spec))
            continue
        buckets.setdefault(fusion_key(spec, axis), []).append((index, spec))
    for bucket in buckets.values():
        for start in range(0, len(bucket), max_width):
            chunk = bucket[start : start + max_width]
            if len(chunk) < 2:
                plan.singles.extend(chunk)
                continue
            indices = tuple(index for index, _ in chunk)
            members = tuple(spec for _, spec in chunk)
            plan.groups.append(
                FusedGroup(indices=indices, members=members, fused=fused_spec(members))
            )
    return plan


@job_kind(FUSED_KIND)
def _run_fused_group(spec: JobSpec) -> List[object]:
    """Execute one fused group: the inner kind's runner over every member."""
    from repro.obs import get_metrics

    inner_kind = str(spec.params["kind"])
    members = [JobSpec(kind=inner_kind, params=dict(p)) for p in spec.params["members"]]
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fusion.executed_groups").inc()
        metrics.counter("fusion.executed_members").inc(len(members))
    return run_group(inner_kind, members)


def describe_plan(plan: FusionPlan) -> str:
    """One-line human summary for logs/CLI."""
    widths = sorted((len(g.indices) for g in plan.groups), reverse=True)
    head = ",".join(str(w) for w in widths[:8])
    if len(widths) > 8:
        head += ",…"
    return (
        f"{len(plan.groups)} fused groups covering {plan.fused_job_count} jobs "
        f"(widths: {head or '-'}), {len(plan.singles)} unfused"
    )


__all__ = [
    "DEFAULT_FUSION_WIDTH",
    "FUSED_KIND",
    "FusedGroup",
    "FusionPlan",
    "describe_plan",
    "fused_spec",
    "fusion_key",
    "plan_fusion",
]

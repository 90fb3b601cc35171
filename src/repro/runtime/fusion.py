"""Sweep-level job fusion: run grid points that differ only along one axis
as a single batched call.

The paper's evaluation grids cross world × platform × policy with a BER (or
voltage) axis, and the expensive half of each job — world compilation,
geometry metrics, pipeline construction, policy training — does not depend on
that axis.  PR 4's quantize-once/corrupt-per-map fault machinery was built to
share exactly that work *inside* one job; fusion extends the sharing *across*
jobs: the engine groups cache-miss jobs whose params are identical except
along a registered fusion axis and dispatches each group as one synthetic
``engine.fused`` job.  The fused runner computes the shared half once and
emits one result per member, which the engine splits back into per-job cache
entries and journal records — bitwise-identical to the unfused path, because
the shared computation is pure and deterministic.

A kind opts in by registering a :class:`FusionRule`.  The rule names the
axis (the params allowed to vary) and supplies ``run_fused``, which receives
the member :class:`JobSpec`s **in sweep order** and must return one result
per member, in order, equal to what the unfused runner would have produced.

Fused jobs are ordinary :class:`JobSpec`s (kind ``engine.fused``, params =
inner kind + the member param dicts), so they flow through any executor,
hash deterministically, and reconstruct bit-for-bit in worker processes.
The fused spec itself is never cached or journaled — only its members are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, job_kind
from repro.utils.serialization import stable_hash

FUSED_KIND = "engine.fused"

#: Default cap on members per fused job.  Wide enough to cover a full BER axis
#: (6 levels) or voltage axis (7 levels) in one group with room for denser
#: grids, narrow enough that one fused job cannot starve the pool.
DEFAULT_FUSION_WIDTH = 16


@dataclass(frozen=True)
class FusionRule:
    """Declares that ``kind`` may be fused along ``axis``.

    ``run_fused(members)`` must return one result per member, in member
    order, with values identical to running each member unfused.
    """

    kind: str
    axis: Tuple[str, ...]
    run_fused: Callable[[Sequence[JobSpec]], List[object]]

    def fusion_key(self, spec: JobSpec) -> str:
        """Content hash of every param *off* the fusion axis.

        Two jobs share a key iff they are identical except along the axis —
        the precondition for sharing the axis-independent computation.
        """
        invariant = {k: v for k, v in spec.params.items() if k not in self.axis}
        return stable_hash({"kind": self.kind, "invariant": invariant})


_RULES: Dict[str, FusionRule] = {}


def register_fusion_rule(rule: FusionRule) -> FusionRule:
    """Register ``rule``; re-registration must be idempotent (same axis)."""
    existing = _RULES.get(rule.kind)
    if existing is not None and existing.axis != rule.axis:
        raise ConfigurationError(
            f"fusion rule for {rule.kind!r} already registered with axis "
            f"{existing.axis}, refusing to replace with {rule.axis}"
        )
    _RULES[rule.kind] = rule
    return rule


def fusion_rule_for(kind: str) -> Optional[FusionRule]:
    return _RULES.get(kind)


def fusable_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_RULES))


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
    buckets: "Dict[Tuple[str, str], List[Tuple[int, JobSpec]]]" = {}
    order: List[Tuple[str, str]] = []
    for index, spec in pending:
        rule = _RULES.get(spec.kind)
        if rule is None or max_width < 2:
            plan.singles.append((index, spec))
            continue
        key = (spec.kind, rule.fusion_key(spec))
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append((index, spec))
    for key in order:
        bucket = buckets[key]
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
def _run_fused(spec: JobSpec) -> List[object]:
    """Execute one fused group: shared work once, one result per member."""
    from repro.obs import get_metrics

    inner_kind = str(spec.params["kind"])
    rule = _RULES.get(inner_kind)
    if rule is None:
        raise ConfigurationError(
            f"no fusion rule registered for job kind {inner_kind!r}"
        )
    member_params = spec.params["members"]
    members = [JobSpec(kind=inner_kind, params=dict(p)) for p in member_params]
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fusion.executed_groups").inc()
        metrics.counter("fusion.executed_members").inc(len(members))
    results = rule.run_fused(members)
    if len(results) != len(members):
        raise RuntimeError(
            f"fused runner for {inner_kind!r} returned {len(results)} results "
            f"for {len(members)} members"
        )
    return list(results)


def member_specs(fused: JobSpec) -> List[JobSpec]:
    """Reconstruct the member specs of a fused job (hash-identical to the
    originals — JobSpec params are canonicalized on construction)."""
    inner_kind = str(fused.params["kind"])
    return [JobSpec(kind=inner_kind, params=dict(p)) for p in fused.params["members"]]


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
    "FusionRule",
    "describe_plan",
    "fusable_kinds",
    "fused_spec",
    "fusion_rule_for",
    "member_specs",
    "plan_fusion",
    "register_fusion_rule",
]

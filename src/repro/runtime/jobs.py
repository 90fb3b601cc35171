"""Declarative, hashable units of sweep work.

The runtime engine never receives callables or live model objects from the
experiments — it receives :class:`JobSpec` values: a registered *kind* string
plus a JSON-able parameter mapping.  That makes every job

* **hashable** — :attr:`JobSpec.spec_hash` is a stable SHA-256 over the
  canonical JSON encoding, usable as a content-addressed cache key,
* **seedable** — :attr:`JobSpec.seed` derives a deterministic per-job RNG seed
  from the same hash, so a job produces the same stream no matter which
  worker (or which shard of which run) executes it,
* **portable** — specs pickle cheaply across process boundaries, and the
  worker resolves the kind string back to a runner function on its side.

A :class:`SweepSpec` is an ordered collection of jobs ("evaluate pipeline P
over voltages V for scenario S", "roll out policy π for N episodes", ...)
with its own identity hash, which names journals and ties sharded runs of the
same sweep together.

Experiment modules register their job kinds with the :func:`job_kind`
decorator; :func:`run_job` dispatches a spec to its runner.  A runner sees
only its spec, so a job's result depends on nothing its hash does not cover:
that is what lets the engine cache, journal and ledger every run.

A kind registered with ``fuse_along`` (the params that may vary inside a
group, such as the BER axis) is *fusable*: its one runner takes a group of
specs that agree on every other param, in sweep order, and returns one
result per spec, so the axis-independent work runs once per group.
:func:`run_group` runs one dispatch group — the sweep's own specs, of one
kind, as :func:`repro.runtime.fusion.plan_fusion` forms them — under one
result-count check; :func:`run_job` is a group of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.serialization import canonical_json, stable_hash, to_jsonable


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One declarative unit of work: a registered kind plus JSON-able params."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("a job spec needs a non-empty kind")
        # Normalise params immediately so hashing/equality never depend on
        # input container types (tuples vs lists, numpy scalars vs floats).
        object.__setattr__(self, "params", to_jsonable(dict(self.params)))

    # ------------------------------------------------------------------ identity
    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params}

    @cached_property
    def spec_hash(self) -> str:
        """Stable content hash of this job (cache key)."""
        return stable_hash(self.canonical())

    @cached_property
    def seed(self) -> int:
        """Deterministic per-job seed derived from the spec hash."""
        return int(self.spec_hash[:16], 16) % (2**31 - 1)

    @property
    def job_id(self) -> str:
        return f"{self.kind}:{self.spec_hash[:12]}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self.kind == other.kind and canonical_json(self.params) == canonical_json(
            other.params
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.spec_hash))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobSpec({self.job_id})"


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """An ordered, named collection of jobs forming one sweep."""

    name: str
    jobs: Tuple[JobSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep spec needs a non-empty name")
        object.__setattr__(self, "jobs", tuple(self.jobs))

    @cached_property
    def sweep_hash(self) -> str:
        """Identity of the sweep: its name plus every job's content hash.

        Sharded and resumed runs of the same sweep share this hash, which is
        how they converge on one journal file.
        """
        return stable_hash({"name": self.name, "jobs": [job.spec_hash for job in self.jobs]})

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def shard_indices(self, shard_index: int, shard_count: int) -> Tuple[int, ...]:
        """The job indices belonging to shard ``shard_index`` of ``shard_count``."""
        if shard_count <= 0:
            raise ConfigurationError(f"shard count must be positive, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ConfigurationError(
                f"shard index must be in [0, {shard_count}), got {shard_index}"
            )
        return tuple(range(shard_index, len(self.jobs), shard_count))


# ---------------------------------------------------------------------- job kinds
#: A plain kind's runner maps one spec to one result; a fusable kind's runner
#: maps a group of specs to one result per spec, in order.
JobRunner = Callable[[Any], Any]


@dataclass(frozen=True)
class JobKind:
    """A registered kind: its runner and the params a fused group may vary."""

    runner: JobRunner
    fuse_along: Tuple[str, ...]


_JOB_KINDS: Dict[str, JobKind] = {}
_KINDS_LOADED = False


def job_kind(name: str, fuse_along: Sequence[str] = ()) -> Callable[[JobRunner], JobRunner]:
    """Register ``name`` as an executable job kind (module-level decorator).

    With ``fuse_along`` empty the runner takes one :class:`JobSpec`.  With
    it set the kind is fusable: the runner takes a list of specs that differ
    only in the ``fuse_along`` params, in sweep order, and returns one result
    per spec.  Re-registering the same runner with the same axis is a no-op.
    """
    axis = tuple(fuse_along)

    def decorator(runner: JobRunner) -> JobRunner:
        entry = JobKind(runner=runner, fuse_along=axis)
        existing = _JOB_KINDS.get(name)
        if existing is not None and existing != entry:
            raise ConfigurationError(f"job kind {name!r} is already registered")
        _JOB_KINDS[name] = entry
        return runner

    return decorator


def _ensure_kinds_loaded() -> None:
    """Import the sweep registry, which imports every kind-defining module.

    Worker processes started with the ``spawn`` method begin with an empty
    registry; the first :func:`run_group` call populates it.
    """
    global _KINDS_LOADED
    if _KINDS_LOADED:
        return
    import repro.runtime.registry  # noqa: F401  (registers job kinds on import)

    # Only marked loaded on success, so a failed import surfaces again on the
    # next call instead of degenerating into 'unknown job kind' errors.
    _KINDS_LOADED = True


def _lookup(kind: str) -> Optional[JobKind]:
    if kind not in _JOB_KINDS:
        _ensure_kinds_loaded()
    return _JOB_KINDS.get(kind)


def _registered(kind: str) -> JobKind:
    entry = _lookup(kind)
    if entry is None:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; registered kinds: {sorted(_JOB_KINDS)}"
        )
    return entry


def fusion_axis(kind: str) -> Tuple[str, ...]:
    """The params along which jobs of ``kind`` fuse; empty if they do not."""
    entry = _lookup(kind)
    return entry.fuse_along if entry is not None else ()


def registered_kinds() -> Tuple[str, ...]:
    _ensure_kinds_loaded()
    return tuple(sorted(_JOB_KINDS))


def run_group(specs: Sequence[JobSpec]) -> List[Any]:
    """Run one group of same-kind ``specs``; one JSON-able result per spec, in order.

    A fusable kind's runner takes the whole group in one call; any other
    kind only comes in groups of one.
    """
    if not specs:
        raise ConfigurationError("a job group needs at least one spec")
    kinds = {spec.kind for spec in specs}
    if len(kinds) != 1:
        raise ConfigurationError(f"cannot group mixed kinds: {sorted(kinds)}")
    kind = specs[0].kind
    entry = _registered(kind)
    if entry.fuse_along:
        results = list(entry.runner(list(specs)))
    elif len(specs) == 1:
        results = [entry.runner(specs[0])]
    else:
        raise ConfigurationError(f"job kind {kind!r} does not fuse")
    if len(results) != len(specs):
        raise RuntimeError(
            f"runner for {kind!r} returned {len(results)} results for {len(specs)} jobs"
        )
    return to_jsonable(results)


def run_job(spec: JobSpec) -> Any:
    """Execute one job and return its JSON-able result: a group of one."""
    return run_group([spec])[0]

"""World-family registry: compile a :class:`WorldSpec` into a validated world.

Families register a generator with the :func:`world_family` decorator; the
generator receives the spec's resolved parameters plus a deterministic RNG
derived from the spec hash and returns a :class:`GeneratedWorld` (obstacle
field + start + goal).  :func:`generate_world` drives the generator through
the solvability gate: every world handed out is in-bounds, keeps the start
and goal clear, and has a BFS-verified collision-free corridor between them —
retrying with fresh derived seeds until the guarantee holds.

Mirroring :mod:`repro.runtime.jobs`, the registry lazily imports
:mod:`repro.worlds.families` on first lookup so worker processes (and thin
importers like the navigation env) get every family without import-order
ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.envs.obstacles import ObstacleField
from repro.errors import ConfigurationError, EnvironmentError_
from repro.utils.warmcache import warm_cache
from repro.worlds.dynamic import DynamicObstacleField
from repro.worlds.spec import WorldSpec

#: Vehicle radius every generated world is validated (and solvable) for.
DEFAULT_VEHICLE_RADIUS_M = 0.25

#: Times (seconds) at which dynamic worlds must keep the corridor open;
#: spans the default episode horizon (max_steps=80 x 0.5 s = 40 s).
DYNAMIC_VALIDATION_TIMES_S: Tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0)


@dataclass(frozen=True)
class GeneratedWorld:
    """A compiled world: obstacle field plus its start/goal mission endpoints."""

    spec: WorldSpec
    field: ObstacleField
    start: np.ndarray
    goal: np.ndarray
    vehicle_radius: float = DEFAULT_VEHICLE_RADIUS_M

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", np.asarray(self.start, dtype=np.float64).reshape(2))
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=np.float64).reshape(2))

    @property
    def world_size(self) -> Tuple[float, float]:
        return self.field.world_size

    @property
    def is_dynamic(self) -> bool:
        return isinstance(self.field, DynamicObstacleField) and self.field.num_movers > 0

    def field_at(self, time_s: float) -> ObstacleField:
        """The field frozen at ``time_s`` (static fields are time-invariant)."""
        if isinstance(self.field, DynamicObstacleField):
            return self.field.at_time(time_s)
        return self.field


GeneratorFn = Callable[[WorldSpec, Dict[str, Any], np.random.Generator], GeneratedWorld]


@dataclass(frozen=True)
class WorldFamily:
    """One registered procedural family."""

    name: str
    description: str
    defaults: Mapping[str, Any]
    generate: GeneratorFn

    def resolve_params(self, spec: WorldSpec) -> Dict[str, Any]:
        """The family defaults overlaid with the spec's params (typos rejected)."""
        unknown = set(spec.params) - set(self.defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown {self.name!r} world params {sorted(unknown)}; "
                f"known: {sorted(self.defaults)}"
            )
        merged = dict(self.defaults)
        merged.update(spec.params)
        return merged


_FAMILIES: Dict[str, WorldFamily] = {}
_FAMILIES_LOADED = False


def world_family(
    name: str, description: str, defaults: Mapping[str, Any]
) -> Callable[[GeneratorFn], GeneratorFn]:
    """Register a world generator under ``name`` (module-level decorator)."""

    def decorator(generator: GeneratorFn) -> GeneratorFn:
        existing = _FAMILIES.get(name)
        if existing is not None and existing.generate is not generator:
            raise ConfigurationError(f"world family {name!r} is already registered")
        _FAMILIES[name] = WorldFamily(
            name=name, description=description, defaults=dict(defaults), generate=generator
        )
        return generator

    return decorator


def _ensure_families_loaded() -> None:
    global _FAMILIES_LOADED
    if _FAMILIES_LOADED:
        return
    import repro.worlds.families  # noqa: F401  (registers families on import)

    _FAMILIES_LOADED = True


def get_world_family(name: str) -> WorldFamily:
    family = _FAMILIES.get(name)
    if family is None:
        _ensure_families_loaded()
        family = _FAMILIES.get(name)
    if family is None:
        raise ConfigurationError(
            f"unknown world family {name!r}; registered: {', '.join(registered_families())}"
        )
    return family


def registered_families() -> Tuple[str, ...]:
    _ensure_families_loaded()
    return tuple(sorted(_FAMILIES))


# ---------------------------------------------------------------------- validation
def validate_world(
    world: GeneratedWorld,
    cell_size: float = 0.5,
    times_s: Sequence[float] = DYNAMIC_VALIDATION_TIMES_S,
) -> List[str]:
    """All the ways ``world`` breaks the generation contract (empty = valid)."""
    problems: List[str] = []
    field = world.field
    radius = world.vehicle_radius
    width, height = field.world_size
    for label, point in (("start", world.start), ("goal", world.goal)):
        if not field.in_bounds(point, margin=radius):
            problems.append(f"{label} {tuple(point)} outside the {width}x{height} world")
    if field.num_obstacles:
        beyond = (
            (field.centers[:, 0] - field.radii < -1e-9)
            | (field.centers[:, 0] + field.radii > width + 1e-9)
            | (field.centers[:, 1] - field.radii < -1e-9)
            | (field.centers[:, 1] + field.radii > height + 1e-9)
        )
        if beyond.any():
            problems.append(f"{int(beyond.sum())} obstacles extend outside the world bounds")
    check_times = list(times_s) if world.is_dynamic else [0.0]
    for time_s in check_times:
        snapshot = world.field_at(time_s)
        stamp = f" at t={time_s:g}s" if world.is_dynamic else ""
        if snapshot.collides(world.start, radius):
            problems.append(f"start position is blocked{stamp}")
        elif snapshot.collides(world.goal, radius):
            problems.append(f"goal position is blocked{stamp}")
        elif not snapshot.has_free_path(world.start, world.goal, radius, cell_size=cell_size):
            problems.append(f"no collision-free corridor from start to goal{stamp}")
    return problems


def world_rng(spec: WorldSpec, attempt: int = 0) -> np.random.Generator:
    """The deterministic generator stream for ``spec``'s ``attempt``-th draw."""
    entropy = int(spec.spec_hash[:16], 16)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(attempt,)))


def generate_world(spec: WorldSpec, max_attempts: int = 24) -> GeneratedWorld:
    """Compile ``spec`` into a validated, solvable world.

    Generation is retried with fresh derived seeds (all deterministic in the
    spec) until validation passes, so every world handed out honours the
    solvability guarantee.  The budget is generous because some families at
    tight presets (e.g. narrow-street urban mazes) occasionally need double-
    digit draws before the BFS corridor check passes — retries are cheap and
    fully deterministic, a failed budget is a hard error for the whole sweep
    cell.  Results are memoized per process — generated worlds are
    immutable, and sweep jobs that share a world (one per platform/policy/
    BER cell) regenerate it for free.
    """
    return warm_cache("worlds").get_or_build(
        (spec, max_attempts), lambda: _generate_world_uncached(spec, max_attempts)
    )


def _generate_world_uncached(spec: WorldSpec, max_attempts: int) -> GeneratedWorld:
    family = get_world_family(spec.family)
    params = family.resolve_params(spec)
    problems: List[str] = []
    for attempt in range(max_attempts):
        world = family.generate(spec, dict(params), world_rng(spec, attempt))
        problems = validate_world(world)
        if not problems:
            return world
    raise EnvironmentError_(
        f"could not generate a valid {spec.name} world in {max_attempts} attempts: "
        + "; ".join(problems)
    )

"""Procedural world generation: declarative specs compiled into solvable worlds.

``repro.worlds`` scales the evaluation beyond the paper's three fixed
obstacle densities: a seedable, hashable :class:`WorldSpec` names a
registered *family* (corridor, forest, urban, rooms, dynamic, uniform) plus
its parameters, and :func:`generate_world` compiles it into a validated
:class:`GeneratedWorld` whose start→goal corridor is BFS-guaranteed.  Specs
travel through :mod:`repro.runtime` job params, which is how the
``generalization`` sweep evaluates thousands of generated deployments with
caching, sharding and resume.  ``NavigationConfig(world_spec=...)`` puts one
generated world into a navigation environment: the env compiles it once, at
construction, and every episode (and every lane of a batched env) flies it.
"""

from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle
from repro.worlds.metrics import WorldMetrics, world_metrics
from repro.worlds.registry import (
    DEFAULT_VEHICLE_RADIUS_M,
    GeneratedWorld,
    WorldFamily,
    generate_world,
    get_world_family,
    registered_families,
    validate_world,
    world_family,
    world_rng,
)
from repro.worlds.render import ascii_map, render_world
from repro.worlds.spec import WorldSpec

__all__ = [
    "DEFAULT_VEHICLE_RADIUS_M",
    "DynamicObstacleField",
    "GeneratedWorld",
    "MovingObstacle",
    "WorldFamily",
    "WorldMetrics",
    "WorldSpec",
    "ascii_map",
    "generate_world",
    "get_world_family",
    "registered_families",
    "render_world",
    "validate_world",
    "world_family",
    "world_metrics",
    "world_rng",
]

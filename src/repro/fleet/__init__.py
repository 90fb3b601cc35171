"""City-scale fleet simulation over one shared airspace.

The fleet layer advances N vehicles in lockstep over a single obstacle
field, static or :class:`~repro.worlds.dynamic.DynamicObstacleField`,
reusing the batched geometry stack end to end: steering through the
time-parameterised ray queries (every vehicle senses at the fleet clock in
one call), motion checks through :meth:`~repro.envs.obstacles.ObstacleField.
segments_collide_timed`, and inter-vehicle conflict detection on the
vectorised segment-distance path behind a spatial-hash prescreen — no
O(N²) all-pairs work at N=1000+.

Monte-Carlo fleet reliability aggregates through streaming Welford moments
(:class:`~repro.fleet.stats.StreamingMoments`), so arbitrarily many episodes
cost O(1) memory; the ``fleet-reliability`` sweep exposes fleet success /
conflict / energy vs supply voltage through the runtime registry.
"""

from repro.fleet.conflicts import (
    all_pairs,
    candidate_conflict_pairs,
    conflicting_pairs,
    detect_conflicts,
)
from repro.fleet.sim import FleetConfig, FleetResult, FleetSim, run_fleet_episodes
from repro.fleet.stats import StreamingMoments

__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetSim",
    "StreamingMoments",
    "all_pairs",
    "candidate_conflict_pairs",
    "conflicting_pairs",
    "detect_conflicts",
    "run_fleet_episodes",
]

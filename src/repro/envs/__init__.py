"""Autonomous-navigation environments (Air Learning / AirSim substitute).

The paper's task is point-to-point UAV navigation: start at a fixed location,
reach a goal without colliding with obstacles, in the shortest time.  The
original infrastructure renders photorealistic worlds with Unreal Engine and
simulates vehicle dynamics with AirSim; this package provides a deterministic
2-D continuous-world substitute with the same RL problem structure:

* a 25-action perception-based action space (heading change x speed),
* ray-cast depth / egocentric occupancy observations,
* sparse / medium / dense obstacle environments (Fig. 5),
* episodic success (goal reached) / failure (collision or timeout) semantics,
* path-length bookkeeping so corrupted policies show up as detours.
"""

from repro.envs.spaces import Box, Discrete
from repro.envs.obstacles import ObstacleField, ObstacleDensity, generate_obstacles
from repro.envs.sensors import RaySensor, OccupancyImager
from repro.envs.navigation import NavigationConfig, NavigationEnv, StepResult
from repro.envs.vector import BatchPolicy, EpisodeResult, run_episode
from repro.envs.batch import (
    BatchedNavigationEnv,
    BatchStepResult,
    LaneEpisodeFeed,
    run_batched_episodes,
)

__all__ = [
    "Box",
    "Discrete",
    "ObstacleField",
    "ObstacleDensity",
    "generate_obstacles",
    "RaySensor",
    "OccupancyImager",
    "NavigationConfig",
    "NavigationEnv",
    "StepResult",
    "BatchPolicy",
    "EpisodeResult",
    "run_episode",
    "BatchedNavigationEnv",
    "BatchStepResult",
    "LaneEpisodeFeed",
    "run_batched_episodes",
]

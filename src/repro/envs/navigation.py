"""Point-to-point UAV navigation environment.

The task follows Sec. V-A of the paper: the UAV starts at a fixed location and
must reach a goal position in the shortest time without colliding with
obstacles.  The action space is the paper's 25-action perception-based space,
factored as 5 heading changes x 5 speed levels; observations are either a
vector of depth rays plus goal features (fast MLP profile) or an egocentric
occupancy image (convolutional C3F2/C5F4 profile).

Episodes terminate on goal arrival (success), collision (failure) or timeout
(failure).  The environment tracks the flown path length so that corrupted
policies manifest as the path detours the paper's flight-time model builds on.

An environment flies one world, compiled at construction: the generated
world of ``config.world_spec``, or a uniform-density field drawn from one
integer seed off the construction RNG stream.  A reset re-samples only the
episode's start position (``start_position_noise_m``) from the env stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnvironmentError_
from repro.envs.obstacles import (
    ObstacleDensity,
    ObstacleField,
    generate_obstacles,
    planar_distances,
)
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.envs.spaces import Box, Discrete
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # repro.worlds imports this module's package; resolve lazily
    from repro.worlds.spec import WorldSpec


@dataclass(frozen=True)
class NavigationConfig:
    """Full configuration of a navigation scenario."""

    world_size: Tuple[float, float] = (20.0, 20.0)
    density: ObstacleDensity = ObstacleDensity.MEDIUM
    #: When set, the world (obstacles, bounds, start, goal) is compiled from
    #: this procedural :class:`~repro.worlds.spec.WorldSpec` instead of the
    #: uniform ``density`` field; ``world_size``/``start``/``goal`` above are
    #: then ignored in favour of the generated world's geometry.
    world_spec: Optional["WorldSpec"] = None
    start: Tuple[float, float] = (2.0, 10.0)
    goal: Tuple[float, float] = (18.0, 10.0)
    goal_radius_m: float = 1.0
    vehicle_radius_m: float = 0.25
    max_speed_m_s: float = 2.0
    step_duration_s: float = 0.5
    max_steps: int = 80
    num_heading_actions: int = 5
    num_speed_actions: int = 5
    max_heading_change_rad: float = math.radians(75.0)
    observation: str = "vector"  # "vector" or "image"
    ray_sensor: RaySensor = field(default_factory=RaySensor)
    imager: OccupancyImager = field(default_factory=OccupancyImager)
    #: Uniform noise (metres) added to the start position at every reset; gives
    #: episode diversity on an otherwise fixed world (and makes evaluation an
    #: average over trajectories rather than a single deterministic rollout).
    start_position_noise_m: float = 0.0
    # Reward shaping
    goal_reward: float = 10.0
    collision_penalty: float = -10.0
    step_penalty: float = -0.05
    progress_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.observation not in ("vector", "image"):
            raise ConfigurationError(f"observation must be 'vector' or 'image', got {self.observation!r}")
        if self.num_heading_actions < 1 or self.num_speed_actions < 1:
            raise ConfigurationError("action factorisation must have at least one option per axis")
        if self.max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {self.max_steps}")
        if self.max_speed_m_s <= 0 or self.step_duration_s <= 0:
            raise ConfigurationError("max_speed_m_s and step_duration_s must be positive")
        if self.goal_radius_m <= 0 or self.vehicle_radius_m < 0:
            raise ConfigurationError("goal_radius_m must be positive and vehicle_radius_m non-negative")
        if self.start_position_noise_m < 0:
            raise ConfigurationError("start_position_noise_m must be non-negative")

    @property
    def num_actions(self) -> int:
        return self.num_heading_actions * self.num_speed_actions


@dataclass
class StepResult:
    """Outcome of one environment step (Gym-style 5-tuple as a named object)."""

    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: Dict[str, float]


def sample_start_position(
    snapshot: ObstacleField,
    start: np.ndarray,
    noise_m: float,
    vehicle_radius: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One episode's start position: the fixed start plus optional uniform noise.

    The batched environment replays it draw for draw, so a lane's RNG
    consumption (and therefore every downstream draw) matches the serial
    environment's.
    """
    if noise_m <= 0.0:
        return start.copy()
    for _ in range(32):
        candidate = start + rng.uniform(-noise_m, noise_m, size=2)
        if not snapshot.collides(candidate, vehicle_radius):
            return candidate
    return start.copy()


class NavigationEnv:
    """Deterministic 2-D navigation environment with a Gym-like API."""

    def __init__(self, config: NavigationConfig = NavigationConfig(), rng: SeedLike = 0) -> None:
        self.config = config
        self._rng = as_generator(rng)
        self.action_space = Discrete(config.num_actions)
        if config.world_spec is not None:
            from repro.worlds.registry import generate_world

            world = generate_world(config.world_spec)
            self._field = world.field
            self._start, self._goal = world.start.copy(), world.goal.copy()
            self._world_size = world.world_size
        else:
            self._world_size = config.world_size
            self._start = np.array(config.start, dtype=np.float64)
            self._goal = np.array(config.goal, dtype=np.float64)
            width, height = config.world_size
            for name, point in (("start", self._start), ("goal", self._goal)):
                if not (0 < point[0] < width and 0 < point[1] < height):
                    raise ConfigurationError(f"{name} position {tuple(point)} outside the world {config.world_size}")
            # The field takes one integer seed off the env stream, however
            # much randomness its rejection sampling uses, so every later
            # draw is the same whatever the density.
            self._field = generate_obstacles(
                self._world_size,
                config.density,
                self._start,
                self._goal,
                rng=int(self._rng.integers(0, 2**31 - 1)),
                vehicle_radius=config.vehicle_radius_m,
            )
        self._heading_options = np.linspace(
            -config.max_heading_change_rad, config.max_heading_change_rad, config.num_heading_actions
        )
        self._speed_options = np.linspace(0.2, 1.0, config.num_speed_actions)
        if config.num_speed_actions == 1:
            self._speed_options = np.array([1.0])
        self.observation_space = self._build_observation_space()
        # Episode state
        self._position = self._start.copy()
        self._heading = 0.0
        self._steps = 0
        self._time_s = 0.0
        self._path_length = 0.0
        self._done = True

    # ------------------------------------------------------------------ setup helpers
    @property
    def _field_is_dynamic(self) -> bool:
        """True when the active field carries moving obstacles (duck-typed to
        avoid importing repro.worlds at module load)."""
        return getattr(self._field, "num_movers", 0) > 0

    def _field_now(self) -> ObstacleField:
        """The active field frozen at the episode's current time."""
        if self._field_is_dynamic:
            return self._field.at_time(self._time_s)
        return self._field

    def _build_observation_space(self) -> Box:
        if self.config.observation == "image":
            return Box(0.0, 1.0, self.config.imager.shape)
        num_features = self.config.ray_sensor.num_rays + 4
        return Box(-1.0, 1.0, (num_features,))

    @property
    def obstacle_field(self) -> ObstacleField:
        return self._field

    @property
    def world_size(self) -> Tuple[float, float]:
        """The active world's bounds (the generated world's when a spec is set)."""
        return self._world_size

    @property
    def time_s(self) -> float:
        """Episode time in seconds (drives dynamic worlds' moving obstacles)."""
        return self._time_s

    @property
    def goal(self) -> np.ndarray:
        return self._goal.copy()

    @property
    def position(self) -> np.ndarray:
        return self._position.copy()

    @property
    def path_length_m(self) -> float:
        return self._path_length

    # ------------------------------------------------------------------ action decoding
    def decode_action(self, action: int) -> Tuple[float, float]:
        """Return (heading change in rad, speed fraction) for a discrete action index."""
        if not self.action_space.contains(action):
            raise EnvironmentError_(f"invalid action {action!r} for a {self.action_space.n}-action space")
        heading_index, speed_index = divmod(int(action), self.config.num_speed_actions)
        return float(self._heading_options[heading_index]), float(self._speed_options[speed_index])

    # ------------------------------------------------------------------ gym API
    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        """Start a new episode and return the initial observation."""
        if seed is not None:
            self._rng = as_generator(seed)
        self._steps = 0
        self._time_s = 0.0
        self._position = self._sample_start()
        goal_vector = self._goal - self._position
        self._heading = float(np.arctan2(goal_vector[1], goal_vector[0]))
        self._path_length = 0.0
        self._done = False
        return self._observe()

    def _sample_start(self) -> np.ndarray:
        """The episode's start position (fixed start plus optional uniform noise)."""
        return sample_start_position(
            self._field_now(),
            self._start,
            self.config.start_position_noise_m,
            self.config.vehicle_radius_m,
            self._rng,
        )

    def step(self, action: int) -> StepResult:
        """Apply one discrete action and advance the episode."""
        if self._done:
            raise EnvironmentError_("step() called on a finished episode; call reset() first")
        heading_change, speed_fraction = self.decode_action(action)
        self._steps += 1
        previous_distance = float(planar_distances(self._goal - self._position))
        self._heading = self._wrap_angle(self._heading + heading_change)
        displacement = speed_fraction * self.config.max_speed_m_s * self.config.step_duration_s
        new_position = self._position + displacement * np.array(
            [math.cos(self._heading), math.sin(self._heading)]
        )

        step_end_time = self._time_s + self.config.step_duration_s
        if self._field_is_dynamic:
            collided = self._field.segment_collides_timed(
                self._position,
                new_position,
                self._time_s,
                step_end_time,
                self.config.vehicle_radius_m,
            )
        else:
            collided = self._field.segment_collides(
                self._position, new_position, self.config.vehicle_radius_m
            )
        self._time_s = step_end_time
        reward = self.config.step_penalty
        terminated = False
        success = False
        if collided:
            reward += self.config.collision_penalty
            terminated = True
        else:
            self._path_length += displacement
            self._position = new_position
            new_distance = float(planar_distances(self._goal - self._position))
            reward += self.config.progress_scale * (previous_distance - new_distance)
            if new_distance <= self.config.goal_radius_m:
                reward += self.config.goal_reward
                terminated = True
                success = True
        truncated = not terminated and self._steps >= self.config.max_steps
        self._done = terminated or truncated
        info = {
            "success": float(success),
            "collision": float(collided),
            "steps": float(self._steps),
            "path_length_m": self._path_length,
            "distance_to_goal_m": float(planar_distances(self._goal - self._position)),
        }
        return StepResult(self._observe(), float(reward), terminated, truncated, info)

    # ------------------------------------------------------------------ observations
    def _observe(self) -> np.ndarray:
        field_now = self._field_now()
        if self.config.observation == "image":
            return self.config.imager.render(field_now, self._position, self._heading, self._goal)
        rays = self.config.ray_sensor.sense(field_now, self._position, self._heading)
        goal_vector = self._goal - self._position
        goal_distance = float(planar_distances(goal_vector))
        goal_bearing = float(np.arctan2(goal_vector[1], goal_vector[0]) - self._heading)
        scale = float(np.linalg.norm(np.asarray(self._world_size)))
        features = np.array(
            [
                min(1.0, goal_distance / scale),
                math.sin(goal_bearing),
                math.cos(goal_bearing),
                self._heading / math.pi,
            ]
        )
        return np.concatenate([rays, features])

    @staticmethod
    def _wrap_angle(angle: float) -> float:
        return float((angle + math.pi) % (2.0 * math.pi) - math.pi)

    def __repr__(self) -> str:
        world_spec = self.config.world_spec
        world = world_spec.name if world_spec is not None else self.config.density.value
        return (
            f"NavigationEnv(world={world}, size={self._world_size}, "
            f"obstacles={self._field.num_obstacles}, actions={self.action_space.n})"
        )

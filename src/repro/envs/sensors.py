"""Onboard perception models: ray-cast depth sensor and egocentric occupancy image.

The paper's policies consume a depth-camera-like observation ("perception-based
action space").  Two observation front-ends are provided:

* :class:`RaySensor` — a 1-D array of normalized depth readings over a forward
  arc, used by the MLP policies of the fast profile.
* :class:`OccupancyImager` — an egocentric multi-channel image (obstacle
  occupancy, goal direction and goal distance channels) sized to feed the
  convolutional C3F2/C5F4 policies.

Each front-end has a scalar form (``sense``/``render``) for one vehicle on a
field frozen in time, and a batched form (``sense_many``/``render_many``)
that takes one clock per vehicle and answers through the field's timed
queries.  The field decides whether time matters: a static field ignores the
clocks, a :class:`~repro.worlds.dynamic.DynamicObstacleField` places its
movers at each vehicle's own time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.envs.obstacles import ObstacleField, planar_distances, row_times


@dataclass(frozen=True)
class RaySensor:
    """Forward-facing depth rays in the vehicle's heading frame."""

    num_rays: int = 12
    field_of_view_rad: float = np.pi
    max_range_m: float = 6.0
    step_m: float = 0.1

    def __post_init__(self) -> None:
        if self.num_rays < 2:
            raise ConfigurationError(f"num_rays must be at least 2, got {self.num_rays}")
        if not 0 < self.field_of_view_rad <= 2 * np.pi:
            raise ConfigurationError(
                f"field of view must be in (0, 2*pi], got {self.field_of_view_rad}"
            )
        if self.max_range_m <= 0 or self.step_m <= 0:
            raise ConfigurationError("max_range_m and step_m must be positive")

    @property
    def ray_angles(self) -> np.ndarray:
        """Ray angles relative to the heading, from -FOV/2 to +FOV/2."""
        half = self.field_of_view_rad / 2.0
        return np.linspace(-half, half, self.num_rays)

    def sense(self, field: ObstacleField, position: np.ndarray, heading: float) -> np.ndarray:
        """Normalized depth readings in [0, 1] (1 = free space out to max range).

        All rays go through one batched
        :meth:`~repro.envs.obstacles.ObstacleField.ray_distances` query: each
        reads the first ``step_m`` march sample that hits an obstacle or
        leaves the world, found by casting the ray against the circles
        rather than testing every sample.
        """
        distances = field.ray_distances(
            position, heading + self.ray_angles, self.max_range_m, self.step_m
        )
        return distances / self.max_range_m

    def sense_many(
        self,
        field: ObstacleField,
        positions: np.ndarray,
        headings: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        """Depth readings for many vehicles in one query, each at its own clock.

        ``positions`` is ``(N, 2)``, ``headings`` and ``times_s`` ``(N,)``;
        row ``i`` of the ``(N, num_rays)`` result is bit-identical to
        ``sense(snapshot, positions[i], headings[i])``, where ``snapshot`` is
        the field frozen at ``times_s[i]`` (a static field is its own
        snapshot).
        """
        headings = np.asarray(headings, dtype=np.float64).reshape(-1)
        angles = headings[:, None] + self.ray_angles[None, :]
        distances = field.ray_distances_many_timed(
            positions, angles, times_s, self.max_range_m, self.step_m
        )
        return distances / self.max_range_m


@dataclass(frozen=True)
class OccupancyImager:
    """Egocentric occupancy + goal-encoding image for convolutional policies.

    Channel 0: obstacle occupancy of the window ahead of the vehicle (1 = blocked).
    Channel 1: goal bearing encoded as ``cos`` of the relative angle (constant map).
    Channel 2: normalized goal distance (constant map, clipped to [0, 1]).
    """

    image_size: int = 20
    window_m: float = 8.0
    goal_distance_scale_m: float = 20.0

    def __post_init__(self) -> None:
        if self.image_size < 4:
            raise ConfigurationError(f"image_size must be at least 4, got {self.image_size}")
        if self.window_m <= 0 or self.goal_distance_scale_m <= 0:
            raise ConfigurationError("window_m and goal_distance_scale_m must be positive")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (3, self.image_size, self.image_size)

    def render(
        self,
        field: ObstacleField,
        position: np.ndarray,
        heading: float,
        goal: np.ndarray,
    ) -> np.ndarray:
        """Render the egocentric observation image (C, H, W) in [0, 1]."""
        size = self.image_size
        image = np.zeros(self.shape, dtype=np.float64)
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        # Sample a grid in the vehicle frame: x forward [0, window], y lateral [-w/2, w/2].
        forward = (np.arange(size) + 0.5) / size * self.window_m
        lateral = ((np.arange(size) + 0.5) / size - 0.5) * self.window_m
        fwd_grid, lat_grid = np.meshgrid(forward, lateral, indexing="ij")
        world_x = position[0] + fwd_grid * cos_h - lat_grid * sin_h
        world_y = position[1] + fwd_grid * sin_h + lat_grid * cos_h
        points = np.stack([world_x.ravel(), world_y.ravel()], axis=1)
        image[0] = field.collides_many(points).reshape(size, size).astype(np.float64)
        goal_vector = np.asarray(goal, dtype=np.float64) - np.asarray(position, dtype=np.float64)
        goal_distance = float(planar_distances(goal_vector))
        goal_bearing = float(np.arctan2(goal_vector[1], goal_vector[0]) - heading)
        image[1, :, :] = 0.5 * (1.0 + np.cos(goal_bearing))
        image[2, :, :] = min(1.0, goal_distance / self.goal_distance_scale_m)
        return image

    def render_many(
        self,
        field: ObstacleField,
        positions: np.ndarray,
        headings: np.ndarray,
        goals: np.ndarray,
        times_s: np.ndarray,
    ) -> np.ndarray:
        """Egocentric images for many vehicles via one occupancy query.

        ``positions``/``goals`` are ``(N, 2)``, ``headings`` and ``times_s``
        ``(N,)``, one row per vehicle; slice ``i`` of the ``(N, C, H, W)``
        result is bit-identical to ``render(snapshot, positions[i],
        headings[i], goals[i])``, where ``snapshot`` is the field frozen at
        ``times_s[i]`` (a static field is its own snapshot).
        """
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        goals = np.asarray(goals, dtype=np.float64).reshape(-1, 2)
        headings = np.asarray(headings, dtype=np.float64).reshape(-1)
        count = positions.shape[0]
        if headings.size != count or goals.shape[0] != count:
            raise ConfigurationError(
                f"got {headings.size} headings and {goals.shape[0]} goals "
                f"for {count} positions"
            )
        times = row_times(times_s, count, "positions")
        size = self.image_size
        images = np.zeros((count,) + self.shape, dtype=np.float64)
        cos_h, sin_h = np.cos(headings), np.sin(headings)
        forward = (np.arange(size) + 0.5) / size * self.window_m
        lateral = ((np.arange(size) + 0.5) / size - 0.5) * self.window_m
        fwd_grid, lat_grid = np.meshgrid(forward, lateral, indexing="ij")
        world_x = (
            positions[:, 0, None, None]
            + fwd_grid[None, :, :] * cos_h[:, None, None]
            - lat_grid[None, :, :] * sin_h[:, None, None]
        )
        world_y = (
            positions[:, 1, None, None]
            + fwd_grid[None, :, :] * sin_h[:, None, None]
            + lat_grid[None, :, :] * cos_h[:, None, None]
        )
        points = np.stack([world_x.ravel(), world_y.ravel()], axis=1)
        point_times = np.repeat(times, size * size)
        images[:, 0] = (
            field.collides_many_timed(points, point_times)
            .reshape(count, size, size)
            .astype(np.float64)
        )
        goal_vectors = goals - positions
        goal_distances = planar_distances(goal_vectors)
        goal_bearings = np.arctan2(goal_vectors[:, 1], goal_vectors[:, 0]) - headings
        images[:, 1] = (0.5 * (1.0 + np.cos(goal_bearings)))[:, None, None]
        images[:, 2] = np.minimum(1.0, goal_distances / self.goal_distance_scale_m)[
            :, None, None
        ]
        return images

"""Time-parameterised obstacle fields: moving obstacles swept along waypoints.

A :class:`DynamicObstacleField` extends the static
:class:`~repro.envs.obstacles.ObstacleField` with a set of
:class:`MovingObstacle` circles, each travelling at constant speed along a
closed waypoint loop.  It overrides the timed queries every field offers
(``collides_many_timed``, ``ray_distances_many_timed``,
``segments_collide_timed``) to place each mover at every row's own time, so
batched callers pass their row times without asking whether the field moves.
A segment is checked against where the movers are while the vehicle
traverses it.  :meth:`DynamicObstacleField.at_time` freezes the field at an
instant ``t`` into a plain static field; it is the reference the timed
queries are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.envs.obstacles import ObstacleField, circle_distances, row_times
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MovingObstacle:
    """A circular obstacle sweeping a closed waypoint loop at constant speed."""

    waypoints: np.ndarray  # (K, 2) vertices of the loop, K >= 2
    radius: float
    speed_m_s: float
    phase_m: float = 0.0  # starting offset along the loop, in metres

    def __post_init__(self) -> None:
        waypoints = np.asarray(self.waypoints, dtype=np.float64).reshape(-1, 2)
        object.__setattr__(self, "waypoints", waypoints)
        if waypoints.shape[0] < 2:
            raise ConfigurationError("a moving obstacle needs at least two waypoints")
        if self.radius <= 0:
            raise ConfigurationError(f"mover radius must be positive, got {self.radius}")
        if self.speed_m_s < 0:
            raise ConfigurationError(f"mover speed must be non-negative, got {self.speed_m_s}")

    @cached_property
    def _segment_lengths(self) -> np.ndarray:
        nxt = np.roll(self.waypoints, -1, axis=0)
        return np.linalg.norm(nxt - self.waypoints, axis=1)

    @cached_property
    def loop_length_m(self) -> float:
        return float(self._segment_lengths.sum())

    def positions_at(self, times_s: np.ndarray) -> np.ndarray:
        """Centre positions at many instants in one vectorized evaluation.

        Row ``i`` of the ``(T, 2)`` result is bit-identical to
        ``position_at(times_s[i])``: the per-segment arc-length subtraction
        chain of the scalar walk is replayed exactly, just over the whole
        time vector at once instead of one instant per call.
        """
        times = np.asarray(times_s, dtype=np.float64).reshape(-1)
        total = self.loop_length_m
        if total <= 0.0 or self.speed_m_s == 0.0:
            return np.broadcast_to(self.waypoints[0], (times.size, 2)).copy()
        arcs = (self.phase_m + self.speed_m_s * times) % total
        positions = np.empty((times.size, 2), dtype=np.float64)
        unresolved = np.ones(times.size, dtype=bool)
        num_segments = len(self._segment_lengths)
        for index, length in enumerate(self._segment_lengths):
            length = float(length)
            last = index == num_segments - 1
            take = unresolved & ((arcs <= length) | last) if not last else unresolved
            if take.any():
                if length == 0.0:
                    fractions = np.zeros(int(take.sum()), dtype=np.float64)
                else:
                    fractions = np.minimum(1.0, arcs[take] / length)
                start = self.waypoints[index]
                end = self.waypoints[(index + 1) % len(self.waypoints)]
                positions[take] = start + fractions[:, None] * (end - start)
                unresolved &= ~take
                if not unresolved.any():
                    break
            arcs = np.where(unresolved, arcs - length, arcs)
        return positions

    def position_at(self, time_s: float) -> np.ndarray:
        """Centre position at ``time_s`` (arc-length parameterised, looping)."""
        return self.positions_at(np.array([float(time_s)]))[0]


@dataclass(frozen=True)
class DynamicObstacleField(ObstacleField):
    """A static obstacle field plus moving obstacles, queryable at any time.

    The timed queries (:meth:`clearances_timed`, :meth:`collides_many_timed`,
    :meth:`ray_distances_many_timed`, :meth:`segments_collide_timed`) take a
    time per row and place every mover at that row's own time, so one batch
    can mix desynchronised lanes or vehicles.  Each row's answer is bitwise
    the one the plain static query gives on the :meth:`at_time` snapshot at
    that time (for a segment, at each sample's interpolated time); the
    snapshot path is kept as their reference.  Without movers each timed
    query is the static query.  The inherited static queries
    (``clearances``, ``ray_distances_many``, ...) see only the static
    circles.
    """

    movers: Tuple[MovingObstacle, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "movers", tuple(self.movers))

    @property
    def num_movers(self) -> int:
        return len(self.movers)

    @cached_property
    def _mover_radii(self) -> np.ndarray:
        return np.array([mover.radius for mover in self.movers], dtype=np.float64)

    def _mover_clearances(self, points: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest mover surface at its own time.

        ``points`` is ``(P, 2)`` and ``times_s`` ``(P,)`` — point ``i`` sees
        every mover placed at ``times_s[i]``.  The distances come from the
        same :func:`~repro.envs.obstacles.circle_distances` kernel as the
        static :meth:`~repro.envs.obstacles.ObstacleField.clearances`, so
        they are exactly the slice of the distance matrix the movers occupy
        in an :meth:`at_time` snapshot, and combining this with the static
        clearance via ``np.minimum`` reproduces the snapshot's clearance
        bitwise.
        """
        # (M, P, 2) mover centres at every point's instant.
        centers = np.stack([mover.positions_at(times_s) for mover in self.movers])
        distances = circle_distances(
            points[:, 0],
            points[:, 1],
            centers[:, :, 0],
            centers[:, :, 1],
            self._mover_radii[:, None],
        )
        return distances.min(axis=0)

    def clearances_timed(self, points: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Clearance of each point with movers placed at the point's own time.

        Row ``i`` is bit-identical to ``at_time(times_s[i]).clearances(points[i:i+1])[0]``
        — one broadcast mover-trajectory evaluation instead of one snapshot
        field per distinct instant.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        times = row_times(times_s, points.shape[0], "points")
        base = ObstacleField.clearances(self, points)
        if not self.movers:
            return base
        return np.minimum(base, self._mover_clearances(points, times))

    def collides_many_timed(
        self, points: np.ndarray, times_s: np.ndarray, vehicle_radius: float = 0.0
    ) -> np.ndarray:
        """Collision mask with movers placed at each point's own time.

        Entry ``i`` equals ``at_time(times_s[i]).collides_many(points[i:i+1],
        vehicle_radius)[0]`` without constructing any snapshot field.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        times = row_times(times_s, points.shape[0], "points")
        hit = ObstacleField._collide_mask(self, points, vehicle_radius)
        if self.movers:
            hit = hit | (self._mover_clearances(points, times) < vehicle_radius)
        return hit

    def ray_distances_many_timed(
        self,
        origins: np.ndarray,
        angles: np.ndarray,
        times_s: np.ndarray,
        max_range: float,
        step: float = 0.1,
    ) -> np.ndarray:
        """First-hit ray distances with movers placed at each origin's own time.

        ``origins`` is ``(N, 2)``, ``angles`` ``(R,)`` or ``(N, R)`` and
        ``times_s`` ``(N,)``; every ray of origin ``i`` sees the field frozen
        at ``times_s[i]`` (sensing is instantaneous), so row ``i`` of the
        ``(N, R)`` result is bit-identical to
        ``at_time(times_s[i]).ray_distances_many(origins[i:i+1], ...)`` — but
        all N desynchronised fans march through one query, with mover centres
        evaluated by the same broadcast
        :meth:`MovingObstacle.positions_at` machinery
        :meth:`segments_collide_timed` uses instead of one snapshot field per
        distinct time.
        """
        if not self.movers:
            return super().ray_distances_many_timed(origins, angles, times_s, max_range, step)
        shape, flat_origins, directions, marches = self._ray_fan(
            origins, angles, max_range, step
        )
        ray_times = np.repeat(row_times(times_s, shape[0], "origins"), shape[1])

        def timed_clearances(points: np.ndarray, rays: np.ndarray) -> np.ndarray:
            return np.minimum(
                ObstacleField.clearances(self, points),
                self._mover_clearances(points, ray_times[rays]),
            )

        return self._march_rays(
            flat_origins, directions, marches, max_range, timed_clearances
        ).reshape(shape)

    def at_time(self, time_s: float) -> ObstacleField:
        """A static snapshot with every mover placed at its ``time_s`` position."""
        if not self.movers:
            return ObstacleField(self.world_size, self.centers, self.radii)
        positions = np.array([mover.position_at(time_s) for mover in self.movers])
        radii = np.array([mover.radius for mover in self.movers])
        return ObstacleField(
            world_size=self.world_size,
            centers=np.vstack([self.centers, positions]) if self.centers.size else positions,
            radii=np.concatenate([self.radii, radii]),
        )

    def segments_collide_timed(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        start_times_s: np.ndarray,
        end_times_s: np.ndarray,
        vehicle_radius: float = 0.0,
        samples: int = 8,
    ) -> np.ndarray:
        """Timed collision mask for a batch of motion segments.

        Segment ``i`` of the result equals ``segment_collides_timed`` on row
        ``i``.  Instead of freezing the whole field once per sample (a python
        loop building a merged snapshot per instant), every (segment, sample)
        pair is evaluated at once: the static circles and walls through one
        :meth:`~repro.envs.obstacles.ObstacleField._collide_mask` query, and
        all movers x samples through one :meth:`_mover_clearances` query at
        the samples' interpolated times.  ``start_times_s`` and
        ``end_times_s`` must each hold one time per segment.
        """
        if not self.movers:
            return super().segments_collide_timed(
                starts, ends, start_times_s, end_times_s, vehicle_radius, samples
            )
        starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
        ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
        count = starts.shape[0]
        start_times = row_times(start_times_s, count, "segment starts")
        end_times = row_times(end_times_s, count, "segment ends")
        fractions = np.linspace(0.0, 1.0, max(2, samples))
        points = starts[:, None, :] + fractions[None, :, None] * (ends - starts)[:, None, :]
        flat_points = points.reshape(-1, 2)
        # Static circles and world bounds: identical to the inherited query.
        hit = ObstacleField._collide_mask(self, flat_points, vehicle_radius)
        if not hit.all():
            times = (
                start_times[:, None] + fractions[None, :] * (end_times - start_times)[:, None]
            ).reshape(-1)
            hit |= self._mover_clearances(flat_points, times) < vehicle_radius
        return hit.reshape(count, fractions.size).any(axis=1)

    def segment_collides_timed(
        self,
        start: np.ndarray,
        end: np.ndarray,
        start_time_s: float,
        end_time_s: float,
        vehicle_radius: float = 0.0,
        samples: int = 8,
    ) -> bool:
        """Check a motion segment against obstacles *where they are en route*.

        Sample ``i`` of the vehicle's straight-line motion is tested against
        the movers placed at the linearly interpolated time of that sample.
        """
        return bool(
            self.segments_collide_timed(
                np.asarray(start, dtype=np.float64).reshape(1, 2),
                np.asarray(end, dtype=np.float64).reshape(1, 2),
                np.array([float(start_time_s)]),
                np.array([float(end_time_s)]),
                vehicle_radius,
                samples,
            )[0]
        )

"""Time-parameterised obstacle fields: moving obstacles swept along waypoints.

A :class:`DynamicObstacleField` extends the static
:class:`~repro.envs.obstacles.ObstacleField` with a set of
:class:`MovingObstacle` circles, each travelling at constant speed along a
closed waypoint loop.  It overrides the timed queries every field offers
(``collides_many_timed``, ``ray_distances_many_timed``,
``segments_collide_timed``) to place each mover at every row's own time, so
batched callers pass their row times without asking whether the field moves.
Lockstep rows share few instants (one per step, one per segment sample),
so the field places all of its movers once per distinct instant of a
query, in one walk over a loop table, and gathers the centres back to the
rows.  A segment is checked against where the movers are while the
vehicle traverses it, and only if its start is close enough to the static
geometry or to a mover for a collision to be possible.
:meth:`DynamicObstacleField.at_time` freezes the field at an instant ``t``
into a plain static field; it is the reference the timed queries are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro.envs.obstacles import (
    ObstacleField,
    circle_distances,
    planar_distances,
    row_times,
    segment_fan,
)
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
        if not np.isfinite(waypoints).all():
            raise ConfigurationError("mover waypoints must be finite")
        # Chained comparisons are False for NaN, so they reject it too.
        if not 0.0 < self.radius < math.inf:
            raise ConfigurationError(
                f"mover radius must be positive and finite, got {self.radius}"
            )
        if not 0.0 <= self.speed_m_s < math.inf:
            raise ConfigurationError(
                f"mover speed must be non-negative and finite, got {self.speed_m_s}"
            )
        if not math.isfinite(self.phase_m):
            raise ConfigurationError(f"mover phase must be finite, got {self.phase_m}")

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


class _MoverLoops:
    """Every waypoint loop of a field's movers, as one table walked for all.

    Row ``m`` holds mover ``m``'s loop segments in walk order: start point,
    offset to the next waypoint and arc length.  Its last segment sits in
    the table's last column, which takes every position still unresolved,
    as the last segment does in ``positions_at``.  A loop with fewer
    waypoints than the longest is padded before its last segment with
    columns that never take a position (threshold ``-inf``) and subtract
    nothing.  :meth:`place` replays :meth:`MovingObstacle.positions_at`
    element by element on ``(M, T)`` arrays, one pass per column instead of
    one call per mover: the same arc-length subtraction chain, the same
    operations on the same operands, so every position is bitwise the
    mover's own.
    """

    def __init__(self, movers: Sequence[MovingObstacle]) -> None:
        count = len(movers)
        width = max(len(mover.waypoints) for mover in movers)
        lengths = np.zeros((count, width))
        thresholds = np.full((count, width), -np.inf)
        starts = np.zeros((count, width, 2))
        offsets = np.zeros((count, width, 2))
        for row, mover in enumerate(movers):
            size = len(mover.waypoints)
            columns = list(range(size - 1)) + [width - 1]
            lengths[row, columns] = mover._segment_lengths
            thresholds[row, columns] = mover._segment_lengths
            starts[row, columns] = mover.waypoints
            offsets[row, columns] = np.roll(mover.waypoints, -1, axis=0) - mover.waypoints
        # One tuple of (M, 1) operands per column ((M, 1, 2) for the points):
        # threshold, length, divisor, zero-length mask, start, offset.  A
        # zero-length segment's fraction is 0, as in ``positions_at``;
        # dividing it by 1 keeps the discarded quotient finite.
        zero = lengths == 0.0
        divisors = np.where(zero, 1.0, lengths)
        self.columns = [
            (
                thresholds[:, k, None],
                lengths[:, k, None],
                divisors[:, k, None],
                zero[:, k, None],
                starts[:, k, None],
                offsets[:, k, None],
            )
            for k in range(width)
        ]
        self.origins = np.stack([mover.waypoints[:1] for mover in movers])
        self.phases = np.array([[float(mover.phase_m)] for mover in movers])
        self.speeds = np.array([[float(mover.speed_m_s)] for mover in movers])
        totals = np.array([[mover.loop_length_m] for mover in movers])
        # A mover that cannot move stays on its first waypoint, as in
        # ``positions_at``: its loop is never walked.
        self.moving = (totals > 0.0) & (self.speeds != 0.0)
        self.totals = np.where(self.moving, totals, 1.0)
        self.max_speed = float(self.speeds.max())

    def place(self, times: np.ndarray) -> np.ndarray:
        """``(M, T, 2)`` centres: row ``m`` is ``movers[m].positions_at(times)``."""
        arcs = (self.phases + self.speeds * times) % self.totals
        positions = np.repeat(self.origins, times.size, axis=1)
        unresolved = np.repeat(self.moving, times.size, axis=1)
        last = len(self.columns) - 1
        for index, (threshold, length, divisor, zero, start, offset) in enumerate(
            self.columns
        ):
            take = unresolved if index == last else unresolved & (arcs <= threshold)
            fractions = np.where(zero, 0.0, np.minimum(1.0, arcs / divisor))
            np.copyto(
                positions, start + fractions[:, :, None] * offset, where=take[:, :, None]
            )
            if index < last:
                unresolved ^= take  # ``take`` is a subset of ``unresolved``
                np.subtract(arcs, length, out=arcs, where=unresolved)
        return positions


@dataclass(frozen=True)
class DynamicObstacleField(ObstacleField):
    """A static obstacle field plus moving obstacles, queryable at any time.

    The timed queries (:meth:`clearances_timed`, :meth:`collides_many_timed`,
    :meth:`ray_distances_many_timed`, :meth:`segments_collide_timed`) take a
    time per row and place every mover at that row's own time, so one batch
    can mix desynchronised lanes or vehicles; the movers are placed once per
    distinct time of a query, all together, from a loop table cached on the
    field.  Each row's answer is bitwise
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

    @cached_property
    def _mover_loops(self) -> _MoverLoops:
        return _MoverLoops(self.movers)

    def _placed_movers(self, times: np.ndarray) -> np.ndarray:
        """``(2, T, M)`` mover centres (x, then y) for rows at ``times``:
        ``T = 1`` when every row has the same time, one row per time
        otherwise.

        Each centre is bitwise :meth:`MovingObstacle.positions_at` of its
        row's time.  The movers are placed once per distinct time, all
        together by the field's loop table, and gathered back to the rows;
        when every time ``==`` the first they are placed once and broadcast.
        The placement is elementwise in time, and the only times ``==`` and
        ``np.unique`` merge while their bits differ, ``0.0`` and ``-0.0``,
        give the same arc length.
        """
        if times.size and (times == times[0]).all():
            return self._mover_loops.place(times[:1]).transpose(2, 1, 0)
        instants, rows = np.unique(times, return_inverse=True)
        return self._mover_loops.place(instants).transpose(2, 1, 0)[:, rows]

    def _mover_clearances(self, points: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest mover surface at its own time.

        ``points`` is ``(P, 2)`` and ``times_s`` ``(P,)`` — point ``i`` sees
        every mover placed at ``times_s[i]`` (by :meth:`_placed_movers`).
        The distances come from the same
        :func:`~repro.envs.obstacles.circle_distances` kernel as the static
        :meth:`~repro.envs.obstacles.ObstacleField.clearances`, so they are
        exactly the slice of the distance matrix the movers occupy in an
        :meth:`at_time` snapshot, and combining this with the static
        clearance via ``np.minimum`` reproduces the snapshot's clearance
        bitwise.
        """
        centers_x, centers_y = self._placed_movers(times_s).transpose(0, 2, 1)
        distances = circle_distances(
            points[:, 0], points[:, 1], centers_x, centers_y, self._mover_radii[:, None]
        )
        return distances.min(axis=0)

    def clearances_timed(self, points: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Clearance of each point with movers placed at the point's own time.

        Row ``i`` is bit-identical to ``at_time(times_s[i]).clearances(points[i:i+1])[0]``
        — the movers are placed once per distinct time instead of one
        snapshot field being built per distinct time.
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
        ``at_time(times_s[i]).ray_distances_many(origins[i:i+1], ...)``.
        The movers are placed once per distinct fan time (once for a
        lockstep fleet) and join the static circles in the table the cast
        of :meth:`~repro.envs.obstacles.ObstacleField._march_rays` reads,
        instead of one snapshot field being built per time.
        """
        if not self.movers:
            return super().ray_distances_many_timed(origins, angles, times_s, max_range, step)
        origins, directions, marches = self._ray_fan(origins, angles, max_range, step)
        movers = self._placed_movers(row_times(times_s, origins.shape[0], "origins"))
        table = (2, movers.shape[1], self.num_obstacles)
        static = np.broadcast_to(self.centers.T[:, None, :], table)
        return self._march_rays(
            origins,
            directions,
            marches,
            max_range,
            np.concatenate([static, movers], axis=2),
            np.concatenate([self.radii, self._mover_radii]),
        )

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

        ``ends`` is ``(N, 2)`` or a fan ``(N, K, 2)`` and the mask has shape
        ``ends.shape[:-1]``, as in the static
        :meth:`~repro.envs.obstacles.ObstacleField.segments_collide`.
        Each entry equals ``segment_collides_timed`` on its segment.
        Instead of freezing the whole field once per sample (a python loop
        building a merged snapshot per instant), every (segment, sample)
        pair is evaluated at once: the static circles and walls through one
        :meth:`~repro.envs.obstacles.ObstacleField._collide_mask` query, and
        all movers x samples through one :meth:`_mover_clearances` query at
        the samples' interpolated times.  ``start_times_s`` and
        ``end_times_s`` must each hold one time per start; every segment of
        a fan is flown over its start's interval.

        Only segments that could collide are sampled, as in the static
        query.  Clearance is 1-Lipschitz and every sample lies within the
        segment length of its start, so a start whose static clearance is at
        least ``length + vehicle_radius`` cannot hit a static circle or wall.
        A mover's centre travels at most ``speed * |t1 - t0|`` along its
        loop while the segment is flown, so a start whose mover clearance at
        ``t0`` is at least ``length + max_speed * |t1 - t0| + vehicle_radius``
        cannot hit a mover either.  Both clearances are taken once per
        start, whatever the width of its fan.
        """
        if not self.movers:
            return super().segments_collide_timed(
                starts, ends, start_times_s, end_times_s, vehicle_radius, samples
            )
        starts, ends, shape = segment_fan(starts, ends)
        count = starts.shape[0]
        start_times = row_times(start_times_s, count, "segment starts")
        end_times = row_times(end_times_s, count, "segment ends")
        reach = planar_distances(ends - starts[:, None, :]) + vehicle_radius
        mover_reach = reach + (
            self._mover_loops.max_speed * np.abs(end_times - start_times)
        )[:, None]
        candidates = np.nonzero(
            (
                (ObstacleField.clearances(self, starts)[:, None] < reach)
                | (self._mover_clearances(starts, start_times)[:, None] < mover_reach)
            ).reshape(-1)
        )[0]
        collided = np.zeros(reach.size, dtype=bool)
        if candidates.size == 0:
            return collided.reshape(shape)
        rows = candidates // ends.shape[1]
        starts, ends = starts[rows], ends.reshape(-1, 2)[candidates]
        start_times, end_times = start_times[rows], end_times[rows]
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
        collided[candidates] = hit.reshape(candidates.size, fractions.size).any(axis=1)
        return collided.reshape(shape)

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

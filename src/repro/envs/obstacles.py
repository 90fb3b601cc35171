"""Obstacle field generation for the navigation environments.

Fig. 5 of the paper evaluates three environments of increasing difficulty:
sparse (outdoor), medium (indoor) and dense (indoor) obstacle densities.  Here
an environment is a rectangular world populated with circular obstacles; the
generator guarantees that the start and goal positions stay clear and that a
collision-free corridor exists (checked with a coarse occupancy-grid BFS), so
every generated scenario is solvable by a competent policy.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnvironmentError_
from repro.utils.rng import SeedLike, as_generator


#: Slack of the ray cast's bounds (see ``ObstacleField._march_rays``) per
#: metre of the query's length scale: world width + height + ray reach +
#: largest radius.  A sample point ``o + m*d`` is off its exact position by
#: at most ~2 ulps of ``|o| + m``, the hit test's distance by ~3 ulps of
#: ``r``, and each bound by a few ulps of ``|c - o| <= reach + r`` (numpy's
#: cosine and sine give directions within 1 ulp of unit length).  An origin
#: inside the world has ``|o| <= width + height``; one outside is tested from
#: its first sample on.  The errors sum to under 16 machine epsilons of the
#: scale; 64 leaves a 4x reserve.
RAY_CAST_SLACK = 64.0 * float(np.finfo(np.float64).eps)


def planar_distances(deltas: np.ndarray) -> np.ndarray:
    """Euclidean length of 2-vectors along the last axis.

    Computed as ``sqrt(dx*dx + dy*dy)`` elementwise, which (unlike
    ``np.linalg.norm``'s BLAS path) produces bit-identical results whether the
    input is a single vector or a stacked ``(..., 2)`` batch — the property
    the lockstep batched environment relies on to reproduce serial rollouts
    exactly.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    return np.sqrt(np.sum(deltas * deltas, axis=-1))


def circle_distances(
    xs: np.ndarray,
    ys: np.ndarray,
    centers_x: np.ndarray,
    centers_y: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Signed distance ``sqrt(dx*dx + dy*dy) - r`` from points to circle surfaces.

    The one point-to-circle kernel behind every obstacle query.  Arguments
    broadcast like numpy operands: ``xs[:, None]`` against ``(N,)`` circle
    arrays gives the ``(P, N)`` static distance matrix, ``xs`` against
    ``(M, P)`` per-point mover centres the ``(M, P)`` one.  ``xs - centers_x``
    must already have the full result shape, because everything after the
    two subtractions runs in place on it.

    Coordinates arrive split into x and y arrays, so no ``(..., 2)`` delta
    tensor is built, squared and reduced over its length-2 axis.  That
    reduction is exactly ``dx*dx + dy*dy``, so the result is bitwise-equal
    to ``np.sqrt(np.sum(deltas**2, axis=-1)) - r`` at a fraction of its
    cost and memory.
    """
    distances = np.subtract(xs, centers_x)
    dy = np.subtract(ys, centers_y)
    np.multiply(distances, distances, out=distances)
    np.multiply(dy, dy, out=dy)
    distances += dy
    np.sqrt(distances, out=distances)
    distances -= radii
    return distances


def row_times(times_s: np.ndarray, rows: int, what: str = "rows") -> np.ndarray:
    """``times_s`` as a float vector holding exactly one time per row.

    The shared argument check of every timed query.  A length-1 vector does
    not broadcast: each row carries its own clock.
    """
    times = np.asarray(times_s, dtype=np.float64).reshape(-1)
    if times.size != rows:
        raise ConfigurationError(f"got {times.size} times for {rows} {what}")
    return times


def segment_fan(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """``starts`` as ``(N, 2)``, ``ends`` as ``(N, K, 2)`` and the answer's shape.

    The shared argument check of every segment query.  ``ends`` holds
    either one end per start, ``(N, 2)``, or a fan of K ends per start,
    ``(N, K, 2)``, the way a ray query takes ``(N, R)`` angles; the query
    answers in ``ends.shape[:-1]``, ``(N,)`` or ``(N, K)``.  Every segment
    of a fan starts at the same point, so a query works out what depends on
    the start alone once per start.
    """
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64)
    if ends.ndim == 3:
        shape = ends.shape[:-1]
    else:
        ends = ends.reshape(-1, 1, 2)
        shape = ends.shape[:1]
    if ends.shape[0] != starts.shape[0] or ends.shape[2] != 2:
        raise ConfigurationError(
            f"segment ends of shape {ends.shape} do not fan out of {starts.shape[0]} starts"
        )
    return starts, ends, shape


class ObstacleDensity(str, enum.Enum):
    """The three environment difficulty levels of Fig. 5."""

    SPARSE = "sparse"
    MEDIUM = "medium"
    DENSE = "dense"

    @property
    def obstacles_per_100m2(self) -> float:
        return {"sparse": 2.0, "medium": 5.0, "dense": 9.0}[self.value]


@dataclass(frozen=True)
class ObstacleField:
    """A set of circular obstacles inside a rectangular world."""

    world_size: Tuple[float, float]
    centers: np.ndarray  # (N, 2)
    radii: np.ndarray    # (N,)

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        radii = np.asarray(self.radii, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        if centers.shape[0] != radii.shape[0]:
            raise ConfigurationError("centers and radii must have the same length")
        # Each check is written to reject NaN, which compares False with everything.
        if not np.isfinite(centers).all():
            raise ConfigurationError("obstacle centres must be finite")
        if not (np.isfinite(radii).all() and (radii > 0).all()):
            raise ConfigurationError("obstacle radii must be positive and finite")
        width, height = self.world_size
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ConfigurationError(
                f"world size must be positive and finite, got {self.world_size}"
            )

    @property
    def num_obstacles(self) -> int:
        return int(self.radii.size)

    # ------------------------------------------------------------------ geometric queries
    def in_bounds(self, position: np.ndarray, margin: float = 0.0) -> bool:
        x, y = float(position[0]), float(position[1])
        width, height = self.world_size
        return margin <= x <= width - margin and margin <= y <= height - margin

    def clearances(self, points: np.ndarray) -> np.ndarray:
        """Distance from each of ``points`` (N, 2) to the nearest obstacle or wall.

        The batched form of :meth:`clearance` and the hot path under ray
        casting, collision checks and the occupancy-grid solvability check.
        Every (point, circle) pair goes through :func:`circle_distances`,
        then a min over circles and walls.  Points outside the world get a
        negative clearance.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        width, height = self.world_size
        xs, ys = points[:, 0], points[:, 1]
        wall_distance = np.minimum(np.minimum(xs, width - xs), np.minimum(ys, height - ys))
        if self.num_obstacles == 0:
            return wall_distance
        # Chunk the (points x obstacles) distance matrix so wall-heavy worlds
        # (thousands of circles) times large ray batches stay within a few MB.
        max_cells = 1 << 20
        chunk = max(1, max_cells // self.num_obstacles)
        centers_x, centers_y = self.centers.T
        nearest = np.empty(points.shape[0], dtype=np.float64)
        for lo in range(0, points.shape[0], chunk):
            rows = slice(lo, lo + chunk)
            distances = circle_distances(
                xs[rows, None], ys[rows, None], centers_x, centers_y, self.radii
            )
            nearest[rows] = distances.min(axis=1)
        return np.minimum(wall_distance, nearest)

    def clearance(self, position: np.ndarray) -> float:
        """Distance from ``position`` to the nearest obstacle surface or wall."""
        return float(self.clearances(np.asarray(position, dtype=np.float64))[0])

    def collides_many(self, points: np.ndarray, vehicle_radius: float = 0.0) -> np.ndarray:
        """Boolean collision mask for a batch of ``points`` (N, 2).

        Point ``i`` of the result equals ``collides(points[i], vehicle_radius)``.
        """
        return self._collide_mask(points, vehicle_radius)

    def collides(self, position: np.ndarray, vehicle_radius: float = 0.0) -> bool:
        """True if a vehicle of ``vehicle_radius`` at ``position`` hits anything."""
        if not self.in_bounds(position, margin=vehicle_radius):
            return True
        return self.clearance(position) < vehicle_radius

    def segments_collide(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        vehicle_radius: float = 0.0,
        samples: int = 8,
    ) -> np.ndarray:
        """Collision mask for a batch of straight motion segments.

        ``ends`` is ``(N, 2)``, one end per start, or ``(N, K, 2)``, a fan of
        K ends per start (see :func:`segment_fan`); the mask has shape
        ``ends.shape[:-1]``.  Entry ``i`` equals
        ``segment_collides(starts[i], ends[i], vehicle_radius, samples)``,
        and a fan's entry ``[i, k]`` the same on ``ends[i, k]``.  All sample
        points of all segments go through one :meth:`_collide_mask` query,
        which is what lets the batched environment check B lockstep lanes
        in a single call.
        """
        starts, ends, shape = segment_fan(starts, ends)
        # Conservative prescreen: every sample point lies within the segment
        # length of its start, so a start clearance exceeding length + radius
        # proves the whole segment free (clearance is 1-Lipschitz).  In open
        # space this skips the dense sampling for most of a lockstep batch.
        # A fan shares its start, so each start's clearance is taken once.
        lengths = planar_distances(ends - starts[:, None, :])
        candidates = np.nonzero(
            (self.clearances(starts)[:, None] < lengths + vehicle_radius).reshape(-1)
        )[0]
        collided = np.zeros(lengths.size, dtype=bool)
        if candidates.size == 0:
            return collided.reshape(shape)
        fractions = np.linspace(0.0, 1.0, max(2, samples))
        subset_starts = starts[candidates // ends.shape[1]]
        subset_ends = ends.reshape(-1, 2)[candidates]
        points = (
            subset_starts[:, None, :]
            + fractions[None, :, None] * (subset_ends - subset_starts)[:, None, :]
        )
        hits = self._collide_mask(points.reshape(-1, 2), vehicle_radius)
        collided[candidates] = hits.reshape(candidates.size, fractions.size).any(axis=1)
        return collided.reshape(shape)

    def segment_collides(
        self, start: np.ndarray, end: np.ndarray, vehicle_radius: float = 0.0, samples: int = 8
    ) -> bool:
        """Conservatively check a straight motion segment for collisions."""
        start = np.asarray(start, dtype=np.float64).reshape(1, 2)
        end = np.asarray(end, dtype=np.float64).reshape(1, 2)
        return bool(self.segments_collide(start, end, vehicle_radius, samples)[0])

    def _collide_mask(self, points: np.ndarray, vehicle_radius: float) -> np.ndarray:
        """Collision mask matching :meth:`collides` semantics (bounds use margin)."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        width, height = self.world_size
        xs, ys = points[:, 0], points[:, 1]
        out = (
            (xs < vehicle_radius)
            | (xs > width - vehicle_radius)
            | (ys < vehicle_radius)
            | (ys > height - vehicle_radius)
        )
        return out | (self.clearances(points) < vehicle_radius)

    def ray_distances_many(
        self,
        origins: np.ndarray,
        angles: np.ndarray,
        max_range: float,
        step: float = 0.1,
    ) -> np.ndarray:
        """First-hit distances for fans of rays from many origins at once.

        ``origins`` is ``(N, 2)`` and ``angles`` either ``(R,)`` (one shared
        fan) or ``(N, R)`` (a fan per origin); the result is ``(N, R)``.  Row
        ``i`` matches :meth:`ray_distances` from ``origins[i]`` exactly.  A
        ray reads the first sample of its march grid (``step``, ``2 * step``,
        ... below ``max_range``) that ``_collide_mask(point, 0.0)`` flags,
        or ``max_range``.  :meth:`_march_rays` finds that sample from the
        geometry, so all B lockstep environment lanes sense in one call that
        tests about one sample per ray.
        """
        origins, directions, marches = self._ray_fan(origins, angles, max_range, step)
        return self._march_rays(
            origins, directions, marches, max_range, self.centers.T[:, None, :], self.radii
        )

    @staticmethod
    def _ray_fan(
        origins: np.ndarray, angles: np.ndarray, max_range: float, step: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated set-up of a batched ray query.

        Returns the ``(F, 2)`` fan origins, the ``(2, F, R)`` unit ray
        directions (x components, then y) and the march grid.  A fan shared
        by every origin has its cosines and sines taken once.
        """
        if max_range <= 0 or step <= 0:
            raise ConfigurationError("ray max_range and step must be positive")
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 2)
        angles = np.ascontiguousarray(angles, dtype=np.float64)
        count = origins.shape[0]
        if angles.ndim != 1 and (angles.ndim != 2 or angles.shape[0] != count):
            raise ConfigurationError(
                f"angles shape {angles.shape} does not match {count} origins"
            )
        directions = np.empty((2,) + angles.shape)
        np.cos(angles, out=directions[0])
        np.sin(angles, out=directions[1])
        if angles.ndim == 1:
            directions = np.broadcast_to(directions[:, None, :], (2, count, angles.size))
        marches = np.arange(step, max_range, step, dtype=np.float64)
        return origins, directions, marches

    def _march_rays(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        marches: np.ndarray,
        max_range: float,
        centers: np.ndarray,
        radii: np.ndarray,
    ) -> np.ndarray:
        """First hits of the ``(F, R)`` rays of :meth:`_ray_fan` among circles.

        ``centers`` is ``(2, F, C)``, the x and then y centres of the C
        circles each fan sees, or ``(2, 1, C)`` when every fan sees them in
        one place, and ``radii`` is ``(C,)``: the field's own circles, or
        for :class:`~repro.worlds.dynamic.DynamicObstacleField` those and
        its movers placed at each fan's time.  Ray ``[f, k]`` reads the
        first sample ``marches[j]`` whose point
        ``origins[f] + marches[j] * directions[:, f, k]`` lies outside the
        world or inside a circle (what ``_collide_mask(point, 0.0)`` flags
        on a field of these circles), or ``max_range``.

        Geometry gives each ray its first candidate sample, the first one
        at or past the earliest distance at which the ray can hit:

        * one (fans x circles) pass drops every circle farther than
          ``marches[-1] + r + margin`` from the fan's origin;
        * for each (ray, kept circle), the centre's offset ``b = v . d``
          along the ray and its miss distance ``h = |v x d|`` give the entry
          bound ``b - sqrt((r + margin)^2 - h^2) - margin``; a ray with
          ``h >= r + margin``, or whose widened chord ends before the first
          sample, cannot hit the circle;
        * the distance at which the ray leaves the world bounds the samples
          outside it (all of them, if the origin is outside).

        A ray with no candidate reads ``max_range`` without a hit test.
        Every other ray runs the exact hit test at its candidate, and on a
        miss (a grazing chord between two samples, or a candidate inside the
        margin) at every later sample, so each answer is bitwise the dense
        march's: a sample before the candidate cannot hit.  The hit test
        flags a point outside the world or at a negative
        :func:`circle_distances` from a circle some fan kept; no sample lies
        inside a dropped circle.  The margin (:data:`RAY_CAST_SLACK` times
        the query's length scale) covers the rounding of the sample points,
        of the hit test and of the bounds.
        """
        count, rays = directions.shape[1:]
        distances = np.full(count * rays, max_range, dtype=np.float64)
        if marches.size == 0:
            return distances.reshape(count, rays)
        width, height = self.world_size
        reach = float(marches[-1])
        fan_xy = origins.T[:, :, None]
        margin = RAY_CAST_SLACK * (
            width + height + reach + (float(radii.max()) if radii.size else 0.0)
        )

        # The earliest distance at which each ray can be outside the world.
        # A zero direction component never leaves along its axis: x/0 is
        # inf, 0/0 is NaN and fmin skips NaN.
        bounds = np.array([width, height])[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            exits = np.where(directions > 0.0, bounds - fan_xy, fan_xy) / np.abs(directions)
        outside = ((fan_xy < 0.0) | (fan_xy > bounds)).any(axis=0)
        earliest = np.where(outside, -np.inf, np.fmin(exits[0], exits[1])) - margin

        # ... or inside a circle within reach of its origin.
        deltas = centers - fan_xy
        squared = deltas * deltas
        span = reach + margin + radii
        kept = squared[0] + squared[1] < span * span
        pairs = np.flatnonzero(kept)
        if pairs.size:
            # (ray, pair) arrays, pairs innermost: a fan's R rays against
            # each of its K kept circles.
            fans, circles = np.divmod(pairs, kept.shape[1])
            along = deltas.reshape(2, -1)[:, None, pairs]
            ray = directions.transpose(0, 2, 1)[:, :, fans]
            products = along * ray
            offsets = products[0] + products[1]
            crossed = along[::-1] * ray
            misses = crossed[1] - crossed[0]
            widened = radii[circles] + margin
            with np.errstate(invalid="ignore"):
                # (w - h)(w + h) keeps the half chord accurate near tangency;
                # a ray that passes outside the widened circle gets NaN.
                half_chords = np.sqrt((widened - misses) * (widened + misses))
            half_chords += margin
            # No candidate from a circle the ray misses or that ends before
            # the first sample (NaN >= x is False).
            entries = np.where(
                offsets + half_chords >= marches[0], offsets - half_chords, np.inf
            )
            # ``pairs`` is sorted: one minimum over each fan's run of circles.
            counts = np.count_nonzero(kept, axis=1)
            seen = np.flatnonzero(counts)
            nearest = np.minimum.reduceat(entries, (np.cumsum(counts) - counts)[seen], axis=1)
            earliest[seen] = np.minimum(earliest[seen], nearest.T)
        first = np.searchsorted(marches, earliest)
        # The hit test needs only the circles some fan kept.
        kept_circles = np.flatnonzero(kept.any(axis=0))
        centers, radii = centers[:, :, kept_circles], radii[kept_circles]
        ray_xy = directions.reshape(2, -1)

        def hits(flat: np.ndarray, samples: np.ndarray) -> np.ndarray:
            """Exact hit test of ``marches[samples]`` on flattened rays ``flat``."""
            fan = flat // rays
            steps = marches[samples][:, None] * ray_xy[:, flat, None]
            xs, ys = origins[fan].T[:, :, None] + steps
            seen = centers if centers.shape[1] == 1 else centers[:, fan]
            inside = circle_distances(xs, ys, seen[0], seen[1], radii) < 0.0
            xs, ys = xs[:, 0], ys[:, 0]
            return (xs < 0.0) | (xs > width) | (ys < 0.0) | (ys > height) | inside.any(axis=1)

        flat = np.flatnonzero(first < marches.size)
        samples = first.reshape(-1)[flat]
        hit = hits(flat, samples)
        distances[flat[hit]] = marches[samples[hit]]
        if not hit.all():
            # A miss (a grazing chord between two samples, or a candidate
            # inside the margin): test the ray's later samples.
            flat, tried = flat[~hit], samples[~hit]
            later = np.arange(marches.size) > tried[:, None]
            missed, samples = np.nonzero(later)
            hit = np.zeros(later.shape, dtype=bool)
            hit[missed, samples] = hits(flat[missed], samples)
            found = hit.any(axis=1)
            distances[flat[found]] = marches[np.argmax(hit[found], axis=1)]
        return distances.reshape(count, rays)

    def ray_distances(
        self,
        origin: np.ndarray,
        angles: np.ndarray,
        max_range: float,
        step: float = 0.1,
    ) -> np.ndarray:
        """First-hit distance for a fan of rays, in one batched query.

        Matches :meth:`ray_distance` exactly (march from ``step`` in ``step``
        increments, capped at ``max_range``); it is row 0 of
        :meth:`ray_distances_many` from the one origin.
        """
        angles = np.asarray(angles, dtype=np.float64).reshape(-1)
        origin = np.asarray(origin, dtype=np.float64).reshape(1, 2)
        return self.ray_distances_many(origin, angles[None, :], max_range, step)[0]

    def ray_distance(
        self, origin: np.ndarray, angle: float, max_range: float, step: float = 0.1
    ) -> float:
        """Distance along a ray until the first obstacle or wall (capped at ``max_range``)."""
        return float(self.ray_distances(origin, np.array([angle]), max_range, step)[0])

    # ------------------------------------------------------------------ timed queries
    # Batched callers pass one time per row whatever the field.  A static
    # field looks the same at every instant, so each timed query checks the
    # time vector and answers with the static query;
    # :class:`~repro.worlds.dynamic.DynamicObstacleField` overrides them to
    # place its movers at each row's own time.
    def collides_many_timed(
        self, points: np.ndarray, times_s: np.ndarray, vehicle_radius: float = 0.0
    ) -> np.ndarray:
        """:meth:`collides_many` with one time per point."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        row_times(times_s, points.shape[0], "points")
        return self.collides_many(points, vehicle_radius)

    def ray_distances_many_timed(
        self,
        origins: np.ndarray,
        angles: np.ndarray,
        times_s: np.ndarray,
        max_range: float,
        step: float = 0.1,
    ) -> np.ndarray:
        """:meth:`ray_distances_many` with one time per origin."""
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 2)
        row_times(times_s, origins.shape[0], "origins")
        return self.ray_distances_many(origins, angles, max_range, step)

    def segments_collide_timed(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        start_times_s: np.ndarray,
        end_times_s: np.ndarray,
        vehicle_radius: float = 0.0,
        samples: int = 8,
    ) -> np.ndarray:
        """:meth:`segments_collide` with a start and an end time per start.

        Every segment of a fan is flown over its start's time interval.
        """
        starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
        row_times(start_times_s, starts.shape[0], "segment starts")
        row_times(end_times_s, starts.shape[0], "segment ends")
        return self.segments_collide(starts, ends, vehicle_radius, samples)

    # ------------------------------------------------------------------ solvability check
    def cell_index(self, point: np.ndarray, rows: int, cols: int) -> Tuple[int, int]:
        """The (row, col) of ``point`` on a rows x cols grid over this world, clamped."""
        width, height = self.world_size
        col = min(cols - 1, max(0, int(point[0] / width * cols)))
        row = min(rows - 1, max(0, int(point[1] / height * rows)))
        return row, col

    def occupancy_grid(self, vehicle_radius: float = 0.0, cell_size: float = 0.5) -> np.ndarray:
        """Boolean (rows, cols) occupancy of cell centres, built in one batched query."""
        width, height = self.world_size
        cols = max(2, int(np.ceil(width / cell_size)))
        rows = max(2, int(np.ceil(height / cell_size)))
        ys = (np.arange(rows) + 0.5) * height / rows
        xs = (np.arange(cols) + 0.5) * width / cols
        grid_x, grid_y = np.meshgrid(xs, ys)
        points = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
        return self.collides_many(points, vehicle_radius).reshape(rows, cols)

    def has_free_path(
        self,
        start: np.ndarray,
        goal: np.ndarray,
        vehicle_radius: float,
        cell_size: float = 0.5,
    ) -> bool:
        """BFS over a coarse occupancy grid to confirm start and goal are connected."""
        occupancy = self.occupancy_grid(vehicle_radius, cell_size)
        rows, cols = occupancy.shape

        start_cell = self.cell_index(np.asarray(start, dtype=np.float64), rows, cols)
        goal_cell = self.cell_index(np.asarray(goal, dtype=np.float64), rows, cols)
        occupancy[start_cell] = False
        occupancy[goal_cell] = False
        frontier: deque[Tuple[int, int]] = deque([start_cell])
        visited = {start_cell}
        while frontier:
            row, col = frontier.popleft()
            if (row, col) == goal_cell:
                return True
            for d_row, d_col in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (row + d_row, col + d_col)
                if (
                    0 <= nxt[0] < rows
                    and 0 <= nxt[1] < cols
                    and nxt not in visited
                    and not occupancy[nxt]
                ):
                    visited.add(nxt)
                    frontier.append(nxt)
        return False


def generate_obstacles(
    world_size: Tuple[float, float],
    density: ObstacleDensity,
    start: np.ndarray,
    goal: np.ndarray,
    rng: SeedLike = None,
    vehicle_radius: float = 0.25,
    keepout_radius: float = 1.5,
    radius_range: Tuple[float, float] = (0.4, 0.9),
    max_attempts: int = 40,
) -> ObstacleField:
    """Generate a solvable obstacle field at the requested density.

    Obstacles are sampled uniformly in the world, rejected if they intrude on
    the start/goal keep-out discs, and the whole field is resampled (up to
    ``max_attempts`` times) until a collision-free corridor between start and
    goal exists.
    """
    if radius_range[0] <= 0 or radius_range[1] < radius_range[0]:
        raise ConfigurationError(f"invalid obstacle radius range {radius_range}")
    generator = as_generator(rng)
    width, height = world_size
    area = width * height
    target_count = int(round(density.obstacles_per_100m2 * area / 100.0))
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)

    for _ in range(max_attempts):
        centers: List[np.ndarray] = []
        radii: List[float] = []
        for _ in range(target_count):
            radius = float(generator.uniform(*radius_range))
            center = np.array(
                [
                    generator.uniform(radius, width - radius),
                    generator.uniform(radius, height - radius),
                ]
            )
            if np.linalg.norm(center - start) < radius + keepout_radius:
                continue
            if np.linalg.norm(center - goal) < radius + keepout_radius:
                continue
            centers.append(center)
            radii.append(radius)
        field = ObstacleField(
            world_size=world_size,
            centers=np.array(centers).reshape(-1, 2),
            radii=np.array(radii),
        )
        if field.has_free_path(start, goal, vehicle_radius):
            return field
    raise EnvironmentError_(
        f"could not generate a solvable {density.value} environment in {max_attempts} attempts"
    )

"""The split-coordinate circle-distance kernel vs the stacked-coordinate formula.

Every obstacle query measures point-to-circle distances through
:func:`~repro.envs.obstacles.circle_distances`.  It replaced a ``(P, N, 2)``
delta broadcast that was squared and summed over its length-2 axis; that sum
is exactly ``dx*dx + dy*dy``, so each query must return bitwise what the old
formula returned.  The old formula is kept here as the reference and results
are compared with ``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from repro.envs.obstacles import ObstacleField, circle_distances
from repro.worlds import WorldSpec, generate_world, registered_families
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle

MAX_CELLS = 1 << 20  # chunk size of ObstacleField.clearances, in (point, circle) pairs


def _stacked_distances(points, centers, radii):
    """The old formula: ``(P, N)`` distances from a ``(P, N, 2)`` delta tensor."""
    deltas = points[:, None, :] - centers[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=2)) - radii[None, :]


def _stacked_clearances(field, points):
    """The old ``ObstacleField.clearances``, chunked exactly as it was."""
    width, height = field.world_size
    xs, ys = points[:, 0], points[:, 1]
    wall_distance = np.minimum(np.minimum(xs, width - xs), np.minimum(ys, height - ys))
    if field.num_obstacles == 0:
        return wall_distance
    chunk = max(1, MAX_CELLS // field.num_obstacles)
    nearest = np.empty(points.shape[0], dtype=np.float64)
    for lo in range(0, points.shape[0], chunk):
        distances = _stacked_distances(points[lo : lo + chunk], field.centers, field.radii)
        nearest[lo : lo + chunk] = distances.min(axis=1)
    return np.minimum(wall_distance, nearest)


def _stacked_mover_distances(field, points, times):
    """The old mover formula: ``(M, P)`` distances from an ``(M, P, 2)`` tensor."""
    centers = np.stack([mover.positions_at(times) for mover in field.movers])
    radii = np.array([mover.radius for mover in field.movers], dtype=np.float64)
    deltas = points[None, :, :] - centers
    return np.sqrt(np.sum(deltas**2, axis=2)) - radii[:, None]


def _bounds_mask(field, points, radius):
    width, height = field.world_size
    xs, ys = points[:, 0], points[:, 1]
    return (xs < radius) | (xs > width - radius) | (ys < radius) | (ys > height - radius)


def _query_points(field, count, seed):
    """``count`` points in and out of bounds, then every circle centre and corner."""
    width, height = field.world_size
    scattered = np.random.default_rng(seed).uniform(
        [-2.0, -2.0], [width + 2.0, height + 2.0], size=(count, 2)
    )
    corners = np.array([[0.0, 0.0], [width, 0.0], [0.0, height], [width, height]])
    return np.concatenate([scattered, field.centers, corners])


def test_kernel_equals_stacked_formula():
    rng = np.random.default_rng(1)
    centers = rng.uniform(-5.0, 5.0, size=(37, 2))
    radii = rng.uniform(0.1, 2.0, size=37)
    points = np.concatenate([rng.uniform(-8.0, 8.0, size=(50, 2)), centers])
    got = circle_distances(
        points[:, 0, None], points[:, 1, None], centers[:, 0], centers[:, 1], radii
    )
    assert np.array_equal(got, _stacked_distances(points, centers, radii))
    # A point exactly at a centre is exactly ``-radius`` from that surface.
    assert np.array_equal(np.diag(got[50:]), -radii)


@pytest.mark.parametrize("family", registered_families())
def test_clearances_on_every_family_default_preset(family):
    field = generate_world(WorldSpec(family, seed=0)).field
    points = _query_points(field, 600, seed=2)
    assert np.array_equal(field.clearances(points), _stacked_clearances(field, points))


@pytest.mark.parametrize("num_circles", [0, 1, 5, 4500])
def test_clearances_on_random_fields(num_circles):
    rng = np.random.default_rng(num_circles)
    field = ObstacleField(
        world_size=(30.0, 20.0),
        centers=rng.uniform([0.0, 0.0], [30.0, 20.0], size=(num_circles, 2)),
        radii=rng.uniform(0.05, 1.5, size=num_circles),
    )
    points = np.concatenate([_query_points(field, 300, seed=3)[:300], field.centers[:20]])
    if num_circles > 4096:
        # The query spans more than one chunk of the distance matrix.
        assert MAX_CELLS // num_circles < 300
    assert np.array_equal(field.clearances(points), _stacked_clearances(field, points))


@pytest.fixture(scope="module")
def dynamic_field(request):
    if request.param == "dynamic-preset":
        field = generate_world(WorldSpec("dynamic", seed=0)).field
        assert field.num_movers > 0
        return field
    rng = np.random.default_rng(4)
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(1.0, 19.0, size=(3, 2)),
            radius=float(rng.uniform(0.3, 1.0)),
            speed_m_s=speed,
            phase_m=float(rng.uniform(0.0, 8.0)),
        )
        for speed in (0.0, 0.7, 1.3, 2.0)
    )
    return DynamicObstacleField(
        world_size=(20.0, 20.0),
        centers=rng.uniform(1.0, 19.0, size=(15, 2)),
        radii=rng.uniform(0.3, 0.8, size=15),
        movers=movers,
    )


#: How a query's rows share instants: one random time per row, one shared
#: instant, fleet lockstep (one start/end pair, so one instant per segment
#: sample), a mix of 0.0, -0.0 and instants around a loop wrap, and one
#: instant by ``==`` whose rows mix 0.0 and -0.0.
TIME_LAYOUTS = ("per-row", "shared", "lockstep", "mixed", "signed-zero")

#: Every dynamic field under every time layout; the per-row layout keeps the
#: bare field id these tests had before the layouts were added.
FIELD_LAYOUTS = [
    pytest.param(field, layout, id=field if layout == "per-row" else f"{field}-{layout}")
    for field in ("random", "dynamic-preset")
    for layout in TIME_LAYOUTS
]


def _mixed_instants(field):
    """0.0, -0.0, 2.5 and instants at and past a moving mover's first wrap."""
    mover = next(mover for mover in field.movers if mover.speed_m_s > 0.0)
    wrap = (mover.loop_length_m - mover.phase_m) / mover.speed_m_s
    return np.array([0.0, -0.0, wrap, np.nextafter(wrap, np.inf), wrap + 0.3, 2.5])


def _point_times(layout, field, count, rng):
    """One time per point row under a layout other than per-row."""
    if layout == "shared":
        return np.full(count, 7.25)
    if layout == "lockstep":
        return np.resize(np.linspace(12.5, 13.0, 8), count)
    if layout == "signed-zero":
        return _signed_zeros(count, rng)
    return rng.choice(_mixed_instants(field), size=count)


def _signed_zeros(count, rng):
    """``count`` times, each 0.0 or -0.0, both present."""
    times = rng.choice([0.0, -0.0], size=count)
    times[:2] = [0.0, -0.0]
    return times


def _segment_times(layout, field, count, rng):
    """A start and an end time per segment under ``layout``."""
    if layout == "per-row":
        start_times = rng.uniform(0.0, 60.0, size=count)
        return start_times, start_times + rng.uniform(0.0, 1.0, size=count)
    if layout == "shared":
        return np.full(count, 7.25), np.full(count, 7.25)
    if layout == "lockstep":
        return np.full(count, 12.5), np.full(count, 13.0)
    if layout == "signed-zero":
        return _signed_zeros(count, rng), _signed_zeros(count, rng)
    # Reversed pairs from -0.0 keep -0.0 as a sample time (0 * negative).
    start_times = rng.choice(_mixed_instants(field), size=count)
    return start_times, start_times + rng.choice([-0.5, 0.0, 0.5], size=count)


@pytest.mark.parametrize("dynamic_field, layout", FIELD_LAYOUTS, indirect=["dynamic_field"])
def test_timed_point_queries_equal_stacked_mover_formula(dynamic_field, layout):
    field = dynamic_field
    rng = np.random.default_rng(5)
    scattered = _query_points(field, 400, seed=5)
    # Each mover's own centre at t = 0 as well.
    at_mover_centres = np.stack([mover.position_at(0.0) for mover in field.movers])
    points = np.concatenate([scattered, at_mover_centres])
    if layout == "per-row":
        times = np.concatenate(
            [rng.uniform(0.0, 60.0, size=len(scattered)), np.zeros(field.num_movers)]
        )
    else:
        times = _point_times(layout, field, len(points), rng)
    static = _stacked_clearances(field, points)
    movers = _stacked_mover_distances(field, points, times).min(axis=0)
    assert np.array_equal(field.clearances_timed(points, times), np.minimum(static, movers))
    for radius in (0.0, 0.25):
        expected = _bounds_mask(field, points, radius) | (static < radius) | (movers < radius)
        assert np.array_equal(field.collides_many_timed(points, times, radius), expected)


@pytest.mark.parametrize("samples", [2, 8])
@pytest.mark.parametrize("dynamic_field, layout", FIELD_LAYOUTS, indirect=["dynamic_field"])
def test_timed_segments_equal_stacked_mover_formula(dynamic_field, layout, samples):
    field = dynamic_field
    rng = np.random.default_rng(6)
    width, height = field.world_size
    count = 300
    starts = rng.uniform([-1.0, -1.0], [width + 1.0, height + 1.0], size=(count, 2))
    ends = starts + rng.uniform(-1.5, 1.5, size=(count, 2))
    start_times, end_times = _segment_times(layout, field, count, rng)
    fractions = np.linspace(0.0, 1.0, samples)
    points = starts[:, None, :] + fractions[None, :, None] * (ends - starts)[:, None, :]
    points = points.reshape(-1, 2)
    times = start_times[:, None] + fractions[None, :] * (end_times - start_times)[:, None]
    static = _stacked_clearances(field, points)
    movers = _stacked_mover_distances(field, points, times.reshape(-1))
    for radius in (0.0, 0.25):
        hit = (
            _bounds_mask(field, points, radius)
            | (static < radius)
            | (movers < radius).any(axis=0)
        )
        expected = hit.reshape(count, samples).any(axis=1)
        got = field.segments_collide_timed(starts, ends, start_times, end_times, radius, samples)
        assert 0 < np.count_nonzero(got) < count
        assert np.array_equal(got, expected)

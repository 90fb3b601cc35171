"""Time-parameterised batched geometry queries vs the ``at_time`` reference.

The timed queries are a *refactor* of the per-instant snapshot path, not an
approximation: for any mover layout, any time vector and any ray fan, row
``i`` of a timed batched query must be bitwise-equal to running the plain
static query on ``field.at_time(times[i])``.  Property tests draw random
worlds/times/fans; deterministic pins cover the degenerate corners (no
movers, zero speed, empty march grids).  A field without movers, static or
dynamic, answers every timed query with its static query.  A segment query
given a fan of K ends per start answers bitwise as the same segments
flattened to one end per row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.obstacles import ObstacleField
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.errors import ConfigurationError
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle


def _random_field(seed: int) -> DynamicObstacleField:
    rng = np.random.default_rng(seed)
    num_static = int(rng.integers(0, 5))
    num_movers = int(rng.integers(1, 4))
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(1.0, 13.0, size=(int(rng.integers(2, 5)), 2)),
            radius=float(rng.uniform(0.3, 0.8)),
            speed_m_s=float(rng.uniform(0.0, 2.0)),
            phase_m=float(rng.uniform(0.0, 5.0)),
        )
        for _ in range(num_movers)
    )
    return DynamicObstacleField(
        world_size=(14.0, 12.0),
        centers=rng.uniform(1.0, 11.0, size=(num_static, 2)),
        radii=rng.uniform(0.3, 1.0, size=num_static),
        movers=movers,
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=24),
    rays=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=30, deadline=None)
def test_timed_rays_equal_snapshot_reference(seed, count, rays):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 1)
    origins = rng.uniform(0.5, 11.5, size=(count, 2))
    angles = rng.uniform(-np.pi, np.pi, size=(count, rays))
    times = rng.uniform(0.0, 40.0, size=count)
    got = field.ray_distances_many_timed(origins, angles, times, max_range=5.0, step=0.2)
    assert got.shape == (count, rays)
    for i in range(count):
        reference = field.at_time(float(times[i])).ray_distances_many(
            origins[i : i + 1], angles[i : i + 1], 5.0, 0.2
        )
        assert np.array_equal(got[i], reference[0])


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30, deadline=None)
def test_timed_collisions_equal_snapshot_reference(seed, count):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 2)
    points = rng.uniform(-1.0, 15.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    radius = float(rng.uniform(0.0, 0.4))
    got = field.collides_many_timed(points, times, radius)
    for i in range(count):
        assert got[i] == field.at_time(float(times[i])).collides(points[i], radius)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_timed_clearances_equal_snapshot_reference(seed, count):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 3)
    points = rng.uniform(0.0, 14.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    got = field.clearances_timed(points, times)
    for i in range(count):
        assert got[i] == field.at_time(float(times[i])).clearances(points[i : i + 1])[0]


def test_timed_sensor_matches_per_lane_snapshots():
    field = _random_field(7)
    rng = np.random.default_rng(11)
    count = 13
    positions = rng.uniform(1.0, 11.0, size=(count, 2))
    headings = rng.uniform(-np.pi, np.pi, size=count)
    times = rng.uniform(0.0, 40.0, size=count)
    sensor = RaySensor(num_rays=8, max_range_m=5.0, step_m=0.2)
    got = sensor.sense_many(field, positions, headings, times)
    for i in range(count):
        reference = sensor.sense(
            field.at_time(float(times[i])), positions[i], float(headings[i])
        )
        assert np.array_equal(got[i], reference)


def test_timed_imager_matches_per_lane_snapshots():
    field = _random_field(5)
    rng = np.random.default_rng(13)
    count = 6
    positions = rng.uniform(1.0, 11.0, size=(count, 2))
    headings = rng.uniform(-np.pi, np.pi, size=count)
    goals = rng.uniform(1.0, 11.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    imager = OccupancyImager(image_size=10)
    got = imager.render_many(field, positions, headings, goals, times)
    for i in range(count):
        reference = imager.render(
            field.at_time(float(times[i])), positions[i], float(headings[i]), goals[i]
        )
        assert np.array_equal(got[i], reference)


def _fields_without_movers():
    rng = np.random.default_rng(17)
    centers = rng.uniform(1.0, 9.0, size=(12, 2))
    radii = rng.uniform(0.2, 0.8, size=12)
    return (
        ObstacleField((10.0, 10.0), centers, radii),
        DynamicObstacleField((10.0, 10.0), centers, radii, movers=()),
    )


def test_timed_rays_without_movers_match_static_query():
    rng = np.random.default_rng(19)
    count = 40
    for field in _fields_without_movers():
        times = rng.uniform(0.0, 40.0, size=count)
        origins = rng.uniform(0.5, 9.5, size=(count, 2))
        angles = rng.uniform(-np.pi, np.pi, size=(count, 5))
        assert np.array_equal(
            field.ray_distances_many_timed(origins, angles, times, max_range=6.0),
            field.ray_distances_many(origins, angles, max_range=6.0),
        )
        points = rng.uniform(-0.5, 10.5, size=(count, 2))
        assert np.array_equal(
            field.collides_many_timed(points, times, 0.25), field.collides_many(points, 0.25)
        )
        ends = origins + rng.uniform(-1.0, 1.0, size=(count, 2))
        assert np.array_equal(
            field.segments_collide_timed(origins, ends, times, times + 0.5, 0.25),
            field.segments_collide(origins, ends, 0.25),
        )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=0, max_value=24),
    width=st.integers(min_value=1, max_value=9),
    reversed_times=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_segment_fans_equal_flat_queries(seed, count, width, reversed_times):
    """``ends`` of shape (N, K, 2) gives the (N, K) mask of the N·K flat
    segments, bitwise, for the static query and both timed ones."""
    field = _random_field(seed)
    static = ObstacleField(field.world_size, field.centers, field.radii)
    rng = np.random.default_rng(seed + 4)
    starts = rng.uniform(-1.0, 15.0, size=(count, 2))  # some outside the world
    fan = starts[:, None, :] + rng.uniform(-2.0, 2.0, size=(count, width, 2))
    start_times = rng.uniform(0.0, 40.0, size=count)
    end_times = start_times + rng.uniform(0.0, 1.5, size=count)
    if reversed_times:
        start_times, end_times = end_times, start_times
    radius = float(rng.uniform(0.0, 0.4))
    flat_starts = np.repeat(starts, width, axis=0)
    flat_ends = fan.reshape(-1, 2)
    flat_start_times = np.repeat(start_times, width)
    flat_end_times = np.repeat(end_times, width)
    for query_field in (static, field):
        got = query_field.segments_collide(starts, fan, radius)
        assert got.shape == fan.shape[:-1]
        flat = query_field.segments_collide(flat_starts, flat_ends, radius)
        assert np.array_equal(got, flat.reshape(count, width))
        got = query_field.segments_collide_timed(starts, fan, start_times, end_times, radius)
        assert got.shape == fan.shape[:-1]
        flat = query_field.segments_collide_timed(
            flat_starts, flat_ends, flat_start_times, flat_end_times, radius
        )
        assert np.array_equal(got, flat.reshape(count, width))


def test_segment_fans_check_their_rows():
    starts = np.full((3, 2), 5.0)
    for field in (_random_field(3),) + _fields_without_movers():
        assert field.segments_collide(starts, starts + 0.5).shape == (3,)
        assert field.segments_collide(np.empty((0, 2)), np.empty((0, 4, 2))).shape == (0, 4)
        times = np.zeros(3)
        fan = np.full((3, 1, 2), 5.5)
        assert field.segments_collide_timed(starts, fan, times, times + 0.5).shape == (3, 1)
        with pytest.raises(ConfigurationError):
            field.segments_collide(starts, np.full((2, 4, 2), 5.5))
        with pytest.raises(ConfigurationError):
            field.segments_collide_timed(starts, np.full((4, 2), 5.5), times, times)
        with pytest.raises(ConfigurationError):
            field.segments_collide_timed(
                starts, np.full((3, 4, 2), 5.5), np.zeros(12), np.zeros(12)
            )


def test_timed_rays_validate_time_vector_length():
    starts = np.full((3, 2), 5.0)
    bad_times = (
        (np.zeros(3), np.ones(1)),  # a length-1 vector must not broadcast
        (np.zeros(3), np.ones(2)),
        (np.zeros(5), np.ones(3)),
        (np.zeros(1), np.ones(1)),
    )
    for field in (_random_field(3),) + _fields_without_movers():
        for times in (np.zeros(2), np.zeros(1), np.zeros(4)):
            with pytest.raises(ConfigurationError):
                field.ray_distances_many_timed(
                    np.zeros((3, 2)), np.zeros(4), times, max_range=5.0
                )
            with pytest.raises(ConfigurationError):
                field.collides_many_timed(np.zeros((3, 2)), times)
        for start_times, end_times in bad_times:
            with pytest.raises(ConfigurationError):
                field.segments_collide_timed(starts, starts + 0.5, start_times, end_times)


def test_batched_sensors_validate_rows():
    field = _fields_without_movers()[0]
    positions = np.full((3, 2), 5.0)
    imager = OccupancyImager(image_size=8)
    good = (np.zeros(3), np.full((3, 2), 7.0), np.zeros(3))
    bad = (np.zeros(1), np.full((1, 2), 7.0), np.zeros(1))
    for which in range(3):
        headings, goals, times = (bad[i] if i == which else good[i] for i in range(3))
        with pytest.raises(ConfigurationError):
            imager.render_many(field, positions, headings, goals, times)
    assert imager.render_many(field, positions, *good).shape == (3,) + imager.shape
    sensor = RaySensor(num_rays=4)
    for headings, times in ((np.zeros(1), np.zeros(3)), (np.zeros(3), np.zeros(1))):
        with pytest.raises(ConfigurationError):
            sensor.sense_many(field, positions, headings, times)

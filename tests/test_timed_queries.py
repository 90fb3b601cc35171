"""Time-parameterised batched geometry queries vs the ``at_time`` reference.

The timed queries are a *refactor* of the per-instant snapshot path, not an
approximation: for any mover layout, any time vector and any ray fan, row
``i`` of a timed batched query must be bitwise-equal to running the plain
static query on ``field.at_time(times[i])``.  Property tests draw random
worlds/times/fans; deterministic pins cover the degenerate corners (no
movers, zero speed, empty march grids).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    got = sensor.sense_many_timed(field, positions, headings, times)
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
    got = imager.render_many_timed(field, positions, headings, goals, times)
    for i in range(count):
        reference = imager.render(
            field.at_time(float(times[i])), positions[i], float(headings[i]), goals[i]
        )
        assert np.array_equal(got[i], reference)


def test_timed_rays_without_movers_match_static_query():
    field = DynamicObstacleField(
        world_size=(10.0, 10.0),
        centers=np.array([[5.0, 5.0]]),
        radii=np.array([1.0]),
        movers=(),
    )
    origins = np.array([[1.0, 1.0], [8.0, 8.0]])
    angles = np.array([0.0, np.pi / 2])
    times = np.array([0.0, 25.0])
    got = field.ray_distances_many_timed(origins, angles, times, max_range=6.0)
    reference = field.ray_distances_many(origins, angles, max_range=6.0)
    assert np.array_equal(got, reference)


def test_timed_rays_validate_time_vector_length():
    field = _random_field(3)
    with pytest.raises(ConfigurationError):
        field.ray_distances_many_timed(
            np.zeros((3, 2)), np.zeros(4), np.zeros(2), max_range=5.0
        )
    with pytest.raises(ConfigurationError):
        field.collides_many_timed(np.zeros((3, 2)), np.zeros(2))
    no_movers = DynamicObstacleField(
        world_size=(10.0, 10.0), centers=np.zeros((0, 2)), radii=np.zeros(0)
    )
    starts = np.full((3, 2), 5.0)
    bad_times = (
        (np.zeros(3), np.ones(1)),  # a length-1 vector must not broadcast
        (np.zeros(3), np.ones(2)),
        (np.zeros(5), np.ones(3)),
        (np.zeros(1), np.ones(1)),
    )
    for queried in (field, no_movers):
        for start_times, end_times in bad_times:
            with pytest.raises(ConfigurationError):
                queried.segments_collide_timed(starts, starts + 0.5, start_times, end_times)

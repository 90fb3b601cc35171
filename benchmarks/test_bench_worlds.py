"""Benchmark: batched vs scalar obstacle-field queries, and world generation.

The batched ``(N, 2)`` queries of :class:`~repro.envs.obstacles.ObstacleField`
are the hot path under ray casting and the BFS solvability gate; the scalar
reference here is the pre-vectorization per-point loop, so the two benchmark
groups printed side by side are the speedup.
"""

from functools import partial

import numpy as np
import pytest

from repro.envs.obstacles import ObstacleField
from repro.envs.sensors import RaySensor
from repro.worlds import WorldSpec, generate_world


@pytest.fixture(scope="module")
def field() -> ObstacleField:
    return generate_world(WorldSpec("forest", seed=0)).field


@pytest.fixture(scope="module")
def points(field) -> np.ndarray:
    rng = np.random.default_rng(0)
    width, height = field.world_size
    return rng.uniform(0.0, [width, height], size=(512, 2))


def _scalar_clearances(field: ObstacleField, points: np.ndarray) -> np.ndarray:
    """The pre-vectorization reference: one python-level scan per point."""
    out = np.empty(len(points))
    for index, point in enumerate(points):
        x, y = float(point[0]), float(point[1])
        width, height = field.world_size
        wall = min(x, y, width - x, height - y)
        deltas = field.centers - np.array([x, y])
        distances = np.sqrt(np.sum(deltas**2, axis=1)) - field.radii
        out[index] = min(wall, distances.min())
    return out


@pytest.mark.benchmark(group="clearance-512pts")
def test_bench_clearances_scalar_loop(benchmark, field, points):
    result = benchmark(_scalar_clearances, field, points)
    assert result.shape == (512,)


@pytest.mark.benchmark(group="clearance-512pts")
def test_bench_clearances_batched(benchmark, field, points):
    result = benchmark(field.clearances, points)
    assert np.array_equal(result, _scalar_clearances(field, points))


# ---------------------------------------------------------------------- wall-heavy clearance
# Rollouts in wall-heavy worlds spend most of their time in clearance queries
# of a few dozen rows (median 32 rows per call) against a few hundred circles;
# the default rooms preset has 219.  At that shape the cost is the per-pair
# arithmetic, not the number of pairs: the stacked reference below builds,
# squares and reduces a (P, N, 2) delta tensor, while ``clearances`` computes
# the same bits from split x and y arrays with in-place operations.

WALL_HEAVY_ROWS = 32
WALL_HEAVY_BATCHES = 64


def _stacked_clearances(field: ObstacleField, points: np.ndarray) -> np.ndarray:
    """The former ``ObstacleField.clearances``: a chunked (P, N, 2) broadcast."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    width, height = field.world_size
    xs, ys = points[:, 0], points[:, 1]
    wall_distance = np.minimum(np.minimum(xs, width - xs), np.minimum(ys, height - ys))
    if field.num_obstacles == 0:
        return wall_distance
    chunk = max(1, (1 << 20) // field.num_obstacles)
    nearest = np.empty(points.shape[0], dtype=np.float64)
    for lo in range(0, points.shape[0], chunk):
        deltas = points[lo : lo + chunk, None, :] - field.centers[None, :, :]
        distances = np.sqrt(np.sum(deltas**2, axis=2)) - field.radii[None, :]
        nearest[lo : lo + chunk] = distances.min(axis=1)
    return np.minimum(wall_distance, nearest)


@pytest.fixture(scope="module")
def rooms_batches():
    field = generate_world(WorldSpec("rooms", seed=0)).field
    rng = np.random.default_rng(0)
    width, height = field.world_size
    batches = [
        rng.uniform(0.0, [width, height], size=(WALL_HEAVY_ROWS, 2))
        for _ in range(WALL_HEAVY_BATCHES)
    ]
    return field, batches


def _query_batches(clearances, field, batches):
    return [clearances(field, batch) for batch in batches]


@pytest.mark.benchmark(group="clearance-wall-heavy")
def test_bench_clearances_wall_heavy_stacked(benchmark, rooms_batches):
    field, batches = rooms_batches
    result = benchmark(_query_batches, _stacked_clearances, field, batches)
    assert len(result) == WALL_HEAVY_BATCHES


@pytest.mark.benchmark(group="clearance-wall-heavy")
def test_bench_clearances_wall_heavy_kernel(benchmark, rooms_batches):
    field, batches = rooms_batches
    result = benchmark(_query_batches, ObstacleField.clearances, field, batches)
    for got, batch in zip(result, batches):
        assert np.array_equal(got, _stacked_clearances(field, batch))


def test_clearance_kernel_speedup_wall_heavy(rooms_batches, time_pairs):
    """Acceptance gate: >= 3x over the stacked formula on 32-row rooms queries."""
    field, batches = rooms_batches
    assert field.num_obstacles == 219
    stacked_s, kernel_s = time_pairs(
        lambda: partial(_query_batches, _stacked_clearances, field, batches),
        lambda: partial(_query_batches, ObstacleField.clearances, field, batches),
        5,
    )
    speedup = stacked_s / kernel_s
    calls = WALL_HEAVY_BATCHES
    print(
        f"\n[rooms, {field.num_obstacles} circles, {WALL_HEAVY_ROWS} rows/call] "
        f"stacked {stacked_s / calls * 1e6:.0f} us/call, "
        f"kernel {kernel_s / calls * 1e6:.0f} us/call, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0


# ---------------------------------------------------------------------- ray cast
# Every rollout step casts each lane's sensor fan: 8 rays out to 5 m in
# 0.2 m steps, a few lanes per call.  The dense march tested all 24 samples
# of every ray against every circle; the cast tests about one sample per
# ray, chosen from the geometry, and must return the same bits.

CAST_ORIGINS = 8
CAST_BATCHES = 32
#: Measured 5.8-7.4x on a 2-vCPU VM; the gate keeps a ~1.45x reserve.
MIN_CAST_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def rooms_fans():
    field = generate_world(WorldSpec("rooms", seed=0)).field
    sensor = RaySensor(num_rays=8, max_range_m=5.0, step_m=0.2)
    rng = np.random.default_rng(1)
    width, height = field.world_size
    fans = []
    for _ in range(CAST_BATCHES):
        origins = rng.uniform(0.0, [width, height], size=(CAST_ORIGINS, 2))
        headings = rng.uniform(-np.pi, np.pi, size=CAST_ORIGINS)
        fans.append((origins, headings[:, None] + sensor.ray_angles[None, :]))
    return field, sensor, fans


def test_ray_cast_speedup_rooms(rooms_fans, dense_march, time_pairs):
    """Acceptance gate: the cast beats the dense march on rollout-sensor fans."""
    field, sensor, fans = rooms_fans
    assert field.num_obstacles == 219

    def cast():
        return [
            field.ray_distances_many(origins, angles, sensor.max_range_m, sensor.step_m)
            for origins, angles in fans
        ]

    def dense():
        return [
            dense_march(field, origins, angles, sensor.max_range_m, sensor.step_m)
            for origins, angles in fans
        ]

    for got, expected in zip(cast(), dense()):
        assert np.array_equal(got, expected)
    dense_s, cast_s = time_pairs(lambda: dense, lambda: cast, 5)
    speedup = dense_s / cast_s
    print(
        f"\n[rooms, {field.num_obstacles} circles, {CAST_ORIGINS}x{sensor.num_rays} rays/call] "
        f"dense {dense_s / CAST_BATCHES * 1e6:.0f} us/call, "
        f"cast {cast_s / CAST_BATCHES * 1e6:.0f} us/call, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_CAST_SPEEDUP


def _scalar_sense(sensor: RaySensor, field: ObstacleField, position: np.ndarray) -> np.ndarray:
    """The pre-vectorization RaySensor loop: one ray march per ray."""
    readings = np.empty(sensor.num_rays)
    for index, relative_angle in enumerate(sensor.ray_angles):
        direction = np.array([np.cos(relative_angle), np.sin(relative_angle)])
        distance = sensor.step_m
        while distance < sensor.max_range_m:
            if field.collides(position + distance * direction):
                break
            distance += sensor.step_m
        readings[index] = min(distance, sensor.max_range_m) / sensor.max_range_m
    return readings


@pytest.mark.benchmark(group="ray-sense-12rays")
def test_bench_ray_sense_scalar_loop(benchmark, field):
    sensor = RaySensor(num_rays=12, max_range_m=6.0, step_m=0.1)
    result = benchmark(_scalar_sense, sensor, field, np.array([2.0, 10.0]))
    assert result.shape == (12,)


@pytest.mark.benchmark(group="ray-sense-12rays")
def test_bench_ray_sense_batched(benchmark, field):
    sensor = RaySensor(num_rays=12, max_range_m=6.0, step_m=0.1)
    result = benchmark(sensor.sense, field, np.array([2.0, 10.0]), 0.0)
    assert result.shape == (12,)


@pytest.mark.benchmark(group="world-generation")
@pytest.mark.parametrize("family", ["corridor", "forest", "urban", "rooms", "dynamic"])
def test_bench_generate_world(benchmark, family):
    world = benchmark(generate_world, WorldSpec(family, seed=0))
    assert world.field.num_obstacles > 0


# ---------------------------------------------------------------------- timed segments
# The ROADMAP flagged ``segment_collides_timed`` as the next hot path: the
# old implementation froze the whole field once per motion sample (a python
# loop rebuilding an (N_static + N_movers) snapshot 8 times per step), which
# scales badly when mover counts grow 10x.  The vectorized broadcast keeps
# one static-mask query plus one movers x samples distance matrix.

NUM_MOVERS_10X = 40  # ~10x the dynamic family's default mover count


@pytest.fixture(scope="module")
def dynamic_field_10x():
    from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle

    rng = np.random.default_rng(0)
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(1.0, 19.0, size=(3, 2)),
            radius=0.4,
            speed_m_s=float(rng.uniform(0.5, 1.5)),
            phase_m=float(rng.uniform(0.0, 8.0)),
        )
        for _ in range(NUM_MOVERS_10X)
    )
    field = DynamicObstacleField(
        world_size=(20.0, 20.0),
        centers=rng.uniform(1.0, 19.0, size=(12, 2)),
        radii=rng.uniform(0.3, 0.8, size=12),
        movers=movers,
    )
    starts = rng.uniform(0.5, 19.5, size=(64, 2))
    ends = starts + rng.uniform(-1.2, 1.2, size=(64, 2))
    t0s = rng.uniform(0.0, 30.0, size=64)
    return field, starts, ends, t0s


def _snapshot_loop_timed(field, starts, ends, t0s, radius=0.25, samples=8):
    """The pre-vectorization reference: freeze a snapshot per motion sample."""
    out = np.zeros(len(starts), dtype=bool)
    fractions = np.linspace(0.0, 1.0, samples)
    for index, (start, end, t0) in enumerate(zip(starts, ends, t0s)):
        for fraction in fractions:
            snapshot = field.at_time(float(t0) + float(fraction) * 0.5)
            if snapshot.collides(start + fraction * (end - start), radius):
                out[index] = True
                break
    return out


@pytest.mark.benchmark(group="timed-segments-40movers")
def test_bench_timed_segments_snapshot_loop(benchmark, dynamic_field_10x):
    field, starts, ends, t0s = dynamic_field_10x
    result = benchmark(_snapshot_loop_timed, field, starts, ends, t0s)
    assert result.shape == (64,)


@pytest.mark.benchmark(group="timed-segments-40movers")
def test_bench_timed_segments_broadcast(benchmark, dynamic_field_10x):
    field, starts, ends, t0s = dynamic_field_10x
    result = benchmark(
        field.segments_collide_timed, starts, ends, t0s, t0s + 0.5, 0.25
    )
    assert np.array_equal(result, _snapshot_loop_timed(field, starts, ends, t0s))

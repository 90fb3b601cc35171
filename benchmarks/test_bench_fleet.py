"""Benchmark: city-scale fleet lockstep advancement.

One :meth:`~repro.fleet.sim.FleetSim.step` advances every airborne vehicle
through a handful of fleet-wide batched queries — a timed ray fan, two timed
segment sweeps, and prescreened conflict detection — so the per-step cost
must stay sub-linear in python dispatch as the fleet grows.  The 1000-UAV
group is the acceptance workload: a fleet the spatial-hash prescreen was
built for (the all-pairs candidate set alone would be ~500k pairs/step).

Two ratio gates time the step's hot queries in interleaved pairs (the root
conftest's ``time_pairs``): the sort-based conflict prescreen against the
dict-bucket one it replaced, and the steering sweep's fan of segments
against the dense per-row query.

Timings land in the PR 8 benchmark ledger like every other group (one
``bench.<name>.duration_s`` histogram per benchmark via conftest).
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.envs.obstacles import ObstacleField, circle_distances
from repro.fleet import FleetConfig, FleetSim
from repro.fleet.conflicts import all_pairs, candidate_conflict_pairs
from repro.fleet.sim import STEER_OFFSETS
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle

NUM_VEHICLES = 1000
BENCH_STEPS = 10


def _city_field() -> DynamicObstacleField:
    """A 150x150 m airspace: scattered static blockers plus patrol movers."""
    rng = np.random.default_rng(42)
    num_static = 60
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(10.0, 140.0, size=(4, 2)),
            radius=1.0,
            speed_m_s=2.0,
            phase_m=float(rng.uniform(0.0, 30.0)),
        )
        for _ in range(12)
    )
    return DynamicObstacleField(
        world_size=(150.0, 150.0),
        centers=rng.uniform(5.0, 145.0, size=(num_static, 2)),
        radii=rng.uniform(0.8, 2.5, size=num_static),
        movers=movers,
    )


@pytest.fixture(scope="module")
def fleet_setup():
    field = _city_field()
    config = FleetConfig(
        num_vehicles=NUM_VEHICLES,
        max_steps=BENCH_STEPS,
        num_chargers=16,
        separation_m=0.8,
    )
    return field, config


def _run_steps(field, config):
    sim = FleetSim(field, config, rng=0)
    for _ in range(BENCH_STEPS):
        sim.step()
    return sim


@pytest.mark.benchmark(group="fleet-1000-uav")
def test_bench_fleet_1000_steps(benchmark, fleet_setup):
    field, config = fleet_setup
    sim = benchmark.pedantic(_run_steps, args=(field, config), rounds=3, iterations=1)
    assert sim.step_index == BENCH_STEPS
    assert int(np.count_nonzero(sim.airborne)) > NUM_VEHICLES // 2
    print(f"\n[fleet] {NUM_VEHICLES} UAVs, {BENCH_STEPS} lockstep steps per round")


def test_fleet_1000_steps_per_second():
    """Acceptance: the 1000-UAV lockstep core sustains whole-fleet steps at
    interactive rates, and the prescreen keeps exact conflict checks to a
    small fraction of the ~500k all-pairs set."""
    from repro.obs import collecting_metrics

    field = _city_field()
    config = FleetConfig(num_vehicles=NUM_VEHICLES, max_steps=BENCH_STEPS)

    best = float("inf")
    with collecting_metrics() as registry:
        for _ in range(3):
            start = time.perf_counter()
            _run_steps(field, config)
            best = min(best, time.perf_counter() - start)
    steps_per_s = BENCH_STEPS / best
    snapshot = registry.snapshot()
    checked = snapshot["counters"].get("fleet.conflict_checks", 0)
    candidate_budget = 3 * BENCH_STEPS * all_pairs(NUM_VEHICLES).shape[0]
    print(
        f"\n[fleet] {steps_per_s:.1f} fleet-steps/s at N={NUM_VEHICLES} "
        f"({steps_per_s * NUM_VEHICLES:.0f} vehicle-steps/s); "
        f"exact conflict checks {checked} of {candidate_budget} all-pairs"
    )
    assert steps_per_s >= 1.0
    assert 0 < checked < candidate_budget / 10


# ---------------------------------------------------------------------- conflict prescreen
#: Interleaved (dict buckets, sort-based hash) pairs timed by the prescreen gate.
PRESCREEN_PAIRS = 20


def test_conflict_prescreen_speedup(fleet_setup, dict_bucket_candidates, time_pairs):
    """Acceptance gate: the sort-based prescreen >= 5x faster than the dict
    buckets on a freshly placed 1000-UAV fleet, with identical candidates."""
    field, config = fleet_setup
    sim = FleetSim(field, config, rng=0)
    lengths = np.full(NUM_VEHICLES, config.speed_m_s * config.step_duration_s)
    arguments = (sim.positions, lengths, config.separation_m)
    expected = dict_bucket_candidates(*arguments)
    got = candidate_conflict_pairs(*arguments)
    assert got.shape[0] > 0
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    dict_s, sorted_s = time_pairs(
        lambda: partial(dict_bucket_candidates, *arguments),
        lambda: partial(candidate_conflict_pairs, *arguments),
        PRESCREEN_PAIRS,
    )
    speedup = dict_s / sorted_s
    print(
        f"\n[conflict prescreen, {NUM_VEHICLES} starts, {got.shape[0]} candidates] "
        f"dict buckets {dict_s * 1e3:.2f} ms, sort-based {sorted_s * 1e3:.2f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


# ---------------------------------------------------------------------- steering sweep
# Steering validates every candidate heading of every vehicle in one timed
# segment query: 1000 vehicles x 7 headings = 7000 segments at one lockstep
# start/end pair, passed as one fan of 7 ends per vehicle.  The reference
# below is the former query on the flattened segments: every segment
# sampled densely against every circle, and every mover placed by its own
# ``positions_at`` at each of the 56,000 sample rows' times.  The field now
# takes each start's clearance once per fan, samples only segments whose
# start is within reach of an obstacle, and places the movers once per
# distinct sample time.

STEERING_START_S, STEERING_END_S = 2.0, 2.5

#: Interleaved (dense, fan) pairs timed by the steering gate.
STEERING_PAIRS = 5


def _dense_segments_collide_timed(field, starts, ends, start_times, end_times, radius):
    """The former ``DynamicObstacleField.segments_collide_timed`` (8 samples)."""
    fractions = np.linspace(0.0, 1.0, 8)
    points = starts[:, None, :] + fractions[None, :, None] * (ends - starts)[:, None, :]
    points = points.reshape(-1, 2)
    hit = ObstacleField._collide_mask(field, points, radius)
    if not hit.all():
        times = (
            start_times[:, None] + fractions[None, :] * (end_times - start_times)[:, None]
        ).reshape(-1)
        centers = np.stack([mover.positions_at(times) for mover in field.movers])
        radii = np.array([mover.radius for mover in field.movers])
        distances = circle_distances(
            points[:, 0], points[:, 1], centers[:, :, 0], centers[:, :, 1], radii[:, None]
        )
        hit |= distances.min(axis=0) < radius
    return hit.reshape(starts.shape[0], fractions.size).any(axis=1)


@pytest.fixture(scope="module")
def steering_sweep(fleet_setup):
    """Every candidate heading of a freshly placed 1000-UAV fleet, as the
    (N, 7, 2) fan of candidate ends ``FleetSim`` passes."""
    field, config = fleet_setup
    sim = FleetSim(field, config, rng=0)
    to_goal = sim.goals - sim.positions
    angles = np.arctan2(to_goal[:, 1], to_goal[:, 0])[:, None] + STEER_OFFSETS[None, :]
    advance = config.speed_m_s * config.step_duration_s
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    fan = sim.positions[:, None, :] + advance * directions
    return field, sim.positions, fan, config.vehicle_radius_m


def test_steering_sweep_speedup(steering_sweep, time_pairs):
    """Acceptance gate: >= 4x over the dense query on the 7000-segment
    steering sweep, with bitwise-equal masks in both time orders."""
    field, starts, fan, radius = steering_sweep
    assert fan.shape == (NUM_VEHICLES, STEER_OFFSETS.size, 2)
    flat_starts = np.repeat(starts, STEER_OFFSETS.size, axis=0)
    flat_ends = fan.reshape(-1, 2)
    count = flat_starts.shape[0]
    forward = (np.full(NUM_VEHICLES, STEERING_START_S), np.full(NUM_VEHICLES, STEERING_END_S))
    flat_forward = tuple(np.repeat(row, STEER_OFFSETS.size) for row in forward)
    query = DynamicObstacleField.segments_collide_timed
    for times, flat_times in ((forward, flat_forward), (forward[::-1], flat_forward[::-1])):
        expected = _dense_segments_collide_timed(
            field, flat_starts, flat_ends, *flat_times, radius
        )
        assert 0 < np.count_nonzero(expected) < count
        got = query(field, starts, fan, *times, radius)
        assert np.array_equal(got, expected.reshape(fan.shape[:-1]))
    dense_s, fan_s = time_pairs(
        lambda: partial(
            _dense_segments_collide_timed,
            field, flat_starts, flat_ends, *flat_forward, radius,
        ),
        lambda: partial(query, field, starts, fan, *forward, radius),
        STEERING_PAIRS,
    )
    speedup = dense_s / fan_s
    print(
        f"\n[steering sweep, {count} segments, {field.num_movers} movers] "
        f"dense {dense_s * 1e3:.1f} ms, prescreened fan {fan_s * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 4.0

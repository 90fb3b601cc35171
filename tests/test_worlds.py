"""Tests for the procedural world-generation subsystem (repro.worlds)."""

import math

import numpy as np
import pytest

from repro.core.scenarios import GeneralizedScenario
from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleField
from repro.errors import ConfigurationError
from repro.experiments.generalization import (
    FAMILY_PRESETS,
    assemble_generalization,
    generalization_sweep_spec,
)
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepRunner
from repro.runtime.jobs import run_job
from repro.runtime.registry import get_registered_sweep
from repro.uav.platform import CRAZYFLIE
from repro.worlds import (
    DynamicObstacleField,
    MovingObstacle,
    SensorDegradation,
    WindGust,
    WorldSpec,
    ascii_map,
    generate_world,
    get_world_family,
    perturbation_from_jsonable,
    perturbation_to_jsonable,
    registered_families,
    render_world,
    validate_world,
    world_metrics,
)

REQUIRED_FAMILIES = ("corridor", "forest", "urban", "rooms", "dynamic")


class TestWorldSpec:
    def test_hash_is_stable_and_order_independent(self):
        a = WorldSpec("corridor", {"gap_m": 1.5, "num_walls": 5}, seed=3)
        b = WorldSpec("corridor", {"num_walls": 5, "gap_m": 1.5}, seed=3)
        assert a == b
        assert a.spec_hash == b.spec_hash
        assert hash(a) == hash(b)

    def test_hash_depends_on_every_axis(self):
        base = WorldSpec("forest", {"spacing_end_m": 1.5}, seed=0)
        assert base.spec_hash != WorldSpec("forest", {"spacing_end_m": 1.5}, seed=1).spec_hash
        assert base.spec_hash != WorldSpec("forest", {"spacing_end_m": 1.6}, seed=0).spec_hash
        assert base.spec_hash != WorldSpec("rooms", {}, seed=0).spec_hash

    def test_serialization_round_trip(self):
        spec = WorldSpec("urban", {"street_m": 2.0, "open_fraction": 0.3}, seed=11)
        rebuilt = WorldSpec.from_jsonable(spec.to_jsonable())
        assert rebuilt == spec
        assert rebuilt.spec_hash == spec.spec_hash

    def test_with_seed(self):
        spec = WorldSpec("rooms", {"door_m": 2.0}, seed=0)
        reseeded = spec.with_seed(9)
        assert reseeded.family == spec.family
        assert reseeded.params == spec.params
        assert reseeded.seed == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorldSpec("", seed=0)
        with pytest.raises(ConfigurationError):
            WorldSpec("corridor", seed=-1)
        with pytest.raises(ConfigurationError):
            WorldSpec.from_jsonable({"params": {}})


def test_worlds_is_importable_first():
    """repro.worlds must import cleanly as the *first* repro import.

    Regression guard: worlds -> envs(package) -> navigation once re-imported
    worlds at module level, which broke any program whose entry point was the
    worlds package itself.
    """
    import os
    import subprocess
    import sys

    code = "import repro.worlds, repro.envs, repro.core.scenarios; print('ok')"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ)
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


class TestRegistry:
    def test_required_families_registered(self):
        families = registered_families()
        for name in REQUIRED_FAMILIES:
            assert name in families
        assert len(families) >= 5

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            get_world_family("does-not-exist")

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_world(WorldSpec("corridor", {"gap_mm": 2.0}, seed=0))

    def test_generation_is_deterministic(self):
        spec = WorldSpec("forest", seed=4)
        a, b = generate_world(spec), generate_world(spec)
        assert np.array_equal(a.field.centers, b.field.centers)
        assert np.array_equal(a.field.radii, b.field.radii)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.goal, b.goal)

    def test_generated_worlds_pass_validation(self):
        for family in registered_families():
            world = generate_world(WorldSpec(family, seed=1))
            assert validate_world(world) == []

    def test_validate_world_reports_blocked_start(self):
        world = generate_world(WorldSpec("uniform", seed=0))
        blocked = ObstacleField(
            world.world_size,
            np.vstack([world.field.centers, world.start[None, :]]),
            np.concatenate([world.field.radii, [1.0]]),
        )
        problems = validate_world(
            type(world)(spec=world.spec, field=blocked, start=world.start, goal=world.goal)
        )
        assert any("start" in problem for problem in problems)


def _snapshot_segment_collides(field, start, end, t0, t1, radius, samples=8):
    """The reference: freeze an ``at_time`` snapshot at every motion sample."""
    for fraction in np.linspace(0.0, 1.0, samples):
        snapshot = field.at_time(float(t0) + float(fraction) * (float(t1) - float(t0)))
        if snapshot.collides(start + fraction * (end - start), radius):
            return True
    return False


def _head_on_field():
    """A 20 x 10 m world: one static circle of radius 1 at (15, 5), and one
    mover of radius 1 driving +x along y = 2 at 2 m/s (x = 4 at t = 1 s,
    x = 5 at t = 1.5 s) on a 20 m loop."""
    return DynamicObstacleField(
        world_size=(20.0, 10.0),
        centers=np.array([[15.0, 5.0]]),
        radii=np.array([1.0]),
        movers=(
            MovingObstacle(
                waypoints=np.array([[2.0, 2.0], [12.0, 2.0]]), radius=1.0, speed_m_s=2.0
            ),
        ),
    )


#: Segments of length 0.5 m (or 0) over 0.5 s for a vehicle of radius
#: 0.25 m, each starting exactly at the prescreen bound of one obstacle of
#: :func:`_head_on_field` and heading straight at it:
#: ``(start, motion, t0, t1, unit vector away from the obstacle)``.  The
#: bound is ``length + radius`` from a static surface or wall and
#: ``length + speed * |t1 - t0| + radius`` (1.75 m) from a mover's surface.
PRESCREEN_BOUND_CASES = {
    "mover": ((6.75, 2.0), (-0.5, 0.0), 1.0, 1.5, (1.0, 0.0)),
    "static-circle": ((13.25, 5.0), (0.5, 0.0), 1.0, 1.5, (-1.0, 0.0)),
    "wall": ((0.75, 8.0), (-0.5, 0.0), 1.0, 1.5, (1.0, 0.0)),
    # Time runs backwards along the segment, so the mover (x = 5 at t0)
    # comes back toward the vehicle.
    "reversed-times": ((2.25, 2.0), (0.5, 0.0), 1.5, 1.0, (-1.0, 0.0)),
    # A hovering vehicle: only the mover's motion can close the gap.
    "zero-length": ((6.25, 2.0), (0.0, 0.0), 1.0, 1.5, (1.0, 0.0)),
}


def _timed_segment_and_sampled(monkeypatch, field, start, end, t0, t1, radius):
    """``segments_collide_timed`` on one segment, and whether it was sampled."""
    sampled = []
    collide_mask = ObstacleField._collide_mask

    def spy(self, points, vehicle_radius):
        sampled.append(len(points))
        return collide_mask(self, points, vehicle_radius)

    with monkeypatch.context() as patch:
        patch.setattr(ObstacleField, "_collide_mask", spy)
        hit = field.segments_collide_timed(start[None], end[None], [t0], [t1], radius)[0]
    return bool(hit), bool(sampled)


class TestDynamicField:
    def test_mover_follows_waypoints(self):
        mover = MovingObstacle(
            waypoints=np.array([[0.0, 0.0], [4.0, 0.0]]), radius=0.5, speed_m_s=1.0
        )
        assert np.allclose(mover.position_at(0.0), [0.0, 0.0])
        assert np.allclose(mover.position_at(2.0), [2.0, 0.0])
        # The loop closes: 4 m out + 4 m back = 8 m loop.
        assert np.allclose(mover.position_at(6.0), [2.0, 0.0])
        assert np.allclose(mover.position_at(8.0), [0.0, 0.0])

    def test_at_time_merges_static_and_movers(self):
        field = DynamicObstacleField(
            world_size=(10.0, 10.0),
            centers=np.array([[2.0, 2.0]]),
            radii=np.array([0.5]),
            movers=(
                MovingObstacle(
                    waypoints=np.array([[5.0, 5.0], [8.0, 5.0]]), radius=0.4, speed_m_s=1.0
                ),
            ),
        )
        snapshot = field.at_time(1.0)
        assert snapshot.num_obstacles == 2
        assert np.allclose(snapshot.centers[-1], [6.0, 5.0])
        # The static view ignores movers; the timed view tracks them.
        assert not field.collides(np.array([6.0, 5.0]))
        assert snapshot.collides(np.array([6.0, 5.0]))

    def test_positions_at_matches_scalar_walk(self):
        def scalar_walk(mover, time_s):
            """Independent reference: the original per-instant arc walk."""
            lengths = np.linalg.norm(
                np.roll(mover.waypoints, -1, axis=0) - mover.waypoints, axis=1
            )
            total = float(lengths.sum())
            if total <= 0.0 or mover.speed_m_s == 0.0:
                return mover.waypoints[0].copy()
            arc = (mover.phase_m + mover.speed_m_s * float(time_s)) % total
            for index, length in enumerate(lengths):
                if arc <= length or index == len(lengths) - 1:
                    fraction = 0.0 if length == 0.0 else min(1.0, arc / length)
                    start = mover.waypoints[index]
                    end = mover.waypoints[(index + 1) % len(mover.waypoints)]
                    return start + fraction * (end - start)
                arc -= length

        mover = MovingObstacle(
            waypoints=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0]]),
            radius=0.5,
            speed_m_s=1.3,
            phase_m=2.1,
        )
        times = np.linspace(0.0, 25.0, 101)
        batched = mover.positions_at(times)
        expected = np.array([scalar_walk(mover, t) for t in times])
        assert np.array_equal(batched, expected)
        assert np.array_equal(mover.position_at(7.7), scalar_walk(mover, 7.7))

    def test_loop_table_places_every_mover_like_positions_at(self):
        """The field's one walk over all mover loops is each mover's own
        ``positions_at``, bitwise, whatever the loop's shape."""
        movers = (
            MovingObstacle(np.array([[1.0, 1.0], [6.0, 2.0]]), 0.3, 1.1, 0.4),
            MovingObstacle(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0]]), 0.5, 1.3, 2.1),
            MovingObstacle(
                np.array([[1.0, 1.0], [9.0, 1.5], [8.0, 7.0], [5.0, 9.0], [1.5, 6.0]]),
                0.4,
                0.7,
                11.0,
            ),
            # Just before its wrap, this loop's rounded arc-length chain
            # overshoots the last segment, which takes it only as the last.
            MovingObstacle(
                np.array([[9.0, 4.6], [7.6, 4.9], [7.1, 3.2], [8.9, 2.7]]), 0.4, 1.0, 0.0
            ),
            # A repeated waypoint: a zero-length segment inside the loop.
            MovingObstacle(np.array([[2.0, 2.0], [2.0, 2.0], [5.0, 6.0]]), 0.4, 0.8, 0.0),
            MovingObstacle(np.array([[3.0, 3.0], [7.0, 3.0]]), 0.4, 0.0, 1.0),
            # A zero-length loop: every waypoint equal.
            MovingObstacle(np.array([[8.0, 8.0]] * 3), 0.4, 1.5, 0.5),
        )
        field = DynamicObstacleField(
            world_size=(10.0, 10.0), centers=np.empty((0, 2)), radii=np.empty(0), movers=movers
        )
        wraps = np.array(
            [
                (mover.loop_length_m - mover.phase_m) / mover.speed_m_s
                for mover in movers
                if mover.speed_m_s > 0.0 and mover.loop_length_m > 0.0
            ]
        )
        times = np.concatenate(
            [
                np.full(3, 3.7),  # one instant shared by several rows
                [0.0, -0.0],
                np.nextafter(wraps, -np.inf),
                wraps,
                np.nextafter(wraps, np.inf),
                wraps + 0.25,  # just past each loop's first wrap
                3.0 * wraps + 0.1,  # a few laps on
                np.linspace(0.0, 40.0, 81),
            ]
        )
        placed = field._mover_loops.place(times)
        assert placed.shape == (len(movers), times.size, 2)
        for mover, positions in zip(movers, placed):
            assert positions.tobytes() == mover.positions_at(times).tobytes()

    def test_positions_at_stationary_mover(self):
        mover = MovingObstacle(
            waypoints=np.array([[1.0, 2.0], [3.0, 2.0]]), radius=0.5, speed_m_s=0.0
        )
        positions = mover.positions_at(np.array([0.0, 5.0, 10.0]))
        assert np.allclose(positions, [[1.0, 2.0]] * 3)

    def test_segments_collide_timed_matches_snapshot_loop(self):
        """The broadcast path equals the freeze-a-snapshot-per-sample reference."""
        rng = np.random.default_rng(0)
        movers = tuple(
            MovingObstacle(
                waypoints=rng.uniform(1.0, 9.0, size=(3, 2)),
                radius=0.4,
                speed_m_s=float(rng.uniform(0.5, 2.0)),
                phase_m=float(rng.uniform(0.0, 5.0)),
            )
            for _ in range(4)
        )
        field = DynamicObstacleField(
            world_size=(10.0, 10.0),
            centers=rng.uniform(1.0, 9.0, size=(5, 2)),
            radii=rng.uniform(0.3, 0.7, size=5),
            movers=movers,
        )

        starts = rng.uniform(0.5, 9.5, size=(24, 2))
        ends = rng.uniform(0.5, 9.5, size=(24, 2))
        t0s = rng.uniform(0.0, 20.0, size=24)
        t1s = t0s + 0.5
        batched = field.segments_collide_timed(starts, ends, t0s, t1s, 0.25)
        expected = [
            _snapshot_segment_collides(field, s, e, t0, t1, 0.25)
            for s, e, t0, t1 in zip(starts, ends, t0s, t1s)
        ]
        assert batched.tolist() == expected
        # Both outcomes are represented in the sample, or the test is vacuous.
        assert any(expected) and not all(expected)
        for s, e, t0, t1, want in zip(starts, ends, t0s, t1s, expected):
            assert field.segment_collides_timed(s, e, t0, t1, 0.25) == want

    @pytest.mark.parametrize("side", ["inside", "outside"])
    @pytest.mark.parametrize("case", sorted(PRESCREEN_BOUND_CASES))
    def test_segment_prescreen_at_its_bound(self, monkeypatch, case, side):
        """A start 1 nm inside the bound is sampled and collides; 1 nm
        outside it is cleared without sampling.  Both match the snapshot
        loop."""
        field = _head_on_field()
        start, motion, t0, t1, away = PRESCREEN_BOUND_CASES[case]
        start = np.array(start) + (-1e-9 if side == "inside" else 1e-9) * np.array(away)
        end = start + np.array(motion)
        hit, sampled = _timed_segment_and_sampled(monkeypatch, field, start, end, t0, t1, 0.25)
        assert hit == _snapshot_segment_collides(field, start, end, t0, t1, 0.25)
        assert hit == sampled == (side == "inside")

    def test_segment_prescreen_samples_out_of_bounds_starts(self, monkeypatch):
        field = _head_on_field()
        for start, end in (
            ((-0.5, 5.0), (0.0, 5.0)),
            ((20.3, 9.0), (20.3, 9.0)),
            ((10.0, -0.1), (10.0, 0.4)),
            ((10.0, 10.2), (10.0, 11.0)),
        ):
            start, end = np.array(start), np.array(end)
            hit, sampled = _timed_segment_and_sampled(
                monkeypatch, field, start, end, 1.0, 1.5, 0.25
            )
            assert hit and sampled
            assert _snapshot_segment_collides(field, start, end, 1.0, 1.5, 0.25)

    def test_segment_collides_timed(self):
        field = DynamicObstacleField(
            world_size=(10.0, 10.0),
            centers=np.empty((0, 2)),
            radii=np.empty(0),
            movers=(
                MovingObstacle(
                    waypoints=np.array([[5.0, 2.0], [5.0, 8.0]]), radius=0.6, speed_m_s=2.0
                ),
            ),
        )
        # Crossing x=5 while the mover is near y=5 collides; the same motion
        # at a time when the mover is far away does not.
        assert field.segment_collides_timed(
            np.array([4.0, 5.0]), np.array([6.0, 5.0]), 1.2, 1.8, vehicle_radius=0.25
        )
        assert not field.segment_collides_timed(
            np.array([4.0, 8.0]), np.array([6.0, 8.0]), 0.0, 0.5, vehicle_radius=0.25
        )


_GOOD_WAYPOINTS = np.array([[1.0, 1.0], [4.0, 2.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: ObstacleField((bad, 10.0), np.empty((0, 2)), np.empty(0)),
        lambda bad: ObstacleField((10.0, bad), np.empty((0, 2)), np.empty(0)),
        lambda bad: ObstacleField((10.0, 10.0), np.array([[bad, 5.0]]), np.array([1.0])),
        lambda bad: ObstacleField((10.0, 10.0), np.array([[5.0, 5.0]]), np.array([bad])),
        lambda bad: MovingObstacle(np.array([[1.0, 1.0], [bad, 2.0]]), 0.5, 1.0),
        lambda bad: MovingObstacle(_GOOD_WAYPOINTS, bad, 1.0),
        lambda bad: MovingObstacle(_GOOD_WAYPOINTS, 0.5, bad),
        lambda bad: MovingObstacle(_GOOD_WAYPOINTS, 0.5, 1.0, bad),
    ],
    ids=[
        "world-width",
        "world-height",
        "centers",
        "radii",
        "waypoints",
        "mover-radius",
        "mover-speed",
        "mover-phase",
    ],
)
def test_non_finite_geometry_is_rejected(build, bad):
    """NaN passes every ``<= 0`` check, and a NaN or infinite obstacle
    silently blinds the queries (a NaN radius reads as free space), so
    construction must refuse it."""
    with pytest.raises(ConfigurationError):
        build(bad)


class TestPerturbations:
    def test_wind_displacement(self):
        wind = WindGust(drift_m_s=(1.0, -0.5), gust_std_m_s=0.0)
        displacement = wind.displacement(np.random.default_rng(0), duration_s=2.0)
        assert np.allclose(displacement, [2.0, -1.0])

    def test_sensor_degradation_dropout_reads_free_space(self):
        degradation = SensorDegradation(dropout_prob=1.0)
        readings = degradation.apply(np.full(8, 0.2), np.random.default_rng(0))
        assert np.allclose(readings, 1.0)

    def test_sensor_noise_stays_normalized(self):
        degradation = SensorDegradation(noise_std=0.5)
        readings = degradation.apply(np.full(64, 0.5), np.random.default_rng(0))
        assert readings.min() >= 0.0 and readings.max() <= 1.0

    def test_serialization_round_trip(self):
        for perturbation in (
            WindGust(drift_m_s=(0.4, 0.1), gust_std_m_s=0.2),
            SensorDegradation(dropout_prob=0.1, noise_std=0.05),
        ):
            payload = perturbation_to_jsonable(perturbation)
            assert perturbation_from_jsonable(payload) == perturbation

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            perturbation_from_jsonable({"kind": "earthquake"})


class TestNavigationIntegration:
    def test_env_from_world_spec(self):
        config = NavigationConfig(world_spec=WorldSpec("corridor", seed=2))
        env = NavigationEnv(config, rng=0)
        observation = env.reset(seed=0)
        assert observation.shape == env.observation_space.shape
        # The generated world supplies geometry: corridor worlds are 24 x 12.
        assert env.world_size == (24.0, 12.0)
        result = env.step(12)
        assert np.isfinite(result.reward)

    def test_dynamic_world_advances_time(self):
        config = NavigationConfig(world_spec=WorldSpec("dynamic", seed=3))
        env = NavigationEnv(config, rng=0)
        env.reset(seed=0)
        assert env.time_s == 0.0
        env.step(12)
        assert env.time_s == pytest.approx(config.step_duration_s)
        env.reset(seed=1)
        assert env.time_s == 0.0

    def test_wind_changes_trajectory_deterministically(self):
        base = NavigationConfig(world_spec=WorldSpec("forest", seed=1))
        windy = NavigationConfig(
            world_spec=WorldSpec("forest", seed=1),
            perturbations=(WindGust(drift_m_s=(0.0, 0.8)),),
        )
        env_base, env_windy = NavigationEnv(base, rng=0), NavigationEnv(windy, rng=0)
        env_base.reset(seed=0), env_windy.reset(seed=0)
        env_base.step(12), env_windy.step(12)
        assert not np.allclose(env_base.position, env_windy.position)
        env_windy_2 = NavigationEnv(windy, rng=0)
        env_windy_2.reset(seed=0)
        env_windy_2.step(12)
        assert np.allclose(env_windy.position, env_windy_2.position)

    def test_sensor_degradation_applies_to_observation(self):
        clean = NavigationConfig(world_spec=WorldSpec("forest", seed=1))
        degraded = NavigationConfig(
            world_spec=WorldSpec("forest", seed=1),
            perturbations=(SensorDegradation(dropout_prob=1.0),),
        )
        num_rays = clean.ray_sensor.num_rays
        obs_clean = NavigationEnv(clean, rng=0).reset(seed=0)
        obs_degraded = NavigationEnv(degraded, rng=0).reset(seed=0)
        assert np.allclose(obs_degraded[:num_rays], 1.0)
        assert not np.allclose(obs_clean[:num_rays], 1.0)

    def test_randomized_world_spec_resets_replay_identically(self):
        config = NavigationConfig(
            world_spec=WorldSpec("rooms", seed=0), randomize_obstacles_on_reset=True
        )
        a, b = NavigationEnv(config, rng=0), NavigationEnv(config, rng=0)
        specs = []
        for index in range(3):
            a.reset(seed=10 + index), b.reset(seed=10 + index)
            assert a.world_spec == b.world_spec
            assert np.array_equal(a.obstacle_field.centers, b.obstacle_field.centers)
            specs.append(a.world_spec)
        assert len({spec.seed for spec in specs}) == 3  # fresh world per reset


class TestMetricsAndRender:
    def test_metrics_shape(self):
        metrics = world_metrics(generate_world(WorldSpec("corridor", seed=0)))
        assert metrics.path_stretch >= 1.0
        assert 0.0 < metrics.occupancy_fraction < 1.0
        assert np.isfinite(metrics.grid_path_m)

    def test_harder_preset_is_harder(self):
        easy = world_metrics(generate_world(WorldSpec("uniform", {"density": "sparse"}, seed=0)))
        hard = world_metrics(generate_world(WorldSpec("uniform", {"density": "dense"}, seed=0)))
        assert hard.occupancy_fraction > easy.occupancy_fraction

    def test_ascii_render_marks_endpoints(self):
        world = generate_world(WorldSpec("urban", seed=0))
        art = render_world(world, cols=48)
        assert "S" in art and "G" in art and "#" in art
        assert len(art.splitlines()) >= 4

    def test_ascii_map_plain_field(self):
        field = ObstacleField((10.0, 10.0), np.array([[5.0, 5.0]]), np.array([2.0]))
        art = ascii_map(field, cols=20)
        assert "#" in art and "." in art


class TestGeneralizedScenario:
    def scenario(self) -> GeneralizedScenario:
        return GeneralizedScenario(
            world=WorldSpec("corridor", {"gap_m": 1.6}, seed=5),
            platform=CRAZYFLIE,
            policy_name="C3F2",
            compute_power_multiplier=1.0,
            ber_percent=0.1,
        )

    def test_job_round_trip(self):
        scenario = self.scenario()
        result = run_job(scenario.job_spec())
        assert result["scenario"] == scenario.name
        assert result["family"] == "corridor"
        assert 0.0 <= result["berry_success_pct"] <= 100.0
        assert result["berry_success_pct"] >= result["classical_success_pct"]
        assert result["path_stretch"] >= 1.0

    def test_environment_factory(self):
        env = self.scenario().environment(rng=0)
        observation = env.reset(seed=0)
        assert observation.shape == env.observation_space.shape

    def test_job_results_are_reproducible(self):
        spec = self.scenario().job_spec()
        assert run_job(spec) == run_job(spec)


class TestGeneralizationSweep:
    def test_sweep_size_and_registration(self):
        entry = get_registered_sweep("generalization")
        sweep = entry.spec()
        assert len(sweep) >= 1000
        families = {job.params["world"]["family"] for job in sweep.jobs}
        assert set(REQUIRED_FAMILIES) <= families

    def test_preset_families_cover_required(self):
        assert set(REQUIRED_FAMILIES) <= {family for family, _ in FAMILY_PRESETS}

    def test_sharded_cached_resumable_slice(self, tmp_path):
        sweep = generalization_sweep_spec(presets=FAMILY_PRESETS[:2], seeds=(0,))
        runner = SweepRunner(
            cache=ResultCache(root=tmp_path / "cache"), journal_dir=tmp_path / "journals"
        )
        first = runner.run(sweep, shard=(0, 12))
        assert first.executed == len(sweep) // 12
        # Same shard again: everything resumes from the result store.
        second = runner.run(sweep, shard=(0, 12))
        assert second.executed == 0
        assert second.cache_hits == first.executed

    def test_assemble_aggregates_by_family_and_ber(self):
        sweep = generalization_sweep_spec(presets=(("uniform", {"density": "sparse"}),), seeds=(0,))
        results = [run_job(job) for job in sweep.jobs]
        table = assemble_generalization(sweep, results)
        assert table.rows
        assert {row["family"] for row in table.rows} == {"uniform"}
        by_ber = {row["ber_percent"]: row for row in table.rows}
        assert by_ber[1.0]["berry_drop_vs_p0_pct"] >= by_ber[0.01]["berry_drop_vs_p0_pct"]

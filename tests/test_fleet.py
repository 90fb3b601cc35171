"""The fleet rollout core: conflicts, streaming stats, sim, and the sweep.

The prescreen contract is the load-bearing property here: the spatial hash
must be an *exact superset* filter, so prescreened conflict detection agrees
pair-for-pair with the brute-force all-pairs check on any geometry the
hypothesis strategies can draw.  The sort-based hash must also list exactly
the candidates of the dict-bucket prescreen it replaced (the root
conftest's ``dict_bucket_candidates``), because the candidate count is the
``fleet.conflict_checks`` counter and an over-inclusive hash would pass the
superset tests.  The rest pins the streaming Welford/Chan moments against
numpy, fleet determinism, battery logistics, and the registered
``fleet-reliability`` sweep end to end through the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.obstacles import ObstacleField, planar_distances
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    FleetSim,
    StreamingMoments,
    all_pairs,
    candidate_conflict_pairs,
    conflicting_pairs,
    detect_conflicts,
    run_fleet_episodes,
)
from repro.fleet.reliability import (
    assemble_fleet_reliability,
    corruption_probability,
    fleet_reliability_sweep_spec,
)
from repro.fleet.sim import CHARGING, CRASHED, DONE, TO_CHARGER
from repro.obs import collecting_metrics
from repro.runtime.engine import run_sweep
from repro.worlds.dynamic import DynamicObstacleField


def _open_field(size: float = 30.0) -> ObstacleField:
    return ObstacleField(
        world_size=(size, size),
        centers=np.empty((0, 2)),
        radii=np.empty(0),
    )


# --------------------------------------------------------------------------- conflicts
class TestConflictDetection:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=120),
        separation=st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_prescreen_equals_all_pairs(self, seed, count, separation):
        """Prescreen + exact check returns exactly the all-pairs answer."""
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 25.0, size=(count, 2))
        ends = starts + rng.uniform(-1.2, 1.2, size=(count, 2))
        fast = detect_conflicts(starts, ends, float(separation))
        brute = conflicting_pairs(starts, ends, float(separation))
        assert np.array_equal(fast, brute)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=80),
    )
    @settings(max_examples=25, deadline=None)
    def test_candidates_are_a_superset_of_conflicts(self, seed, count):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 15.0, size=(count, 2))
        ends = starts + rng.uniform(-1.0, 1.0, size=(count, 2))
        lengths = np.sqrt(((ends - starts) ** 2).sum(axis=1))
        candidates = {tuple(row) for row in candidate_conflict_pairs(starts, lengths, 0.8)}
        conflicts = {tuple(row) for row in conflicting_pairs(starts, ends, 0.8)}
        assert conflicts <= candidates

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=0, max_value=300),
        layout=st.sampled_from(("world", "outside", "crowded", "far")),
        zero_length=st.booleans(),
        separation=st.floats(min_value=1e-6, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_candidates_equal_dict_bucket_reference(
        self, dict_bucket_candidates, seed, count, layout, zero_length, separation
    ):
        """The sort-based hash lists the dict buckets' candidates bitwise,
        and ``fleet.conflict_checks`` counts the same pairs."""
        rng = np.random.default_rng(seed)
        if layout == "world":
            starts = rng.uniform(0.0, 25.0, size=(count, 2))
        elif layout == "outside":  # beyond a 25 m world, negative coordinates too
            starts = rng.uniform(-60.0, 60.0, size=(count, 2))
        elif layout == "crowded":  # a few cells, repeated starts
            starts = rng.uniform(-1.0, 1.0, size=(count, 2))
            starts[::3] = starts[:1]
        else:  # ~1e12 m apart at a ~1e-6 m grid: ~1e18 cells per axis
            starts = rng.uniform(-1e12, 1e12, size=(count, 2))
            starts[1::3] = starts[::3][: len(starts[1::3])]
            starts[2::3] = np.nextafter(starts[::3][: len(starts[2::3])], np.inf)
            separation = 1e-6 * (1.0 + separation)
        steps = np.zeros((count, 2)) if zero_length else rng.uniform(-1.2, 1.2, (count, 2))
        ends = starts + steps
        lengths = planar_distances(ends - starts)
        expected = dict_bucket_candidates(starts, lengths, separation)
        got = candidate_conflict_pairs(starts, lengths, separation)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
        if count >= 2:
            with collecting_metrics() as registry:
                detect_conflicts(starts, ends, separation)
            checks = registry.snapshot()["counters"]["fleet.conflict_checks"]
            assert checks == expected.shape[0]

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=60),
        exponent=st.integers(min_value=7, max_value=15),
    )
    @settings(max_examples=30, deadline=None)
    def test_candidates_stay_exact_beyond_int64_cells(self, seed, count, exponent):
        """At cell indices past int64 (1e12 m apart on a 1e-15 m grid) the
        hash still lists exactly the pairs in touching cells that the
        triangle bound keeps, checked over all pairs."""
        rng = np.random.default_rng(seed)
        starts = rng.uniform(-1e12, 1e12, size=(count, 2))
        starts[1::3] = starts[::3][: len(starts[1::3])]
        starts[2::3] = np.nextafter(starts[::3][: len(starts[2::3])], -np.inf)
        separation = 10.0**-exponent
        lengths = np.zeros(count)
        pairs = all_pairs(count)
        cells = np.floor(starts / separation)
        touching = (np.abs(cells[pairs[:, 0]] - cells[pairs[:, 1]]) <= 1.0).all(axis=1)
        near = planar_distances(starts[pairs[:, 0]] - starts[pairs[:, 1]]) < separation
        expected = pairs[touching & near]
        assert np.array_equal(candidate_conflict_pairs(starts, lengths, separation), expected)
        assert expected.shape[0] >= count // 3

    def test_prescreen_prunes_far_apart_vehicles(self):
        """A spread-out fleet reaches the exact check with ~O(N) candidates."""
        side = 40
        xs, ys = np.meshgrid(np.arange(side) * 10.0, np.arange(side) * 10.0)
        starts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        ends = starts + np.array([0.5, 0.0])
        lengths = np.full(starts.shape[0], 0.5)
        candidates = candidate_conflict_pairs(starts, lengths, 0.8)
        assert candidates.shape[0] == 0
        assert all_pairs(starts.shape[0]).shape[0] == side**2 * (side**2 - 1) // 2

    def test_crossing_pair_is_detected_and_parallel_pair_is_not(self):
        starts = np.array([[0.0, 0.0], [1.0, -1.0], [10.0, 10.0]])
        ends = np.array([[2.0, 0.0], [1.0, 1.0], [12.0, 10.0]])
        pairs = detect_conflicts(starts, ends, separation_m=0.5)
        assert pairs.tolist() == [[0, 1]]

    def test_separation_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            detect_conflicts(np.zeros((2, 2)), np.ones((2, 2)), 0.0)


# --------------------------------------------------------------------------- streaming stats
class TestStreamingMoments:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_mean_and_variance(self, seed, count):
        values = np.random.default_rng(seed).normal(5.0, 3.0, size=count)
        acc = StreamingMoments()
        for value in values:
            acc.update(value)
        assert acc.count == count
        assert acc.mean == pytest.approx(values.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(values.var(ddof=1), rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        left=st.integers(min_value=0, max_value=60),
        right=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_pooled_stream(self, seed, left, right):
        """Chan's merge of two shards equals streaming the pooled values."""
        values = np.random.default_rng(seed).uniform(-4.0, 9.0, size=left + right)
        first, second = StreamingMoments(), StreamingMoments()
        first.update_many(values[:left])
        second.update_many(values[left:])
        first.merge(second)
        pooled = StreamingMoments()
        pooled.update_many(values)
        assert first.count == pooled.count
        assert first.mean == pytest.approx(pooled.mean, rel=1e-12, abs=1e-12)
        assert first.m2 == pytest.approx(pooled.m2, rel=1e-9, abs=1e-9)

    def test_ci95_tightens_with_count(self):
        narrow, wide = StreamingMoments(), StreamingMoments()
        wide.update_many(np.array([0.0, 1.0] * 8))
        narrow.update_many(np.array([0.0, 1.0] * 800))
        assert narrow.ci95[1] - narrow.ci95[0] < wide.ci95[1] - wide.ci95[0]
        assert narrow.ci95[0] < narrow.mean < narrow.ci95[1]

    def test_jsonable_round_trip(self):
        acc = StreamingMoments()
        acc.update_many(np.array([1.0, 2.0, 7.5]))
        restored = StreamingMoments.from_jsonable(acc.to_jsonable())
        assert restored == acc
        with pytest.raises(ConfigurationError):
            StreamingMoments.from_jsonable({"count": 1})


# --------------------------------------------------------------------------- fleet sim
class TestFleetSim:
    def test_same_seed_gives_identical_episode(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=12, max_steps=60, launch_per_step=4)
        first = FleetSim(field, config, rng=7).run()
        second = FleetSim(field, config, rng=7).run()
        assert first == second

    def test_open_field_fleet_reaches_goals(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=10, max_steps=200)
        result = FleetSim(field, config, rng=1).run()
        assert result.success_fraction == 1.0
        assert result.crash_fraction == 0.0
        assert result.mean_steps_to_goal > 0
        assert result.mean_energy_used_j > 0

    def test_tiny_battery_forces_charge_stops(self):
        """A battery good for a few steps trips the reserve rule: vehicles
        divert, dock, recharge, and still finish the mission."""
        field = _open_field()
        config = FleetConfig(
            num_vehicles=6,
            max_steps=4000,
            battery_capacity_j=90.0,
            charge_power_w=40.0,
            num_chargers=6,
        )
        sim = FleetSim(field, config, rng=3)
        saw_divert = saw_charging = False
        while sim.step_index < config.max_steps and not sim.finished:
            sim.step()
            saw_divert = saw_divert or bool((sim.states == TO_CHARGER).any())
            saw_charging = saw_charging or bool((sim.states == CHARGING).any())
        assert saw_divert and saw_charging
        assert sim.charge_stops > 0
        assert (sim.states == DONE).any()

    def test_dense_fleet_records_conflicts(self):
        """Vehicles funnelled through a shared 4x4 box must yield."""
        field = _open_field(4.0)
        config = FleetConfig(num_vehicles=16, max_steps=120, separation_m=1.0)
        result = FleetSim(field, config, rng=5).run()
        assert result.conflicts > 0

    def test_dynamic_field_without_movers_flies_like_static_field(self):
        """Only the field knows whether time matters: a dynamic field with no
        movers gives the fleet bitwise the static field's flight."""
        rng = np.random.default_rng(23)
        centers = rng.uniform(2.0, 28.0, size=(40, 2))
        radii = rng.uniform(0.4, 1.2, size=40)
        config = FleetConfig(
            num_vehicles=80, max_steps=60, launch_per_step=10, action_corruption_prob=0.1
        )
        static = FleetSim(ObstacleField((30.0, 30.0), centers, radii), config, rng=4)
        dynamic = FleetSim(
            DynamicObstacleField((30.0, 30.0), centers, radii, movers=()), config, rng=4
        )
        for _ in range(config.max_steps):
            static.step()
            dynamic.step()
            assert np.array_equal(static.positions, dynamic.positions)
            assert np.array_equal(static.states, dynamic.states)
            assert np.array_equal(static.energies, dynamic.energies)
        assert static.run() == dynamic.run()
        assert (static.states == CRASHED).any() and (static.states == DONE).any()
        assert static.conflicts > 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_vehicles=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(action_corruption_prob=1.5)
        with pytest.raises(ConfigurationError):
            FleetConfig(battery_reserve_factor=0.5)

    def test_episode_streaming_matches_sequential_results(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=8, max_steps=80)
        moments = run_fleet_episodes(field, config, num_episodes=3, rng=11)
        assert moments["success_fraction"].count == 3
        assert 0.0 <= moments["success_fraction"].mean <= 1.0
        # Accumulators keep folding across calls (sharded aggregation).
        more = run_fleet_episodes(field, config, 2, rng=12, accumulators=moments)
        assert more["success_fraction"].count == 5


# --------------------------------------------------------------------------- the sweep
class TestFleetReliabilitySweep:
    def test_corruption_probability_chain(self):
        assert corruption_probability(0.0) == 0.0
        assert corruption_probability(100.0) == 1.0
        assert corruption_probability(0.1) == pytest.approx(
            1.0 - (1.0 - 0.001) ** 16
        )

    def test_small_slice_through_the_engine(self):
        sweep = fleet_reliability_sweep_spec(
            voltages=(1.43, 0.71),
            world_seeds=(0,),
            num_vehicles=6,
            episodes_per_job=1,
            max_steps=40,
        )
        assert len(sweep.jobs) == 2
        results = run_sweep(sweep)
        table = assemble_fleet_reliability(sweep, results)
        assert len(table.rows) == 2
        nominal, undervolted = table.rows
        assert nominal["voltage_vmin"] == 1.43
        assert undervolted["voltage_vmin"] == 0.71
        assert nominal["corruption_prob"] < undervolted["corruption_prob"]
        assert {"success_pct", "success_ci95_pct", "mean_energy_used_j"} <= set(nominal)

    def test_assembler_rejects_empty_results(self):
        sweep = fleet_reliability_sweep_spec(voltages=(1.43,), world_seeds=(0,))
        with pytest.raises(ConfigurationError):
            assemble_fleet_reliability(sweep, [None])

"""Tests for the runtime's declarative job specs and spec factories."""

import dataclasses
import pickle

import pytest

from repro.core.scenarios import (
    DEFAULT_SCENARIO_VOLTAGES,
    Scenario,
    iterate_scenarios,
    scenario_count,
    scenario_sweep_spec,
)
from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, SweepSpec, _registered, registered_kinds, run_job


class TestJobSpec:
    def test_hash_is_stable_and_order_insensitive(self):
        first = JobSpec(kind="demo", params={"a": 1, "b": [1, 2]})
        second = JobSpec(kind="demo", params={"b": (1, 2), "a": 1})
        assert first.spec_hash == second.spec_hash
        assert first == second
        assert hash(first) == hash(second)

    def test_different_params_different_hash(self):
        base = JobSpec(kind="demo", params={"a": 1})
        assert base.spec_hash != JobSpec(kind="demo", params={"a": 2}).spec_hash
        assert base.spec_hash != JobSpec(kind="other", params={"a": 1}).spec_hash

    def test_seed_is_deterministic_and_in_range(self):
        spec = JobSpec(kind="demo", params={"a": 1})
        again = JobSpec(kind="demo", params={"a": 1})
        assert spec.seed == again.seed
        assert 0 <= spec.seed < 2**31 - 1
        assert spec.seed != JobSpec(kind="demo", params={"a": 2}).seed

    def test_pickle_roundtrip(self):
        spec = JobSpec(kind="demo", params={"x": [1.5, 2.5], "name": "s"})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_empty_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="", params={})

    def test_unknown_kind_rejected_at_run(self):
        with pytest.raises(ConfigurationError):
            run_job(JobSpec(kind="no.such.kind", params={}))


class TestSweepSpec:
    def _sweep(self, count=5):
        return SweepSpec(
            name="demo",
            jobs=tuple(JobSpec(kind="demo", params={"i": i}) for i in range(count)),
        )

    def test_sweep_hash_depends_on_jobs(self):
        assert self._sweep(5).sweep_hash == self._sweep(5).sweep_hash
        assert self._sweep(5).sweep_hash != self._sweep(4).sweep_hash

    def test_shard_indices_partition_the_sweep(self):
        sweep = self._sweep(7)
        shards = [sweep.shard_indices(i, 3) for i in range(3)]
        combined = sorted(index for shard in shards for index in shard)
        assert combined == list(range(7))

    def test_shard_validation(self):
        sweep = self._sweep(3)
        with pytest.raises(ConfigurationError):
            sweep.shard_indices(3, 3)
        with pytest.raises(ConfigurationError):
            sweep.shard_indices(0, 0)


class TestScenarioSpecFactories:
    def test_job_spec_is_declarative(self):
        scenario = list(iterate_scenarios())[10]
        spec = scenario.job_spec()
        assert spec.kind == "scenario.evaluate"
        assert spec.params["scenario"] == scenario.name
        assert spec.params["candidate_voltages"] == [float(v) for v in DEFAULT_SCENARIO_VOLTAGES]

    def test_sweep_spec_covers_all_scenarios(self):
        sweep = scenario_sweep_spec()
        assert len(sweep) == scenario_count()
        assert len({job.spec_hash for job in sweep.jobs}) == scenario_count()

    def test_scenario_job_executes(self):
        scenario = next(iterate_scenarios())
        result = run_job(scenario.job_spec())
        assert result["scenario"] == scenario.name
        assert 0.0 < result["berry_success_pct"] <= 100.0
        assert result["berry_success_pct"] >= result["classical_success_pct"]

    def test_custom_scenario_fields_round_trip_through_the_spec(self):
        """Non-grid multipliers/BER levels must reach the runner, not be
        silently replaced by the canonical values for the policy name."""
        from repro.envs.obstacles import ObstacleDensity
        from repro.uav.platform import CRAZYFLIE

        custom = Scenario(
            density=ObstacleDensity.SPARSE,
            platform=CRAZYFLIE,
            policy_name="C3F2",
            compute_power_multiplier=2.0,
            ber_percent=0.1,
        )
        spec = custom.job_spec()
        assert spec.params["compute_power_multiplier"] == 2.0
        # The canonical scenario of the same *name* has multiplier 1.0 — the
        # specs and their results must still be distinguishable.
        canonical_scenario = dataclasses.replace(custom, compute_power_multiplier=1.0)
        assert canonical_scenario.name == custom.name
        canonical_spec = canonical_scenario.job_spec()
        assert spec.spec_hash != canonical_spec.spec_hash
        result, canonical = run_job(spec), run_job(canonical_spec)
        assert result["flight_energy_j"] != canonical["flight_energy_j"]


class TestRegistryAgreement:
    """The sweep registry and the job-kind registry describe the same work:
    no sweep names a kind that cannot run, and no library runner outlives
    every sweep that ran it.  Kinds the tests register themselves are
    defined outside ``repro`` and are left out."""

    @staticmethod
    def _kinds_by_sweep():
        from repro.runtime.registry import iter_registered_sweeps

        return {
            entry.name: {job.kind for job in entry.spec()}
            for entry in iter_registered_sweeps()
        }

    def test_every_sweep_job_names_a_registered_kind(self):
        kinds = set(registered_kinds())
        for name, used in self._kinds_by_sweep().items():
            assert used <= kinds, (name, used - kinds)

    def test_every_library_kind_runs_in_a_registered_sweep(self):
        used = set().union(*self._kinds_by_sweep().values())
        library = {
            kind
            for kind in registered_kinds()
            if _registered(kind).runner.__module__.startswith("repro.")
        }
        assert "rollout.generalized" in library
        assert library - used == set()


class TestGeneralizedRolloutJob:
    @staticmethod
    def _tiny_sweep():
        from repro.experiments.generalization import generalization_rollout_sweep_spec

        return generalization_rollout_sweep_spec(
            presets=(("uniform", {"density": "sparse"}),),
            seeds=(0,),
            ber_levels=(0.0, 1.0),
            num_episodes=3,
            training_episodes=6,
            num_fault_maps=2,
        )

    def test_generalized_rollout_job_is_deterministic(self):
        spec = self._tiny_sweep().jobs[0]
        assert run_job(spec) == run_job(spec)

    def test_generalized_rollout_result_shape(self):
        results = [run_job(job) for job in self._tiny_sweep().jobs]
        for result in results:
            assert result["family"] == "uniform"
            assert 0.0 <= result["success_pct"] <= 100.0
            assert result["platform"] == "crazyflie"
            assert result["num_episodes"] == 3
        assert {row["ber_percent"] for row in results} == {0.0, 1.0}

    def test_generalized_rollout_assembler_groups_by_family_and_ber(self):
        from repro.experiments.generalization import assemble_generalization_rollouts

        sweep = self._tiny_sweep()
        table = assemble_generalization_rollouts(sweep, [run_job(job) for job in sweep.jobs])
        rows = {(row["family"], row["ber_percent"]): row for row in table.rows}
        assert set(rows) == {("uniform", 0.0), ("uniform", 1.0)}
        assert rows[("uniform", 0.0)]["num_worlds"] == 1

    def test_generalization_rollouts_sweep_registered(self):
        from repro.runtime.registry import get_registered_sweep

        entry = get_registered_sweep("generalization-rollouts")
        assert len(entry.spec()) == 48

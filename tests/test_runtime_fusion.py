"""Job fusion: planning, execution, and fused-vs-unfused bitwise equivalence."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.generalization import generalization_rollout_sweep_spec
from repro.experiments.generalization import FAMILY_PRESETS
from repro.fleet.reliability import fleet_reliability_sweep_spec
from repro.runtime.engine import SweepRunner
from repro.runtime.fusion import (
    FUSED_KIND,
    FusionRule,
    fused_spec,
    fusion_rule_for,
    member_specs,
    plan_fusion,
    register_fusion_rule,
)
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind, run_job
from repro.runtime.journal import Journal
from repro.utils.warmcache import clear_warm_caches


@job_kind("test.fusable")
def _run_fusable(spec):
    """Unfused runner matching the fused rule below exactly (shared == base)."""
    return {
        "value": int(spec.params["base"]) + int(spec.params["level"]),
        "shared": float(spec.params["base"]),
    }


@pytest.fixture(autouse=True)
def _cold_warm_caches():
    """Every test starts cold so sharing comes from fusion, not leftovers."""
    clear_warm_caches()
    yield
    clear_warm_caches()


def _register_test_rule():
    def run_fused(specs):
        base = sum(int(s.params["base"]) for s in specs) / len(specs)
        return [
            {"value": int(s.params["base"]) + int(s.params["level"]), "shared": base}
            for s in specs
        ]

    return register_fusion_rule(
        FusionRule(kind="test.fusable", axis=("level",), run_fused=run_fused)
    )


def _fusable_jobs(bases, levels):
    return [
        JobSpec(kind="test.fusable", params={"base": base, "level": level})
        for base in bases
        for level in levels
    ]


class TestPlanFusion:
    def test_groups_by_invariant_params(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(1, 2), levels=(0, 1, 2))
        plan = plan_fusion(list(enumerate(jobs)))
        assert len(plan.groups) == 2
        assert plan.fused_job_count == 6
        assert plan.singles == []
        # Members keep sweep order within each group.
        for group in plan.groups:
            assert list(group.indices) == sorted(group.indices)

    def test_respects_max_width(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(1,), levels=range(10))
        plan = plan_fusion(list(enumerate(jobs)), max_width=4)
        assert [len(g.indices) for g in plan.groups] == [4, 4, 2]

    def test_singleton_groups_stay_unfused(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(1, 2, 3), levels=(0,))
        plan = plan_fusion(list(enumerate(jobs)))
        assert plan.groups == []
        assert len(plan.singles) == 3

    def test_unregistered_kinds_pass_through(self):
        jobs = [JobSpec(kind="test.double", params={"x": i}) for i in range(4)]
        plan = plan_fusion(list(enumerate(jobs)))
        assert plan.groups == []
        assert len(plan.singles) == 4

    def test_width_one_disables_fusion(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(1,), levels=range(4))
        plan = plan_fusion(list(enumerate(jobs)), max_width=1)
        assert plan.groups == []

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            plan_fusion([], max_width=0)

    def test_conflicting_rule_registration_rejected(self):
        rule = _register_test_rule()
        register_fusion_rule(rule)  # idempotent re-registration is fine
        with pytest.raises(ConfigurationError):
            register_fusion_rule(
                FusionRule(kind="test.fusable", axis=("other",), run_fused=rule.run_fused)
            )


class TestFusedSpec:
    def test_members_reconstruct_hash_identical(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(7,), levels=(0, 1, 2))
        fused = fused_spec(jobs)
        assert fused.kind == FUSED_KIND
        rebuilt = member_specs(fused)
        assert [m.spec_hash for m in rebuilt] == [j.spec_hash for j in jobs]

    def test_mixed_kinds_rejected(self):
        jobs = [
            JobSpec(kind="test.fusable", params={"base": 1, "level": 0}),
            JobSpec(kind="test.double", params={"x": 1}),
        ]
        with pytest.raises(ConfigurationError):
            fused_spec(jobs)

    def test_run_fused_returns_one_result_per_member(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(3,), levels=(0, 1, 2))
        results = run_job(fused_spec(jobs))
        assert [r["value"] for r in results] == [3, 4, 5]

    def test_fusion_key_separates_off_axis_params(self):
        rule = fusion_rule_for("test.fusable") or _register_test_rule()
        a = JobSpec(kind="test.fusable", params={"base": 1, "level": 0})
        b = JobSpec(kind="test.fusable", params={"base": 1, "level": 9})
        c = JobSpec(kind="test.fusable", params={"base": 2, "level": 0})
        assert rule.fusion_key(a) == rule.fusion_key(b)
        assert rule.fusion_key(a) != rule.fusion_key(c)


def _strip_volatile(record):
    return {k: v for k, v in record.items() if k not in ("ts", "duration_s")}


class TestEngineFusion:
    def test_engine_splits_fused_results(self):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(1, 2), levels=(0, 1, 2))
        sweep = SweepSpec(name="fusion-engine", description="", jobs=tuple(jobs))
        fused = SweepRunner().run(sweep)
        unfused = SweepRunner(fusion_width=1).run(sweep)
        assert fused.results == unfused.results
        assert fused.fused_groups == 2
        assert fused.fused_jobs == 6
        assert unfused.fused_groups == 0

    def test_fused_cache_entries_match_unfused(self, tmp_path, store_lines):
        from repro.runtime.cache import ResultCache

        _register_test_rule()
        jobs = _fusable_jobs(bases=(5,), levels=(0, 1, 2, 3))
        sweep = SweepSpec(name="fusion-cache", description="", jobs=tuple(jobs))
        SweepRunner(cache=ResultCache(root=tmp_path / "fused")).run(sweep)
        SweepRunner(cache=ResultCache(root=tmp_path / "unfused"), fusion_width=1).run(sweep)
        fused_lines = store_lines(tmp_path / "fused")
        assert set(fused_lines) == {job.spec_hash for job in jobs}
        assert fused_lines == store_lines(tmp_path / "unfused")

    def test_fused_journal_records_match_unfused(self, tmp_path):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(5,), levels=(0, 1, 2, 3))
        sweep = SweepSpec(name="fusion-journal", description="", jobs=tuple(jobs))
        SweepRunner(journal_dir=tmp_path / "fused").run(sweep)
        SweepRunner(journal_dir=tmp_path / "unfused", fusion_width=1).run(sweep)
        fused_records = [
            _strip_volatile(json.loads(line))
            for line in Journal.for_sweep(sweep, tmp_path / "fused")
            .path.read_text()
            .splitlines()
        ]
        unfused_records = [
            _strip_volatile(json.loads(line))
            for line in Journal.for_sweep(sweep, tmp_path / "unfused")
            .path.read_text()
            .splitlines()
        ]
        key = lambda r: r.get("job", "")
        assert sorted(fused_records, key=key) == sorted(unfused_records, key=key)

    def test_fused_journal_resumes_like_unfused(self, tmp_path):
        _register_test_rule()
        jobs = _fusable_jobs(bases=(5,), levels=(0, 1, 2, 3))
        sweep = SweepSpec(name="fusion-resume", description="", jobs=tuple(jobs))
        first = SweepRunner(journal_dir=tmp_path).run(sweep)
        second = SweepRunner(journal_dir=tmp_path).run(sweep)
        assert second.resumed == len(jobs)
        assert second.executed == 0
        assert second.results == first.results

    def test_fused_group_failure_fails_every_member(self):
        def run_fused(specs):
            raise RuntimeError("fused boom")

        register_fusion_rule(
            FusionRule(kind="test.fuse_fail", axis=("level",), run_fused=run_fused)
        )
        jobs = [
            JobSpec(kind="test.fuse_fail", params={"base": 1, "level": level})
            for level in range(3)
        ]
        sweep = SweepSpec(name="fusion-fail", description="", jobs=tuple(jobs))
        from repro.runtime.engine import SweepExecutionError

        with pytest.raises(SweepExecutionError) as excinfo:
            SweepRunner().run(sweep)
        assert len(excinfo.value.failures) == 3


@pytest.mark.parametrize("width", [1, 4, 16])
class TestRealKindEquivalence:
    """Fused == unfused, bitwise, for the paper's fusable kinds."""

    def test_rollout_generalized(self, width):
        sweep = generalization_rollout_sweep_spec(
            presets=FAMILY_PRESETS[:1],
            seeds=(0,),
            ber_levels=(0.0, 0.05, 0.5),
            num_episodes=2,
            training_episodes=4,
            num_fault_maps=2,
            train_lanes=2,
        )
        unfused = SweepRunner(fusion_width=1).run(sweep)
        clear_warm_caches()
        fused = SweepRunner(fusion_width=width).run(sweep)
        assert fused.results == unfused.results
        if width > 1:
            assert fused.fused_jobs == len(sweep)

    def test_fleet_reliability(self, width):
        sweep = fleet_reliability_sweep_spec(
            voltages=(1.0, 0.9, 0.8),
            world_seeds=(0,),
            num_vehicles=4,
            episodes_per_job=2,
            max_steps=10,
        )
        unfused = SweepRunner(fusion_width=1).run(sweep)
        clear_warm_caches()
        fused = SweepRunner(fusion_width=width).run(sweep)
        assert fused.results == unfused.results

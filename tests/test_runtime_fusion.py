"""Job fusion: planning, group transport, execution, and fused-vs-unfused bitwise equivalence."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.generalization import (
    FAMILY_PRESETS,
    generalization_rollout_sweep_spec,
    generalization_sweep_spec,
)
from repro.fleet.reliability import fleet_reliability_sweep_spec
from repro.obs import collecting_metrics
from repro.runtime.engine import SweepExecutionError, SweepRunner
from repro.runtime.executor import SerialExecutor
from repro.runtime.fusion import fusion_key, plan_fusion
from repro.runtime.jobs import (
    JobSpec,
    SweepSpec,
    fusion_axis,
    job_kind,
    registered_kinds,
    run_group,
    run_job,
)
from repro.runtime.journal import Journal
from repro.runtime.pool import WarmPoolExecutor, shutdown_pool
from repro.utils.serialization import stable_hash
from repro.utils.warmcache import clear_warm_caches


@job_kind("test.fusable", fuse_along=("level",))
def _run_fusable(specs):
    """One runner for lone jobs and fused groups: ``shared`` is computed once
    per group from the base every member has in common."""
    base = sum(int(s.params["base"]) for s in specs) / len(specs)
    return [
        {"value": int(s.params["base"]) + int(s.params["level"]), "shared": base}
        for s in specs
    ]


@job_kind("test.plain")
def _run_plain(spec):
    return {"value": int(spec.params["base"]) + int(spec.params["level"])}


@job_kind("test.fuse_echo", fuse_along=("level",))
def _run_fuse_echo(specs):
    """Reports what it received: each spec's cached and recomputed content
    hash, its position in the group and the group's size."""
    return [
        {
            "spec_hash": spec.spec_hash,
            "content_hash": stable_hash(spec.canonical()),
            "position": position,
            "group": len(specs),
        }
        for position, spec in enumerate(specs)
    ]


@job_kind("test.fuse_fail", fuse_along=("level",))
def _run_fuse_fail(specs):
    raise RuntimeError("fused boom")


@job_kind("test.fuse_fail_level1", fuse_along=("level",))
def _run_fuse_fail_level1(specs):
    """Fails any group that holds the bad member ``level == 1``."""
    if any(int(s.params["level"]) == 1 for s in specs):
        raise RuntimeError("level 1 boom")
    return [{"level": int(s.params["level"])} for s in specs]


@job_kind("test.fuse_short", fuse_along=("level",))
def _run_fuse_short(specs):
    """Returns one result too few."""
    return [{"level": int(s.params["level"])} for s in specs][:-1]


@pytest.fixture(autouse=True)
def _cold_warm_caches():
    """Every test starts cold so sharing comes from fusion, not leftovers."""
    clear_warm_caches()
    yield
    clear_warm_caches()


def _fusable_jobs(bases, levels):
    return [
        JobSpec(kind="test.fusable", params={"base": base, "level": level})
        for base in bases
        for level in levels
    ]


class TestPlanFusion:
    def test_groups_by_invariant_params(self):
        jobs = _fusable_jobs(bases=(1, 2), levels=(0, 1, 2))
        groups = plan_fusion(list(enumerate(jobs)))
        assert [group.indices for group in groups] == [(0, 1, 2), (3, 4, 5)]
        # A group carries the pending specs themselves, in sweep order.
        for group in groups:
            assert all(spec is jobs[index] for index, spec in zip(*group))

    def test_respects_max_width(self):
        jobs = _fusable_jobs(bases=(1,), levels=range(10))
        groups = plan_fusion(list(enumerate(jobs)), max_width=4)
        assert [len(group.indices) for group in groups] == [4, 4, 2]

    def test_singleton_groups_stay_unfused(self):
        jobs = _fusable_jobs(bases=(1, 2, 3), levels=(0,))
        groups = plan_fusion(list(enumerate(jobs)))
        assert [group.indices for group in groups] == [(0,), (1,), (2,)]

    def test_unregistered_kinds_pass_through(self):
        jobs = [JobSpec(kind="test.double", params={"x": 0}) for _ in range(4)]
        groups = plan_fusion(list(enumerate(jobs)))
        assert [group.indices for group in groups] == [(0,), (1,), (2,), (3,)]

    def test_width_one_disables_fusion(self):
        jobs = _fusable_jobs(bases=(1,), levels=range(4))
        groups = plan_fusion(list(enumerate(jobs)), max_width=1)
        assert [len(group.indices) for group in groups] == [1, 1, 1, 1]

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            plan_fusion([], max_width=0)

    def test_conflicting_rule_registration_rejected(self):
        job_kind("test.fusable", fuse_along=("level",))(_run_fusable)  # idempotent
        with pytest.raises(ConfigurationError):
            job_kind("test.fusable", fuse_along=("other",))(_run_fusable)
        with pytest.raises(ConfigurationError):
            job_kind("test.fusable")(_run_fusable)
        assert fusion_axis("test.fusable") == ("level",)

    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["test.fusable", "test.plain", "test.double"]),
                st.integers(0, 2),
                st.integers(0, 5),
                st.integers(1, 3),
            ),
            max_size=40,
        ),
        width=st.integers(1, 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_pending_job_rides_exactly_one_group(self, jobs, width):
        pending, index = [], -1
        for kind, base, level, gap in jobs:
            index += gap  # cache hits leave gaps between pending indices
            pending.append((index, JobSpec(kind=kind, params={"base": base, "level": level})))
        groups = plan_fusion(pending, width)
        members = [(index, spec) for group in groups for index, spec in zip(*group)]
        assert sorted(members, key=lambda member: member[0]) == pending
        assert [group.indices[0] for group in groups] == sorted(
            group.indices[0] for group in groups
        )
        fill = {}
        for group in groups:
            assert 1 <= len(group.indices) <= width
            assert list(group.indices) == sorted(group.indices)
            key = fusion_key(group.specs[0], ("level",))
            if len(group.indices) > 1:
                assert group.specs[0].kind == "test.fusable"
                assert {fusion_key(spec, ("level",)) for spec in group.specs} == {key}
            if group.specs[0].kind == "test.fusable" and width > 1:
                fill.setdefault(key, []).append(len(group.indices))
        # A bucket splits into full-width chunks and one remainder, never finer.
        for sizes in fill.values():
            assert all(size == width for size in sizes[:-1])


class TestFusedSpec:
    """A fused group's specs as :func:`run_group` runs them."""

    def test_mixed_kinds_rejected(self):
        jobs = [
            JobSpec(kind="test.fusable", params={"base": 1, "level": 0}),
            JobSpec(kind="test.plain", params={"base": 1, "level": 0}),
        ]
        with pytest.raises(ConfigurationError, match="mixed kinds"):
            run_group(jobs)

    def test_run_fused_returns_one_result_per_member(self):
        jobs = _fusable_jobs(bases=(3,), levels=(0, 1, 2))
        results = run_group(jobs)
        assert [r["value"] for r in results] == [3, 4, 5]

    def test_fusion_key_separates_off_axis_params(self):
        axis = fusion_axis("test.fusable")
        a = JobSpec(kind="test.fusable", params={"base": 1, "level": 0})
        b = JobSpec(kind="test.fusable", params={"base": 1, "level": 9})
        c = JobSpec(kind="test.fusable", params={"base": 2, "level": 0})
        assert fusion_key(a, axis) == fusion_key(b, axis)
        assert fusion_key(a, axis) != fusion_key(c, axis)

    def test_lone_job_runs_as_group_of_one(self):
        job = JobSpec(kind="test.fusable", params={"base": 3, "level": 2})
        assert run_job(job) == {"value": 5, "shared": 3.0}
        assert run_job(job) == run_group([job, job])[0]

    def test_result_count_is_checked_for_groups_and_lone_jobs(self):
        jobs = _fusable_jobs(bases=(1,), levels=(0, 1, 2))
        jobs = [JobSpec(kind="test.fuse_short", params=job.params) for job in jobs]
        with pytest.raises(RuntimeError, match="returned 2 results for 3 jobs"):
            run_group(jobs)
        with pytest.raises(RuntimeError, match="returned 0 results for 1 jobs"):
            run_job(jobs[0])

    def test_group_of_a_kind_that_does_not_fuse_rejected(self):
        jobs = [JobSpec(kind="test.plain", params={"base": 1, "level": level}) for level in (0, 1)]
        assert run_group(jobs[:1]) == [run_job(jobs[0])] == [{"value": 1}]
        with pytest.raises(ConfigurationError, match="does not fuse"):
            run_group(jobs)


class TestGroupTransport:
    """Executors hand a fusable runner the sweep's own specs, in sweep order."""

    def _sweep(self):
        jobs = [
            JobSpec(kind=kind, params={"base": base, "level": level})
            for base in (1, 2)
            for kind in ("test.fuse_echo", "test.plain")
            for level in (0, 1, 2)
        ]
        return SweepSpec(name="fusion-transport", jobs=tuple(jobs))

    def _check(self, sweep, report):
        echoed = 0
        for spec, result in zip(sweep.jobs, report.results):
            if spec.kind != "test.fuse_echo":
                continue
            echoed += 1
            assert result["spec_hash"] == result["content_hash"] == spec.spec_hash
            assert result["group"] == 3
            assert result["position"] == spec.params["level"]
        assert echoed == 6
        assert (report.fused_groups, report.fused_jobs, report.executed) == (2, 6, 12)

    def test_serial_runner_receives_the_sweeps_own_specs(self):
        sweep = self._sweep()
        self._check(sweep, SweepRunner(executor=SerialExecutor()).run(sweep))

    def test_warm_pool_runner_receives_the_sweeps_own_specs(self):
        sweep = self._sweep()
        shutdown_pool()
        try:
            executor = WarmPoolExecutor(workers=2)
            with collecting_metrics() as registry:
                report = SweepRunner(executor=executor).run(sweep)
            # Two fused groups of three and six groups of one carry 12 jobs.
            assert executor.last_stats["groups"] == 8
            counters = registry.snapshot()["counters"]
            assert counters["pool.groups"] == 8
            assert counters["engine.jobs_executed"] == len(sweep) == 12
        finally:
            shutdown_pool()
        self._check(sweep, report)

    def test_no_synthetic_kind_is_registered(self):
        assert "engine.fused" not in registered_kinds()

    def test_run_group_rejects_empty_groups(self):
        with pytest.raises(ConfigurationError, match="at least one spec"):
            run_group([])


def _strip_volatile(record):
    return {k: v for k, v in record.items() if k not in ("ts", "duration_s")}


class TestEngineFusion:
    def test_engine_splits_fused_results(self):
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

        jobs = _fusable_jobs(bases=(5,), levels=(0, 1, 2, 3))
        sweep = SweepSpec(name="fusion-cache", description="", jobs=tuple(jobs))
        SweepRunner(cache=ResultCache(root=tmp_path / "fused")).run(sweep)
        SweepRunner(cache=ResultCache(root=tmp_path / "unfused"), fusion_width=1).run(sweep)
        fused_lines = store_lines(tmp_path / "fused")
        assert set(fused_lines) == {job.spec_hash for job in jobs}
        assert fused_lines == store_lines(tmp_path / "unfused")

    def test_fused_journal_records_match_unfused(self, tmp_path):
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
        from repro.runtime.cache import ResultCache

        jobs = _fusable_jobs(bases=(5,), levels=(0, 1, 2, 3))
        sweep = SweepSpec(name="fusion-resume", description="", jobs=tuple(jobs))
        runner = lambda: SweepRunner(
            cache=ResultCache(root=tmp_path / "cache"), journal_dir=tmp_path / "journal"
        )
        first = runner().run(sweep)
        second = runner().run(sweep)
        assert second.cache_hits == len(jobs)
        assert second.executed == 0
        assert second.results == first.results

    def test_fused_group_failure_fails_every_member(self):
        jobs = [
            JobSpec(kind="test.fuse_fail", params={"base": 1, "level": level})
            for level in range(3)
        ]
        sweep = SweepSpec(name="fusion-fail", description="", jobs=tuple(jobs))
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepRunner().run(sweep)
        assert len(excinfo.value.failures) == 3

    def test_fused_group_failure_fails_only_the_bad_member(self, tmp_path, store_lines):
        from repro.runtime.cache import ResultCache

        jobs = [
            JobSpec(kind="test.fuse_fail_level1", params={"base": 1, "level": level})
            for level in range(3)
        ]
        sweep = SweepSpec(name="fusion-contain", description="", jobs=tuple(jobs))
        runner = SweepRunner(
            cache=ResultCache(root=tmp_path / "cache"), journal_dir=tmp_path / "journal"
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run(sweep)
        assert [job_id for job_id, _ in excinfo.value.failures] == [jobs[1].job_id]
        stored = store_lines(tmp_path / "cache")
        assert set(stored) == {jobs[0].spec_hash, jobs[2].spec_hash}
        state = Journal.for_sweep(sweep, tmp_path / "journal").load()
        assert state.results == {jobs[0].spec_hash, jobs[2].spec_hash}
        assert set(state.errors) == {jobs[1].spec_hash}


@pytest.mark.parametrize("width", [1, 4, 16])
class TestRealKindEquivalence:
    """Fused == unfused, bitwise, for the paper's fusable kinds."""

    def test_scenario_generalized(self, width):
        sweep = generalization_sweep_spec(presets=FAMILY_PRESETS[:1], seeds=(0,))
        unfused = SweepRunner(fusion_width=1).run(sweep)
        clear_warm_caches()
        fused = SweepRunner(fusion_width=width).run(sweep)
        assert fused.results == unfused.results
        if width > 1:
            assert fused.fused_jobs == len(sweep)

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

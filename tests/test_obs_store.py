"""Tests for the cross-run telemetry layer: run ledger, OpenMetrics, obs CLI.

The acceptance spine: two consecutive CLI runs of the same sweep land two
ledger records with identical spec hashes and comparable fingerprints;
``obs history`` renders the metric series, ``obs diff`` per-metric deltas,
and ``obs check --fail-on-regression`` exits non-zero on a synthetically
injected 3x latency regression.  The OpenMetrics exposition parses under the
(strict subset of the) OpenMetrics grammar and round-trips ``_count``/``_sum``
exactly.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    RunLedger,
    check_ledger,
    detect_regressions,
    diff_records,
    disable_metrics,
    disable_tracing,
    environment_fingerprint,
    metric_value,
    openmetrics_to_snapshot,
    parse_openmetrics,
    span_rollup,
    to_openmetrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import (
    COMPARABLE_FINGERPRINT_KEYS,
    RunRecord,
    comparable_records,
    fingerprint_key,
    history,
    sweep_param_fingerprint,
)
from repro.runtime.cli import main
from repro.runtime.engine import SweepRunner
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.serialization import append_jsonl


@pytest.fixture(autouse=True)
def _reset_global_observability():
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


@job_kind("obs.store.probe")
def _store_probe(spec):
    return spec.params["x"] * 2


def _snapshot_with_durations(durations, extra_counters=None):
    registry = MetricsRegistry()
    for duration in durations:
        registry.histogram("engine.job_duration_s").observe(duration)
    registry.counter("engine.jobs_executed").inc(len(durations))
    for name, value in (extra_counters or {}).items():
        registry.counter(name).inc(value)
    return registry.snapshot()


def _seed_ledger(path, durations_per_run, name="demo", spec_hash="spec-1"):
    """A ledger of synthetic sweep runs, one per duration list, all comparable."""
    ledger = RunLedger(path)
    for durations in durations_per_run:
        ledger.record_run(
            kind="sweep",
            name=name,
            spec_hash=spec_hash,
            wall_time_s=sum(durations),
            counts={"jobs": len(durations), "executed": len(durations)},
            metrics=_snapshot_with_durations(durations),
        )
    return ledger


class TestRunLedger:
    def test_append_content_addresses_records(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01], [0.01]])
        records = ledger.records()
        assert len(records) == 2
        # Same payload but different timestamps: distinct content addresses.
        assert records[0].run_id != records[1].run_id
        assert all(len(record.run_id) == 16 for record in records)
        assert records[0].spec_hash == records[1].spec_hash == "spec-1"

    def test_records_filters_by_name_kind_and_spec_hash(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01]], name="a")
        _seed_ledger(tmp_path / "l.jsonl", [[0.01]], name="b", spec_hash="spec-2")
        assert [r.name for r in ledger.records(name="a")] == ["a"]
        assert [r.name for r in ledger.records(spec_hash="spec-2")] == ["b"]
        assert len(ledger.records(kind="sweep")) == 2
        assert ledger.records(kind="benchmark") == []

    def test_reader_skips_foreign_and_torn_lines(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _seed_ledger(path, [[0.01]])
        append_jsonl(path, {"type": "note", "text": "not a run"})
        with path.open("a") as handle:
            handle.write('{"type": "run", "truncated')  # torn tail write
        assert len(ledger.records()) == 1

    def test_fingerprint_is_comparable_across_git_shas(self):
        fingerprint = environment_fingerprint()
        assert fingerprint["python"] and fingerprint["numpy"]
        assert "git_sha" in fingerprint
        assert "git_sha" not in COMPARABLE_FINGERPRINT_KEYS
        other = dict(fingerprint, git_sha="somewhere-else")
        assert fingerprint_key(other) == fingerprint_key(fingerprint)
        changed = dict(fingerprint, backend="torch.cuda")
        assert fingerprint_key(changed) != fingerprint_key(fingerprint)

    def test_sweep_param_fingerprint_hoists_uniform_params(self):
        sweep = SweepSpec(
            name="s",
            jobs=(
                JobSpec("obs.store.probe", {"x": 1, "train_lanes": 8, "profile": "fast"}),
                JobSpec("obs.store.probe", {"x": 2, "train_lanes": 8, "profile": "fast"}),
            ),
        )
        assert sweep_param_fingerprint(sweep) == {"train_lanes": 8, "profile": "fast"}
        mixed = SweepSpec(
            name="s",
            jobs=(
                JobSpec("obs.store.probe", {"x": 1, "train_lanes": 8}),
                JobSpec("obs.store.probe", {"x": 2, "train_lanes": 16}),
            ),
        )
        assert sweep_param_fingerprint(mixed) == {}

    def test_span_rollup_collapses_by_name(self):
        records = [
            {"name": "a", "dur_ns": 1_000_000},
            {"name": "a", "dur_ns": 3_000_000},
            {"name": "b", "dur_ns": 500_000},
        ]
        rollup = span_rollup(records)
        assert rollup["a"]["count"] == 2
        assert rollup["a"]["total_s"] == pytest.approx(0.004)
        assert rollup["a"]["max_s"] == pytest.approx(0.003)
        assert rollup["b"]["count"] == 1


class TestMetricAddressing:
    def _record(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(4)
        registry.gauge("epsilon").set(0.25)
        for v in (0.01, 0.02, 0.04, 0.08):
            registry.histogram("lat").observe(v)
        return RunRecord.from_dict(
            {"run_id": "r", "kind": "sweep", "name": "n", "spec_hash": "h",
             "ts": 0.0, "metrics": json.loads(json.dumps(registry.snapshot()))}
        )

    def test_counters_gauges_and_histogram_stats(self):
        record = self._record()
        assert metric_value(record, "jobs") == 4.0
        assert metric_value(record, "epsilon") == 0.25
        assert metric_value(record, "lat:count") == 4.0
        assert metric_value(record, "lat:sum") == pytest.approx(0.15)
        assert metric_value(record, "lat:mean") == pytest.approx(0.0375)
        assert metric_value(record, "lat:min") == 0.01
        assert metric_value(record, "lat:max") == 0.08
        # Default stat for a histogram is the median.
        assert metric_value(record, "lat") == metric_value(record, "lat:p50")
        assert metric_value(record, "lat:p50") <= metric_value(record, "lat:p95")

    def test_absent_metric_is_none_and_bad_stat_raises(self):
        record = self._record()
        assert metric_value(record, "missing") is None
        assert metric_value(record, "missing:p50") is None
        with pytest.raises(ValueError):
            metric_value(record, "lat:median")


class TestRegressionDetection:
    def test_three_x_latency_regression_is_flagged(self, tmp_path):
        ledger = _seed_ledger(
            tmp_path / "l.jsonl",
            [[0.01, 0.011, 0.012]] * 4 + [[0.03, 0.033, 0.036]],  # 3x injected
        )
        findings = check_ledger(ledger)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.regressed
        assert finding.metric == "engine.job_duration_s:p50"
        assert finding.ratio == pytest.approx(3.0, rel=0.25)
        assert "REGRESSION" in finding.describe()

    def test_steady_series_passes(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01, 0.012]] * 5)
        findings = check_ledger(ledger)
        assert findings and not any(finding.regressed for finding in findings)

    def test_noisy_baseline_widens_its_own_tolerance(self):
        # Baseline alternating 0.01/0.05: the MAD term dominates the relative
        # threshold, so a 0.06 run (within historical scatter) must pass.
        baseline = [
            RunRecord.from_dict(
                {"run_id": f"r{i}", "kind": "sweep", "name": "n", "spec_hash": "h",
                 "ts": float(i), "metrics": _snapshot_with_durations([v] * 3)}
            )
            for i, v in enumerate([0.01, 0.05, 0.01, 0.05, 0.01, 0.05])
        ]
        current = RunRecord.from_dict(
            {"run_id": "c", "kind": "sweep", "name": "n", "spec_hash": "h",
             "ts": 99.0, "metrics": _snapshot_with_durations([0.06] * 3)}
        )
        findings = detect_regressions(current, baseline)
        assert findings and not findings[0].regressed

    def test_thin_baseline_produces_no_finding(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01], [0.1]])
        assert check_ledger(ledger) == []  # 1 baseline run < min_baseline=2
        assert len(check_ledger(ledger, min_baseline=1)) == 1

    def test_incomparable_runs_never_enter_the_baseline(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _seed_ledger(path, [[0.001]] * 4, spec_hash="other-spec")  # fast, other spec
        ledger = _seed_ledger(path, [[0.03]] * 3)  # slow but steady, our spec
        records = ledger.records(name="demo")
        current = records[-1]
        comparable = comparable_records(records, current)
        assert all(record.spec_hash == current.spec_hash for record in comparable)
        findings = check_ledger(ledger)
        # Judged only against its own spec's steady 0.03 baseline: no flag.
        assert findings and not any(f.regressed for f in findings)

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            detect_regressions(
                RunRecord.from_dict({"run_id": "c", "kind": "sweep", "name": "n",
                                     "spec_hash": "h", "ts": 0.0}),
                [],
                threshold=1.0,
            )


class TestDiffAndHistory:
    def test_history_renders_the_series_in_order(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01], [0.02], [0.04]])
        series = history(ledger.records(name="demo"), "engine.job_duration_s:p50")
        values = [value for _, value in series]
        assert values == sorted(values)
        assert len(values) == 3

    def test_diff_reports_delta_and_ratio(self, tmp_path):
        ledger = _seed_ledger(tmp_path / "l.jsonl", [[0.01], [0.03]])
        a, b = ledger.records()
        rows = {row["metric"]: row for row in diff_records(a, b)}
        p50 = rows["engine.job_duration_s:p50"]
        assert p50["delta"] == pytest.approx(0.02)
        assert p50["ratio"] == pytest.approx(3.0)
        assert rows["engine.jobs_executed"]["delta"] == 0.0


class TestEngineLedgerIntegration:
    def _sweep(self):
        return SweepSpec(
            name="ledger-probe",
            jobs=tuple(JobSpec("obs.store.probe", {"x": i}) for i in range(3)),
        )

    def test_runner_appends_one_record_per_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        runner = SweepRunner(ledger=ledger)
        report = runner.run(self._sweep())
        assert report.results == [0, 2, 4]
        records = ledger.records()
        assert len(records) == 1
        record = records[0]
        assert record.kind == "sweep"
        assert record.name == "ledger-probe"
        assert record.spec_hash == self._sweep().sweep_hash
        assert record.counts == {
            "jobs": 3, "executed": 3, "cache_hits": 0, "skipped": 0, "failed": 0,
        }
        assert record.wall_time_s > 0
        assert record.fingerprint["python"]

    def test_ledger_write_failure_does_not_fail_the_run(self, tmp_path):
        class ExplodingLedger(RunLedger):
            def record_sweep(self, sweep, report, failures=0):
                raise OSError("disk full")

        runner = SweepRunner(ledger=ExplodingLedger(tmp_path / "l.jsonl"))
        report = runner.run(self._sweep())
        assert report.results == [0, 2, 4]


class TestObsCli:
    """The acceptance spine, end to end through ``main``."""

    def _run_fig1(self, tmp_path, *extra):
        return main(
            ["-q", "run", "fig1", "--no-cache", "--no-journal", "--format", "none",
             "--ledger", str(tmp_path / "ledger.jsonl"), *extra]
        )

    def test_two_runs_one_series(self, tmp_path, capsys):
        assert self._run_fig1(tmp_path) == 0
        assert self._run_fig1(tmp_path) == 0
        records = RunLedger(tmp_path / "ledger.jsonl").records(name="fig1")
        assert len(records) == 2
        first, second = records
        # Identical spec hash and comparable fingerprints: one series.
        assert first.spec_hash == second.spec_hash
        assert fingerprint_key(first.fingerprint) == fingerprint_key(second.fingerprint)
        assert comparable_records(records, second) == [first]
        capsys.readouterr()

        # obs history renders the series.
        assert main(["obs", "history", "fig1", "engine.job_duration_s:p50",
                     "--ledger", str(tmp_path / "ledger.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "across 2 runs" in output
        assert first.run_id[:10] in output and second.run_id[:10] in output

        # obs diff shows per-metric deltas between the two runs.
        assert main(["obs", "diff", first.run_id[:8], "-1", "--sweep", "fig1",
                     "--ledger", str(tmp_path / "ledger.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "engine.job_duration_s:p50" in output
        assert "run.wall_time_s" in output

    def test_history_json_and_limit(self, tmp_path, capsys):
        _seed_ledger(tmp_path / "ledger.jsonl", [[0.01], [0.02], [0.04]])
        assert main(["obs", "history", "demo", "engine.job_duration_s:p50",
                     "--ledger", str(tmp_path / "ledger.jsonl"),
                     "--limit", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "engine.job_duration_s:p50"
        assert len(payload["runs"]) == 2
        assert payload["runs"][-1]["value"] >= payload["runs"][0]["value"]

    def test_check_fails_on_injected_3x_regression(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        _seed_ledger(ledger_path, [[0.01, 0.011]] * 4)
        base = ["obs", "check", "--ledger", str(ledger_path), "--fail-on-regression"]
        assert main(base) == 0
        assert "ok" in capsys.readouterr().out

        # Inject the 3x latency regression as the newest run.
        _seed_ledger(ledger_path, [[0.03, 0.033]])
        assert main(base) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err
        # Without the CI flag the same findings exit zero (report-only mode).
        assert main(["obs", "check", "--ledger", str(ledger_path)]) == 0

    def test_diff_rejects_bad_references(self, tmp_path, capsys):
        _seed_ledger(tmp_path / "ledger.jsonl", [[0.01], [0.02]])
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["obs", "diff", "-5", "-1", "--ledger", ledger]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(["obs", "diff", "zzzz", "-1", "--ledger", ledger]) == 2
        assert "no ledger record" in capsys.readouterr().err

    def test_obs_without_ledger_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "history", "fig1",
                     "--ledger", str(tmp_path / "missing.jsonl")]) == 2
        assert "no run ledger" in capsys.readouterr().err

    def test_prom_file_export_parses_and_roundtrips(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert self._run_fig1(tmp_path, "--prom-file", str(prom)) == 0
        text = prom.read_text()
        families = parse_openmetrics(text)  # raises on grammar violations
        assert "engine_job_duration_s" in families
        snapshot = openmetrics_to_snapshot(text)
        assert snapshot["counters"]["engine_jobs_executed"] == 1.0
        ledger_snapshot = RunLedger(tmp_path / "ledger.jsonl").records()[0].metrics
        original = ledger_snapshot["histograms"]["engine.job_duration_s"]
        recovered = snapshot["histograms"]["engine_job_duration_s"]
        # _count/_sum round-trip exactly (acceptance criterion).
        assert recovered["count"] == original["count"]
        assert recovered["sum"] == original["sum"]


class TestOpenMetrics:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("env.steps").inc(1234)
        registry.gauge("train.epsilon").set(0.0625)
        for v in (1e-7, 0.02, 0.02, 0.4, 7.0, 2e10):
            registry.histogram("engine.job_duration_s").observe(v)
        return registry.snapshot()

    def test_exposition_parses_under_the_grammar(self):
        families = parse_openmetrics(to_openmetrics(self._snapshot()))
        assert families["env_steps"]["type"] == "counter"
        assert families["train_epsilon"]["type"] == "gauge"
        assert families["engine_job_duration_s"]["type"] == "histogram"

    def test_count_and_sum_roundtrip_exactly(self):
        snapshot = self._snapshot()
        recovered = openmetrics_to_snapshot(to_openmetrics(snapshot))
        original = snapshot["histograms"]["engine.job_duration_s"]
        assert recovered["histograms"]["engine_job_duration_s"]["count"] == original["count"]
        assert recovered["histograms"]["engine_job_duration_s"]["sum"] == original["sum"]
        assert recovered["counters"]["env_steps"] == 1234.0
        assert recovered["gauges"]["train_epsilon"] == 0.0625

    def test_buckets_are_cumulative_and_inf_equals_count(self):
        text = to_openmetrics(self._snapshot())
        samples = parse_openmetrics(text)["engine_job_duration_s"]["samples"]
        buckets = [(float(labels["le"]), value)
                   for name, labels, value in samples if name.endswith("_bucket")]
        counts = [value for name, _, value in samples
                  if name == "engine_job_duration_s_count"]
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative
        assert math.isinf(buckets[-1][0])
        assert buckets[-1][1] == counts[0] == 6
        # The 2e10 observation lives only in the +Inf bucket (overflow bin).
        assert buckets[-2][1] == 5

    def test_eof_is_mandatory_and_malformed_inputs_raise(self):
        text = to_openmetrics(self._snapshot())
        assert text.endswith("# EOF\n")
        with pytest.raises(ValueError):
            parse_openmetrics(text.replace("# EOF\n", ""))
        with pytest.raises(ValueError):
            parse_openmetrics("orphan_sample 1\n# EOF\n")
        with pytest.raises(ValueError):  # +Inf bucket disagreeing with _count
            parse_openmetrics(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 2\n'
                "h_count 3\nh_sum 1.0\n# EOF\n"
            )

    def test_names_are_sanitised_to_the_prometheus_charset(self):
        registry = MetricsRegistry()
        registry.counter("train.backend.torch.cpu.gradient_steps").inc(2)
        text = to_openmetrics(registry.snapshot())
        assert "train_backend_torch_cpu_gradient_steps_total 2.0" in text

"""Tests for the observability layer: metrics, tracing, capture and heartbeat.

The multiprocess tests pin the contract the sweep engine relies on: each job
collects into a fresh registry/tracer on its worker, ships the delta back as
plain dicts, and the parent merges counters/histograms *exactly* (gauges
last-write-wins) while spans from every pid land on one timeline.
"""

import json
import math
import os
import time

import pytest

from repro.obs import (
    Heartbeat,
    MetricsRegistry,
    NOOP_METRICS,
    chrome_trace_drop_count,
    chrome_trace_to_spans,
    collecting_metrics,
    collecting_trace,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    export_chrome_trace,
    get_metrics,
    get_tracer,
    metrics_enabled,
    observe_job,
    span,
    spans_to_chrome_trace,
    tracing_enabled,
)
from repro.obs.heartbeat import _format_eta
from repro.obs.metrics import _NOOP_INSTRUMENT, Histogram, bin_index, bin_upper_bound
from repro.obs.tracing import NOOP_SPAN
from repro.runtime.engine import SweepRunner
from repro.runtime.executor import MultiprocessExecutor
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.runtime.journal import Journal
from repro.utils.serialization import append_jsonl


@pytest.fixture(autouse=True)
def _reset_global_observability():
    """Every test starts and ends with the module-global no-op state."""
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


@job_kind("obs.probe")
def _probe(spec):
    """Test kind: record deterministic metrics and one span, return the value."""
    value = spec.params["value"]
    metrics = get_metrics()
    metrics.counter("probe.jobs").inc()
    metrics.counter("probe.value_total").inc(value)
    metrics.gauge("probe.last_value").set(value)
    metrics.histogram("probe.value").observe(value)
    with span("probe.work", value=value):
        time.sleep(0.001)
    return {"value": value}


def _probe_sweep(values):
    return SweepSpec(
        name="obs-probe",
        jobs=tuple(JobSpec(kind="obs.probe", params={"value": v}) for v in values),
    )


class TestBinning:
    def test_bin_index_is_monotone_and_bounded(self):
        values = [1e-12, 1e-9, 1e-3, 0.5, 1.0, 7.0, 1e4, 1e9, 1e12]
        indices = [bin_index(v) for v in values]
        assert indices == sorted(indices)
        assert bin_index(0.0) == -1
        assert bin_index(-5.0) == -1
        assert math.isinf(bin_upper_bound(bin_index(1e12)))

    def test_value_falls_under_its_bin_upper_bound(self):
        for value in (3e-7, 0.02, 1.0, 42.0, 9.9e8):
            assert value <= bin_upper_bound(bin_index(value)) * (1 + 1e-12)


class TestMetricsRegistry:
    def test_instruments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.0)
        for v in (0.001, 0.01, 0.1):
            registry.histogram("h").observe(v)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        h = snap["histograms"]["h"]
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(0.111)
        assert (h["min"], h["max"]) == (0.001, 0.1)

    def test_merge_sums_counters_and_histograms_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        for v in (0.5, 1.5):
            a.histogram("h").observe(v)
        for v in (2.5, 0.25):
            b.histogram("h").observe(v)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["gauges"]["g"] == 9.0  # last write wins
        h = snap["histograms"]["h"]
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(4.75)
        assert (h["min"], h["max"]) == (0.25, 2.5)
        # Bin counts merged bin-for-bin: total occurrences preserved.
        assert sum(h["bins"].values()) == 4

    def test_merge_roundtrips_through_json(self):
        a = MetricsRegistry()
        a.counter("c").inc(3)
        a.histogram("h").observe(0.125)
        b = MetricsRegistry()
        b.merge(json.loads(json.dumps(a.snapshot())))
        assert b.snapshot() == a.snapshot()

    def test_quantile_estimates_from_bins(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in [0.01] * 90 + [10.0] * 10:
            h.observe(v)
        assert h.quantile(0.5) < 1.0
        assert h.quantile(0.99) == pytest.approx(10.0)

    def test_quantile_single_observation_returns_it_exactly(self):
        """Corner: with one sample every quantile is that sample, not a bin
        bound — the min(bound, maximum) clamp."""
        h = Histogram()
        h.observe(0.0123)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0123

    def test_quantile_at_bin_edges(self):
        h = Histogram()
        # 0.01 sits exactly on a decade edge of the log-binned scheme.
        edge = 0.01
        assert bin_upper_bound(bin_index(edge) - 1) == pytest.approx(edge)
        for _ in range(4):
            h.observe(edge)
        assert h.quantile(0.5) == edge
        # An underflow-bin population (value <= 0) clamps to the true maximum
        # rather than reporting the underflow bin's bound.
        h_low = Histogram()
        h_low.observe(0.0)
        assert h_low.quantile(0.5) == 0.0
        # Overflow bin: the bound is +inf, so the clamp must report the max.
        h_high = Histogram()
        h_high.observe(1e12)
        assert h_high.quantile(0.5) == 1e12
        assert h_high.quantile(1.0) == 1e12

    def test_quantile_rejects_out_of_range(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        assert Histogram().quantile(0.5) == 0.0  # empty histogram

    def test_histogram_snapshot_roundtrip_is_bin_exact(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (0.001, 0.02, 0.02, 0.4, 7.0, 7.0, 7.0):
            h.observe(v)
        data = json.loads(json.dumps(registry.snapshot()))["histograms"]["h"]
        rebuilt = Histogram.from_snapshot(data)
        assert rebuilt.count == h.count
        assert rebuilt.total == h.total
        assert (rebuilt.minimum, rebuilt.maximum) == (h.minimum, h.maximum)
        for q in (0.1, 0.5, 0.9, 0.95):
            assert rebuilt.quantile(q) == h.quantile(q)


class TestNoopFastPath:
    def test_disabled_registry_is_the_shared_singleton(self):
        assert get_metrics() is NOOP_METRICS
        assert not metrics_enabled()
        # Every accessor returns the one pre-allocated no-op instrument.
        assert get_metrics().counter("a") is _NOOP_INSTRUMENT
        assert get_metrics().gauge("b") is _NOOP_INSTRUMENT
        assert get_metrics().histogram("c") is _NOOP_INSTRUMENT

    def test_disabled_recording_leaves_zero_records(self):
        get_metrics().counter("x").inc(100)
        get_metrics().histogram("y").observe(1.0)
        assert len(get_metrics()) == 0
        assert get_metrics().snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_span_is_the_shared_noop(self):
        assert get_tracer() is None
        assert not tracing_enabled()
        assert span("anything", k=1) is NOOP_SPAN

    def test_enable_disable_cycle(self):
        live = enable_metrics()
        assert get_metrics() is live and metrics_enabled()
        assert enable_metrics() is live  # idempotent
        disable_metrics()
        assert get_metrics() is NOOP_METRICS

    def test_collecting_metrics_restores_previous(self):
        outer = enable_metrics()
        with collecting_metrics() as inner:
            assert get_metrics() is inner
            get_metrics().counter("c").inc()
        assert get_metrics() is outer
        assert outer.snapshot()["counters"] == {}  # the delta stayed isolated
        assert inner.snapshot()["counters"]["c"] == 1


class TestTracing:
    def test_span_nesting_recorded_with_containment(self):
        with collecting_trace() as tracer:
            with span("outer", level=0):
                with span("inner"):
                    time.sleep(0.001)
        records = {r["name"]: r for r in tracer.records()}
        assert set(records) == {"outer", "inner"}
        outer, inner = records["outer"], records["inner"]
        assert inner["ts_ns"] >= outer["ts_ns"]
        assert inner["ts_ns"] + inner["dur_ns"] <= outer["ts_ns"] + outer["dur_ns"]
        assert outer["args"] == {"level": 0}

    def test_ring_is_bounded_and_counts_drops(self):
        with collecting_trace(capacity=4) as tracer:
            for i in range(10):
                with span(f"s{i}"):
                    pass
        assert len(tracer.records()) == 4
        assert tracer.dropped == 6
        # The most recent window is retained, oldest spans dropped.
        assert [r["name"] for r in tracer.records()] == ["s6", "s7", "s8", "s9"]

    def test_chrome_trace_export_round_trip(self, tmp_path):
        with collecting_trace() as tracer:
            with span("parent", job="j1"):
                with span("child"):
                    pass
            records = tracer.records()
        path = export_chrome_trace(tmp_path / "trace.json", records)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"parent", "child"}
        assert all(e["ts"] >= 0 for e in events)  # rebased to t=0
        assert min(e["ts"] for e in events) == 0
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert metadata and metadata[0]["args"]["name"] == f"repro pid {os.getpid()}"

        back = chrome_trace_to_spans(document)
        assert [r["name"] for r in back] == [r["name"] for r in records]
        assert [r["pid"] for r in back] == [r["pid"] for r in records]
        assert next(r for r in back if r["name"] == "parent")["args"] == {"job": "j1"}
        for original, restored in zip(records, back):
            # Durations survive the ns -> us -> ns round trip to rounding.
            assert restored["dur_ns"] == pytest.approx(original["dur_ns"], abs=1000)

    def test_export_with_dropped_spans_preserves_drop_count(self, tmp_path):
        """Round trip with a saturated ring: the retained window exports and
        the drop counter survives the document so a truncated trace stays
        distinguishable from a complete one."""
        with collecting_trace(capacity=3) as tracer:
            for i in range(8):
                with span(f"s{i}"):
                    pass
            records = tracer.records()
            dropped = tracer.dropped
        assert dropped == 5
        path = export_chrome_trace(tmp_path / "trace.json", records, dropped=dropped)
        document = json.loads(path.read_text())
        assert chrome_trace_drop_count(document) == 5
        back = chrome_trace_to_spans(document)
        assert [r["name"] for r in back] == ["s5", "s6", "s7"]
        # Re-exporting the recovered spans keeps the counter explicit.
        redocument = spans_to_chrome_trace(back, dropped=chrome_trace_drop_count(document))
        assert chrome_trace_drop_count(redocument) == 5

    def test_export_of_installed_tracer_autofills_drop_count(self, tmp_path):
        enable_tracing(capacity=2)
        for i in range(5):
            with span(f"s{i}"):
                pass
        path = export_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert chrome_trace_drop_count(document) == 3
        assert len(chrome_trace_to_spans(document)) == 2

    def test_complete_trace_reports_zero_drops(self, tmp_path):
        with collecting_trace() as tracer:
            with span("only"):
                pass
            records = tracer.records()
        document = spans_to_chrome_trace(records)
        assert chrome_trace_drop_count(document) == 0
        assert "otherData" not in document

    def test_absorb_merges_foreign_records(self):
        with collecting_trace() as tracer:
            with span("local"):
                pass
            tracer.absorb([{"name": "remote", "ts_ns": 1, "dur_ns": 2, "pid": 999, "tid": 1}])
            names = {r["name"] for r in tracer.records()}
        assert names == {"local", "remote"}


class TestObserveJob:
    def test_times_without_capture(self):
        watch = observe_job("job-1", "obs.probe", capture=False)
        with watch:
            time.sleep(0.002)
        assert watch.duration_s >= 0.002
        assert watch.delta() == {"duration_s": watch.duration_s}

    def test_capture_isolates_metrics_and_spans(self):
        outer = enable_metrics()
        watch = observe_job("job-2", "obs.probe", capture=True)
        with watch:
            get_metrics().counter("inside").inc(4)
            with span("inner.work"):
                pass
        delta = watch.delta()
        assert delta["metrics"]["counters"] == {"inside": 4}
        names = [r["name"] for r in delta["spans"]]
        assert "inner.work" in names and "job.execute" in names
        execute = next(r for r in delta["spans"] if r["name"] == "job.execute")
        assert execute["args"] == {"job": "job-2", "kind": "obs.probe"}
        # The outer registry never saw the job's recordings.
        assert outer.snapshot()["counters"] == {}
        assert get_metrics() is outer

    def test_capture_tags_errors(self):
        watch = observe_job("job-3", "obs.probe", capture=True)
        with pytest.raises(ValueError):
            with watch:
                raise ValueError("boom")
        execute = next(r for r in watch.delta()["spans"] if r["name"] == "job.execute")
        assert execute["args"]["error"] == "ValueError"


class TestMultiprocessMerge:
    """The tentpole contract: worker deltas merge exactly in the parent."""

    VALUES = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    def _run(self, tmp_path):
        runner = SweepRunner(
            executor=MultiprocessExecutor(workers=2), journal_dir=tmp_path
        )
        return runner.run(_probe_sweep(self.VALUES))

    def test_counters_and_histograms_sum_exactly_across_workers(self, tmp_path):
        registry = enable_metrics()
        report = self._run(tmp_path)
        snap = registry.snapshot()
        assert snap["counters"]["probe.jobs"] == len(self.VALUES)
        assert snap["counters"]["probe.value_total"] == pytest.approx(sum(self.VALUES))
        assert snap["counters"]["engine.jobs_executed"] == len(self.VALUES)
        h = snap["histograms"]["probe.value"]
        assert h["count"] == len(self.VALUES)
        assert h["sum"] == pytest.approx(sum(self.VALUES))
        assert (h["min"], h["max"]) == (min(self.VALUES), max(self.VALUES))
        # Gauges are last-write-wins: the survivor is one job's value (which
        # one depends on worker scheduling).
        assert snap["gauges"]["probe.last_value"] in self.VALUES
        # The merged snapshot also rides on the report.
        assert report.metrics["counters"]["probe.jobs"] == len(self.VALUES)

    def test_worker_spans_land_on_the_parent_timeline(self, tmp_path):
        tracer = enable_tracing()
        self._run(tmp_path)
        records = tracer.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["job.execute"]) == len(self.VALUES)
        assert len(by_name["probe.work"]) == len(self.VALUES)
        assert "sweep.run" in by_name and "engine.dispatch" in by_name
        # Every job ran on a worker, never in the parent process.
        parent = os.getpid()
        assert all(r["pid"] != parent for r in by_name["job.execute"])
        assert all(r["pid"] == parent for r in by_name["sweep.run"])
        # Wall-clock anchoring: worker spans sit inside the parent's root span.
        root = by_name["sweep.run"][0]
        for record in by_name["job.execute"]:
            assert record["ts_ns"] >= root["ts_ns"]
            assert record["ts_ns"] + record["dur_ns"] <= root["ts_ns"] + root["dur_ns"]

    def test_root_span_covers_the_wall_time(self, tmp_path):
        """Acceptance: the exported spans cover >= 95% of wall_time_s."""
        tracer = enable_tracing()
        report = self._run(tmp_path)
        root = next(r for r in tracer.records() if r["name"] == "sweep.run")
        assert root["dur_ns"] / 1e9 >= 0.95 * report.wall_time_s

    def test_disabled_run_ships_no_capture(self, tmp_path):
        report = self._run(tmp_path)
        assert report.metrics is None
        assert get_metrics() is NOOP_METRICS
        assert len(get_metrics()) == 0


class TestJournalTiming:
    def _sweep(self):
        return _probe_sweep([1.0, 2.0])

    def test_old_journals_without_timing_replay_unchanged(self, tmp_path):
        sweep = self._sweep()
        journal = Journal.for_sweep(sweep, tmp_path)
        journal.record_header(sweep)
        for job in sweep.jobs:  # the pre-timing record shape
            append_jsonl(
                journal.path,
                {"type": "result", "job": job.spec_hash, "result": {"value": 1}},
            )
        state = journal.load()
        assert state.completed == 2
        assert state.durations == {}
        status = journal.status(sweep)
        assert status.complete
        assert status.total_duration_s is None
        assert "job time" not in status.describe()

    def test_new_records_carry_ts_and_duration(self, tmp_path):
        sweep = self._sweep()
        journal = Journal.for_sweep(sweep, tmp_path)
        journal.record_header(sweep)
        before = time.time()
        journal.record_result(sweep.jobs[0], duration_s=0.25)
        journal.record_result(sweep.jobs[1], duration_s=1.75)
        records = [json.loads(line) for line in journal.path.read_text().splitlines()][1:]
        assert all(before <= r["ts"] <= time.time() for r in records)
        status = journal.status(sweep)
        assert status.total_duration_s == pytest.approx(2.0)
        assert status.slowest_job_s == pytest.approx(1.75)
        assert status.slowest_job_id == sweep.jobs[1].job_id
        assert "2.00s job time" in status.describe()
        assert "slowest" in status.describe()

    def test_cache_fills_are_tagged(self, tmp_path):
        sweep = self._sweep()
        journal = Journal.for_sweep(sweep, tmp_path)
        journal.record_header(sweep)
        journal.record_result(sweep.jobs[0], source="cache")
        state = journal.load()
        assert state.sources[sweep.jobs[0].spec_hash] == "cache"


class TestHeartbeat:
    def _beat(self, interval_s, total=10):
        clock = [0.0]
        lines = []
        heartbeat = Heartbeat(
            total, interval_s=interval_s, label="test",
            emit=lines.append, clock=lambda: clock[0],
        )
        return heartbeat, clock, lines

    def test_quiet_for_the_first_interval(self):
        heartbeat, clock, lines = self._beat(5.0)
        clock[0] = 1.0
        assert heartbeat.update(1, 0) is None
        clock[0] = 4.9
        assert heartbeat.update(2, 0) is None
        assert lines == []

    def test_emits_once_per_interval(self):
        heartbeat, clock, lines = self._beat(5.0)
        clock[0] = 5.0
        assert heartbeat.update(3, 1) is not None
        clock[0] = 7.0
        assert heartbeat.update(4, 1) is None  # rate limited
        clock[0] = 10.5
        assert heartbeat.update(5, 1) is not None
        assert len(lines) == 2

    def test_interval_zero_emits_every_update(self):
        heartbeat, clock, lines = self._beat(0.0)
        for done in range(1, 4):
            assert heartbeat.update(done, 0) is not None
        assert len(lines) == 3

    def test_line_format(self):
        heartbeat, clock, _ = self._beat(0.0, total=100)
        clock[0] = 10.0
        line = heartbeat.format_line(20, 6)
        assert line.startswith("[test] 20/100 jobs (6 cached) ")
        assert "2.0 jobs/s" in line
        assert "eta 40s" in line

    def test_eta_formatting(self):
        assert _format_eta(45) == "45s"
        assert _format_eta(125) == "2m05s"
        assert _format_eta(7230) == "2h00m"
        assert _format_eta(float("nan")) == "?"
        assert _format_eta(float("inf")) == "?"
        assert _format_eta(-3) == "?"

    def test_zero_elapsed_interval_never_leaks_inf_or_nan(self):
        """Regression: the first update on a coarse clock has elapsed == 0;
        the line must degrade to 0.0 jobs/s + unknown ETA, not crash or
        print inf/nan."""
        heartbeat, clock, _ = self._beat(0.0, total=10)
        line = heartbeat.format_line(3, 0)  # clock never advanced
        assert "0.0 jobs/s" in line
        assert "eta ?" in line
        for forbidden in ("inf", "nan"):
            assert forbidden not in line

    def test_zero_rate_interval_reports_unknown_eta(self):
        heartbeat, clock, _ = self._beat(0.0, total=10)
        clock[0] = 4.0
        line = heartbeat.format_line(0, 0)  # nothing settled yet
        assert "0.0 jobs/s" in line
        assert "eta ?" in line

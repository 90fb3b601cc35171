"""Tests for the sweep engine: executors, cache hit/miss, journal resume, CLI."""

import json
import multiprocessing
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.version
from repro.errors import ConfigurationError
from repro.experiments.fig5 import assemble_fig5, fig5_sweep_spec, generate_fig5_environments
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.engine import SweepExecutionError, SweepRunner, run_sweep
from repro.runtime.executor import MultiprocessExecutor, SerialExecutor, make_executor
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.runtime.journal import Journal
from repro.utils.serialization import save_json
from repro.version import source_fingerprint


@job_kind("test.double")
def _double(spec):
    """Test kind: double the input, optionally recording each execution."""
    log = spec.params.get("log")
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{spec.params['value']}\n")
    return {"value": 2 * spec.params["value"]}


@job_kind("test.fail_until_marker")
def _fail_until_marker(spec):
    """Test kind: fail until its marker file exists (then succeed)."""
    marker = Path(spec.params["marker"])
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("transient failure (first attempt)")
    return {"value": spec.params["value"]}


def _double_sweep(count, log=None, name="test-double"):
    params = lambda i: {"value": i, "log": str(log)} if log else {"value": i}
    return SweepSpec(
        name=name, jobs=tuple(JobSpec(kind="test.double", params=params(i)) for i in range(count))
    )


def _executions(log: Path):
    return log.read_text().splitlines() if log.exists() else []


class TestExecutors:
    def test_serial_and_multiprocess_agree(self):
        sweep = fig5_sweep_spec()
        serial = SweepRunner(executor=SerialExecutor()).run(sweep).results
        parallel = SweepRunner(executor=MultiprocessExecutor(workers=2)).run(sweep).results
        assert serial == parallel

    def test_make_executor_selects_backend(self):
        from repro.runtime.pool import WarmPoolExecutor

        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), WarmPoolExecutor)
        assert make_executor(3).workers == 3

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            MultiprocessExecutor(workers=0)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(kind="test.double", params={"value": 3})
        assert cache.get(spec) is MISS
        cache.put(spec, {"value": 6})
        assert cache.get(spec) == {"value": 6}
        assert spec in cache
        assert len(cache) == 1

    def test_concurrent_puts_of_one_entry_both_succeed(self, tmp_path):
        """Two threads put the same spec at once: each writes whole lines."""
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(kind="test.double", params={"value": 3})
        results = [{"value": label, "pad": [label] * 500} for label in ("first", "second")]
        start = threading.Barrier(2)

        def put(result):
            start.wait(timeout=10)
            return cache.put(spec, result)

        with ThreadPoolExecutor(max_workers=2) as writers:
            segments = list(writers.map(put, results, timeout=10))
        assert segments[0] != segments[1]
        for segment, result in zip(segments, results):
            assert [json.loads(line) for line in segment.read_text().splitlines()] == [
                {
                    "job": spec.spec_hash,
                    "job_id": spec.job_id,
                    "kind": spec.kind,
                    "params": spec.params,
                    "result": result,
                }
            ]
        fresh = ResultCache(root=tmp_path)
        assert fresh.index() == {spec.spec_hash}
        assert len(fresh) == 1
        assert fresh.get(spec) in results

    def test_keyed_by_code_version(self, tmp_path):
        spec = JobSpec(kind="test.double", params={"value": 3})
        ResultCache(root=tmp_path, version="1.0").put(spec, {"value": 6})
        assert ResultCache(root=tmp_path, version="2.0").get(spec) is MISS

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(JobSpec(kind="test.double", params={"value": 1}), {"value": 2})
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_engine_cache_hit_on_rerun(self, tmp_path):
        log = tmp_path / "executions.log"
        sweep = _double_sweep(4, log=log)
        runner = SweepRunner(cache=ResultCache(root=tmp_path / "cache"))
        first = runner.run(sweep)
        assert (first.executed, first.cache_hits) == (4, 0)
        second = runner.run(sweep)
        assert (second.executed, second.cache_hits) == (0, 4)
        assert second.results == first.results
        assert len(_executions(log)) == 4  # nothing re-ran


class TestJournalResume:
    def test_resume_after_partial_run(self, tmp_path):
        log = tmp_path / "executions.log"
        sweep = _double_sweep(6, log=log)
        runner = SweepRunner(journal_dir=tmp_path / "journal")
        partial = runner.run(sweep, shard=(0, 2))
        assert partial.executed == 3
        assert not partial.complete
        full = runner.run(sweep)
        assert full.resumed == 3
        assert full.executed == 3
        assert full.complete
        assert full.results == [{"value": 2 * i} for i in range(6)]
        assert len(_executions(log)) == 6  # shard-0 jobs never re-ran

    def test_sharded_runs_share_one_journal(self, tmp_path):
        sweep = _double_sweep(5)
        runner = SweepRunner(journal_dir=tmp_path)
        runner.run(sweep, shard=(0, 2))
        runner.run(sweep, shard=(1, 2))
        status = Journal.for_sweep(sweep, tmp_path).status(sweep)
        assert status.complete
        replay = runner.run(sweep)
        assert (replay.resumed, replay.executed) == (5, 0)

    def test_resume_after_failure(self, tmp_path):
        """A failing job doesn't lose completed work; the retry only re-runs it."""
        log = tmp_path / "executions.log"
        marker = tmp_path / "marker"
        jobs = [JobSpec(kind="test.double", params={"value": i, "log": str(log)}) for i in range(3)]
        jobs.append(JobSpec(kind="test.fail_until_marker", params={"value": 9, "marker": str(marker)}))
        sweep = SweepSpec(name="test-flaky", jobs=tuple(jobs))
        runner = SweepRunner(journal_dir=tmp_path / "journal")
        with pytest.raises(SweepExecutionError):
            runner.run(sweep)
        assert len(_executions(log)) == 3  # the healthy jobs completed and were journaled
        report = runner.run(sweep)
        assert report.resumed == 3
        assert report.executed == 1  # only the previously failed job
        assert report.results[-1] == {"value": 9}
        assert len(_executions(log)) == 3

    def test_no_resume_flag_recomputes(self, tmp_path):
        log = tmp_path / "executions.log"
        sweep = _double_sweep(2, log=log)
        SweepRunner(journal_dir=tmp_path / "journal").run(sweep)
        report = SweepRunner(journal_dir=tmp_path / "journal", resume=False).run(sweep)
        assert report.executed == 2
        assert len(_executions(log)) == 4

    def test_resume_after_torn_journal_write(self, tmp_path):
        """A journal cut mid-record (killed process) resumes cleanly: the torn
        fragment is skipped and new records start on a fresh line."""
        sweep = _double_sweep(4)
        runner = SweepRunner(journal_dir=tmp_path)
        runner.run(sweep)
        journal = Journal.for_sweep(sweep, tmp_path)
        lines = journal.path.read_text().splitlines(keepends=True)
        # Keep the header + 2 results, then a torn (newline-less) partial record.
        journal.path.write_text("".join(lines[:3]) + '{"type": "result", "job": "dead')
        report = runner.run(sweep)
        assert (report.resumed, report.executed) == (2, 2)
        assert report.results == [{"value": 2 * i} for i in range(4)]
        assert journal.status(sweep).complete

    def test_status_without_journal(self, tmp_path):
        sweep = _double_sweep(2)
        status = Journal.for_sweep(sweep, tmp_path).status(sweep)
        assert status.completed == 0
        assert not status.complete

    def test_journals_are_version_namespaced(self, tmp_path):
        """Results journaled by an older code version must not be resumed."""
        sweep = _double_sweep(2)
        old = Journal.for_sweep(sweep, tmp_path, version="0.0.9")
        new = Journal.for_sweep(sweep, tmp_path)
        assert old.path != new.path
        old.record_header(sweep)
        for job in sweep.jobs:
            old.record_result(job, {"value": "stale"})
        report = SweepRunner(journal_dir=tmp_path).run(sweep)
        assert report.resumed == 0
        assert report.executed == 2


class TestRunSweepHelper:
    def test_returns_results_in_order(self):
        results = run_sweep(_double_sweep(3))
        assert results == [{"value": 0}, {"value": 2}, {"value": 4}]


class TestCli:
    def _run(self, argv):
        from repro.runtime.cli import main

        return main(argv)

    def test_list(self, capsys):
        assert self._run(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "scenarios" in out

    def test_run_fig5_parallel_is_byte_identical_to_serial_path(self, tmp_path):
        """Acceptance: `run fig5 --workers 2` == refactored serial generator, then cache hits."""
        cli_output = tmp_path / "fig5_cli.json"
        argv = [
            "run", "fig5", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--output", str(cli_output), "--format", "none", "--quiet",
        ]
        assert self._run(argv) == 0
        serial_output = save_json(tmp_path / "fig5_serial.json", generate_fig5_environments().to_jsonable())
        assert cli_output.read_bytes() == serial_output.read_bytes()

    def test_rerun_completes_via_cache(self, tmp_path, capsys):
        argv = lambda journal: [
            "run", "table2",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / journal),
            "--format", "none",
        ]
        assert self._run(argv("journal-a")) == 0
        first = capsys.readouterr().out
        assert "14 executed, 0 cache hits" in first
        # Fresh journal, warm cache: every job resolves from the cache.
        assert self._run(argv("journal-b")) == 0
        second = capsys.readouterr().out
        assert "0 executed, 14 cache hits" in second

    def test_sharded_runs_then_assembly(self, tmp_path, capsys):
        base = [
            "run", "fig5", "--no-cache",
            "--journal-dir", str(tmp_path), "--format", "none", "--quiet",
        ]
        assert self._run(base + ["--shard", "0/2"]) == 0
        assert "partial run" in capsys.readouterr().out
        assert self._run(base + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        assert self._run(["status", "fig5", "--journal-dir", str(tmp_path)]) == 0
        assert "6/6 jobs done (complete)" in capsys.readouterr().out
        assert self._run(base) == 0  # assembles from the journal, executes nothing

    def test_status_unknown_sweep(self, capsys):
        assert self._run(["status", "definitely-not-a-sweep"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_run_writes_valid_json(self, tmp_path):
        output = tmp_path / "table2.json"
        argv = [
            "run", "table2", "--no-cache", "--no-journal",
            "--output", str(output), "--format", "none", "--quiet",
        ]
        assert self._run(argv) == 0
        payload = json.loads(output.read_text())
        assert payload["title"].startswith("Table II")
        assert len(payload["rows"]) == 14


class TestAssembly:
    def test_fig5_assembly_matches_generator(self):
        sweep = fig5_sweep_spec()
        table = assemble_fig5(sweep, SweepRunner().run(sweep).results)
        reference = generate_fig5_environments()
        assert table.to_jsonable() == reference.to_jsonable()


class TestCacheIndex:
    def test_index_lists_spec_hashes(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.index() == set()
        specs = [JobSpec(kind="test.double", params={"value": i}) for i in range(3)]
        for spec in specs:
            cache.put(spec, {"value": 2 * spec.params["value"]})
        assert cache.index() == {spec.spec_hash for spec in specs}

    def test_index_is_version_scoped(self, tmp_path):
        spec = JobSpec(kind="test.double", params={"value": 1})
        ResultCache(root=tmp_path, version="1.0").put(spec, {"value": 2})
        assert ResultCache(root=tmp_path, version="2.0").index() == set()

    def test_engine_index_probe_agrees_with_per_job_probe(self, tmp_path):
        """The index fast path must resolve exactly the same hits as get()."""
        log = tmp_path / "executions.log"
        sweep = _double_sweep(6, log=log)
        cache = ResultCache(root=tmp_path / "cache")
        # Pre-populate half the sweep, then run: only the other half executes.
        for job in list(sweep.jobs)[:3]:
            cache.put(job, {"value": 2 * job.params["value"]})
        report = SweepRunner(cache=cache).run(sweep)
        assert (report.executed, report.cache_hits) == (3, 3)
        assert len(_executions(log)) == 3


def _writer_records(writer, count):
    """``count`` (spec, result) pairs; even ones are shared by every writer."""
    for i in range(count):
        owner = "shared" if i % 2 == 0 else f"writer-{writer}"
        spec = JobSpec(kind="test.double", params={"value": i, "owner": owner})
        yield spec, {"value": 2 * i, "owner": owner, "pad": [owner] * 40}


def _put_records(root, writer, count, start):
    """Spawned writer process: put every record of ``writer`` into ``root``."""
    cache = ResultCache(root=root, version="concurrent")
    start.wait(timeout=60)  # every writer is up: put all at once
    for spec, result in _writer_records(writer, count):
        cache.put(spec, result)


class TestResultStoreFailurePaths:
    def test_torn_segment_loses_only_the_torn_record(self, tmp_path):
        """A writer killed mid-record: only that job is lost and re-run."""
        log = tmp_path / "executions.log"
        sweep = _double_sweep(4, log=log)
        SweepRunner(cache=ResultCache(root=tmp_path / "cache")).run(sweep)
        (segment,) = ResultCache(root=tmp_path / "cache").namespace.iterdir()
        intact = segment.read_bytes()
        segment.write_bytes(intact[:-20])  # cut inside the last job's record
        torn = sweep.jobs[-1]
        assert ResultCache(root=tmp_path / "cache").index() == {
            job.spec_hash for job in sweep.jobs[:-1]
        }

        report = SweepRunner(cache=ResultCache(root=tmp_path / "cache")).run(sweep)
        assert (report.executed, report.cache_hits) == (1, 3)
        assert _executions(log)[4:] == [str(torn.params["value"])]
        # The same writer's next record starts a fresh line after the fragment.
        lines = segment.read_bytes().splitlines(keepends=True)
        assert b"".join(lines[:4]) == intact[:-20] + b"\n"
        assert lines[4] == intact.splitlines(keepends=True)[-1]
        fresh = ResultCache(root=tmp_path / "cache")
        assert [fresh.get(job) for job in sweep.jobs] == [
            {"value": 2 * i} for i in range(4)
        ]

    def test_concurrent_writer_processes(self, tmp_path):
        """More writer processes than cores, some hashes shared by all."""
        writers, count = 4, 200
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(writers)
        processes = [
            context.Process(
                target=_put_records, args=(str(tmp_path), writer, count, start), daemon=True
            )
            for writer in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert not process.is_alive()
            assert process.exitcode == 0
        cache = ResultCache(root=tmp_path, version="concurrent")
        expected = {
            spec.spec_hash: (spec, result)
            for writer in range(writers)
            for spec, result in _writer_records(writer, count)
        }
        assert len(expected) == count // 2 + writers * count // 2
        assert cache.index() == set(expected)
        for spec, result in expected.values():
            assert cache.get(spec) == result

    def test_scanned_instance_sees_later_records(self, tmp_path):
        writer = ResultCache(root=tmp_path)
        reader = ResultCache(root=tmp_path)
        specs = [JobSpec(kind="test.double", params={"value": i}) for i in range(4)]
        writer.put(specs[0], {"value": 0})
        assert reader.index() == {specs[0].spec_hash}
        writer.put(specs[1], {"value": 2})
        with ThreadPoolExecutor(max_workers=1) as other_thread:
            other_thread.submit(writer.put, specs[2], {"value": 4}).result(timeout=10)
        assert len(list(writer.namespace.iterdir())) == 2  # a second segment
        assert reader.index() == {spec.spec_hash for spec in specs[:3]}
        writer.put(specs[3], {"value": 6})
        assert reader.get(specs[3]) == {"value": 6}  # a miss rescans

    def test_get_returns_a_fresh_object(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(kind="test.double", params={"value": 1})
        cache.put(spec, {"value": [2]})
        served = cache.get(spec)
        served["value"].append(3)
        served["extra"] = True
        assert cache.get(spec) == {"value": [2]}

    def test_non_record_lines_are_skipped(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(kind="test.double", params={"value": 1})
        segment = cache.put(spec, {"value": 2})
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('[1, 2]\n{"result": 3}\n{"job": 7, "result": 3}\n')
            handle.write('{"job": "no-result"}\n"text"\nnot json\n\n')
        (cache.namespace / "seg-0-0.jsonl").write_text("[]\n{}\n", encoding="utf-8")
        fresh = ResultCache(root=tmp_path)
        assert fresh.index() == {spec.spec_hash}
        assert fresh.get(spec) == {"value": 2}


@pytest.fixture
def two_fingerprints(tmp_path):
    """Fingerprints of a copy of the package and of that copy with one byte edited."""
    source = Path(repro.version.__file__).parent
    copy = tmp_path / "copy"
    shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__"))
    before = source_fingerprint(copy)
    version = copy / "version.py"
    text = version.read_bytes()
    version.write_bytes(text.replace(b'"0.2.0"', b'"0.2.1"', 1))
    assert version.read_bytes() != text
    return before, source_fingerprint(copy)


class TestSourceFingerprint:
    def test_copy_matches_and_one_edited_byte_differs(self, two_fingerprints):
        before, after = two_fingerprints
        assert before == source_fingerprint()
        assert after != before
        assert len(after) == 64

    def test_store_namespace_follows_the_fingerprint(self, tmp_path, monkeypatch, two_fingerprints):
        import repro.runtime.cache as cache_module

        spec = JobSpec(kind="test.double", params={"value": 3})
        for fingerprint in two_fingerprints:
            monkeypatch.setattr(cache_module, "source_fingerprint", lambda f=fingerprint: f)
            cache = ResultCache(root=tmp_path / "cache")
            assert cache.get(spec) is MISS
            cache.put(spec, {"value": fingerprint})
            assert ResultCache(root=tmp_path / "cache").get(spec) == {"value": fingerprint}

    def test_journal_follows_the_fingerprint(self, tmp_path, monkeypatch, two_fingerprints):
        import repro.runtime.journal as journal_module

        sweep = _double_sweep(3)
        runner = SweepRunner(journal_dir=tmp_path / "journals")
        for fingerprint in two_fingerprints:
            monkeypatch.setattr(journal_module, "source_fingerprint", lambda f=fingerprint: f)
            first = runner.run(sweep)
            assert (first.executed, first.resumed) == (3, 0)
            assert runner.run(sweep).resumed == 3


class TestJournalBatching:
    def _journal(self, tmp_path, name, **kwargs):
        return Journal(tmp_path / f"{name}.jsonl", **kwargs)

    def test_buffered_records_match_write_through(self, tmp_path):
        """Batched flushes must leave the identical record stream on disk."""
        sweep = _double_sweep(5, name="batch-bytes")
        buffered = self._journal(tmp_path, "buffered", buffer_size=64, flush_interval_s=3600)
        through = self._journal(tmp_path, "through", buffer_size=1)
        for journal in (buffered, through):
            journal.record_header(sweep)
            for i, spec in enumerate(sweep.jobs):
                journal.record_result(spec, {"value": 2 * i}, duration_s=0.25)
            journal.record_error(sweep.jobs[0], "boom", duration_s=0.1)
            journal.flush()
        strip_ts = lambda path: [
            {k: v for k, v in json.loads(line).items() if k != "ts"}
            for line in path.read_text().splitlines()
        ]
        assert strip_ts(buffered.path) == strip_ts(through.path)

    def test_header_bypasses_the_buffer(self, tmp_path):
        sweep = _double_sweep(2, name="batch-header")
        journal = self._journal(tmp_path, "header", buffer_size=64, flush_interval_s=3600)
        journal.record_header(sweep)
        journal.record_result(sweep.jobs[0], {"value": 0})
        assert journal.pending_writes == 1
        assert len(journal.path.read_text().splitlines()) == 1  # header only

    def test_load_flushes_pending_records(self, tmp_path):
        sweep = _double_sweep(2, name="batch-load")
        journal = self._journal(tmp_path, "load", buffer_size=64, flush_interval_s=3600)
        journal.record_header(sweep)
        journal.record_result(sweep.jobs[0], {"value": 0})
        state = journal.load()
        assert journal.pending_writes == 0
        assert state.completed == 1

    def test_buffer_flushes_at_size_threshold(self, tmp_path):
        sweep = _double_sweep(4, name="batch-size")
        journal = self._journal(tmp_path, "size", buffer_size=3, flush_interval_s=3600)
        for spec in list(sweep.jobs)[:2]:
            journal.record_result(spec, {"value": 1})
        assert journal.pending_writes == 2
        journal.record_result(sweep.jobs[2], {"value": 1})
        assert journal.pending_writes == 0
        assert len(journal.path.read_text().splitlines()) == 3

    def test_engine_leaves_no_pending_writes(self, tmp_path):
        """The engine flushes in a finally: a finished run is fully on disk."""
        sweep = _double_sweep(3, name="batch-engine")
        SweepRunner(journal_dir=tmp_path).run(sweep)
        journal = Journal.for_sweep(sweep, tmp_path)
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 4  # header + one result per job, nothing buffered

    def test_resume_and_sharding_with_buffering(self, tmp_path):
        """Satellite regression: buffered journals keep resume/shard semantics."""
        log = tmp_path / "executions.log"
        sweep = _double_sweep(6, log=log, name="batch-shard")
        runner = SweepRunner(journal_dir=tmp_path)
        partial = runner.run(sweep, shard=(0, 2))
        assert partial.executed == 3
        resumed = runner.run(sweep)
        assert (resumed.resumed, resumed.executed) == (3, 3)
        assert len(_executions(log)) == 6  # every job ran exactly once
        assert Journal.for_sweep(sweep, tmp_path).status(sweep).complete

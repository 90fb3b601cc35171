"""CI smoke: a sharded ``generalization-rollouts`` slice through the real CLI.

This is the end-to-end path a user takes — argument parsing, sweep lookup,
the engine with cache + journal, shard bookkeeping — exercised on a 4-job
slice of the measured-rollout sweep (48 jobs / 12 shards), small enough for
every CI run.  Since the sweep's jobs carry ``train_lanes=8``, the slice also
trains its reduced policies through the lockstep batched collection core.
"""

import json
import re

from repro.obs import RunLedger, chrome_trace_to_spans
from repro.runtime.cli import main
from repro.runtime.journal import Journal
from repro.runtime.registry import get_registered_sweep, iter_registered_sweeps


class TestGeneralizationRolloutsCliSmoke:
    def test_sweep_jobs_train_on_batched_lanes(self):
        """Every registered rollout job trains with train_lanes > 1, so the CI
        slice below exercises the batched training core end-to-end."""
        sweep = get_registered_sweep("generalization-rollouts").spec()
        assert all(int(job.params["train_lanes"]) > 1 for job in sweep.jobs)

    def test_four_job_slice_runs_through_the_cli(self, tmp_path, capsys):
        exit_code = main(
            [
                "run",
                "generalization-rollouts",
                "--shard",
                "0/12",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--journal-dir",
                str(tmp_path / "journals"),
                "--ledger",
                str(tmp_path / "ledger.jsonl"),
                "--format",
                "none",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "4/48 jobs" in output

        # The run also left one fingerprinted record in the run ledger.
        ledger_records = RunLedger(tmp_path / "ledger.jsonl").records()
        assert len(ledger_records) == 1
        assert ledger_records[0].name == "generalization-rollouts"
        assert ledger_records[0].counts["executed"] == 4
        assert ledger_records[0].fingerprint["python"]

        # The slice's progress is journaled under the sweep's identity, so
        # `status` counts these four jobs for the remaining shards too.
        sweep = get_registered_sweep("generalization-rollouts").spec()
        journal = Journal.for_sweep(sweep, tmp_path / "journals")
        status = journal.status(sweep)
        assert status.completed == 4

    def test_slice_with_trace_and_metrics_through_workers(self, tmp_path, capsys):
        """Acceptance: a journaled slice over worker processes exports a
        Chrome trace whose root span covers >= 95% of the wall time, plus a
        merged metrics snapshot carrying the workers' per-job counters."""
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        # Shard 1/12 selects BER > 0 jobs, so evaluation also exercises the
        # instrumented bit-error injector.
        exit_code = main(
            [
                "run",
                "generalization-rollouts",
                "--shard",
                "1/12",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--journal-dir",
                str(tmp_path / "journals"),
                "--format",
                "none",
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
                "--no-ledger",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert f"wrote trace {trace_path}" in output
        assert f"wrote metrics {metrics_path}" in output

        spans = chrome_trace_to_spans(json.loads(trace_path.read_text()))
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["job.execute"]) == 4
        # The 4 jobs ran on worker processes distinct from the parent.
        parent_pid = by_name["sweep.run"][0]["pid"]
        assert all(r["pid"] != parent_pid for r in by_name["job.execute"])
        # Root span coverage of the reported wall time (the acceptance gate).
        wall_time_s = float(re.search(r"in (\d+\.\d+)s", output).group(1))
        root_s = by_name["sweep.run"][0]["dur_ns"] / 1e9
        assert root_s >= 0.95 * wall_time_s

        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        assert counters["engine.jobs_executed"] == 4
        assert counters["env.steps"] > 0          # batched rollout instrumentation
        assert counters["env.episodes"] > 0       # lane feed instrumentation
        assert counters["train.env_steps"] > 0    # lockstep collector instrumentation
        assert counters["faults.maps_applied"] > 0  # bit-error injector instrumentation
        assert snapshot["histograms"]["engine.job_duration_s"]["count"] == 4

    def test_report_command_summarises_journaled_slice(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "generalization-rollouts",
                    "--shard",
                    "3/12",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--journal-dir",
                    str(tmp_path / "journals"),
                    "--no-ledger",
                    "--format",
                    "none",
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "report",
                    "generalization-rollouts",
                    "--journal-dir",
                    str(tmp_path / "journals"),
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "journaled job latency" in output
        assert "p95_s" in output
        assert "slowest jobs" in output

        # --format json emits the same tables machine-readably (satellite for
        # CI / obs tooling): pure JSON on stdout, same p50/p95 numbers.
        assert (
            main(
                [
                    "report",
                    "generalization-rollouts",
                    "--journal-dir",
                    str(tmp_path / "journals"),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "generalization-rollouts"
        titles = [table["title"] for table in payload["tables"]]
        assert any("journaled job latency" in title for title in titles)
        summary_rows = payload["tables"][0]["rows"]
        assert summary_rows and summary_rows[0]["timed"] == 4
        assert summary_rows[0]["p95_s"] >= summary_rows[0]["p50_s"]

    def test_report_without_journal_fails_cleanly(self, tmp_path, capsys):
        assert (
            main(["report", "generalization-rollouts", "--journal-dir", str(tmp_path)])
            == 1
        )
        assert "no journal" in capsys.readouterr().out

    def test_status_command_reports_journaled_slice(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "generalization-rollouts",
                    "--shard",
                    "1/12",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--journal-dir",
                    str(tmp_path / "journals"),
                    "--no-ledger",
                    "--format",
                    "none",
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["status", "generalization-rollouts", "--journal-dir", str(tmp_path / "journals")])
            == 0
        )
        assert "4/48" in capsys.readouterr().out


def test_list_prints_every_job_count_in_one_column(capsys):
    """Names are padded to the longest registered one, so ``fleet-reliability``
    and ``generalization-rollouts`` line up with the short names.  A count is
    right-aligned in a field of four, so when every count field starts at one
    column, every description does too."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(list(iter_registered_sweeps()))
    assert len({re.match(r"\S+ +\d+ jobs  ", line).end() for line in lines}) == 1
    assert [line.split()[0] for line in lines] == [
        entry.name for entry in iter_registered_sweeps()
    ]

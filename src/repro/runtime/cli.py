"""Command-line front end of the sweep engine.

::

    python -m repro.runtime list
    python -m repro.runtime run fig5 --workers 4
    python -m repro.runtime run scenarios --shard 0/4 --workers 2
    python -m repro.runtime -v run generalization --trace trace.json --metrics metrics.json
    python -m repro.runtime status scenarios
    python -m repro.runtime report scenarios --format json
    python -m repro.runtime obs history scenarios engine.job_duration_s:p50
    python -m repro.runtime obs diff -2 -1 --sweep scenarios
    python -m repro.runtime obs check --fail-on-regression

``run`` resolves a registered sweep, executes it through
:class:`~repro.runtime.engine.SweepRunner`, prints the assembled table(s) and
can write them to JSON.  Results go to the result store by default, so a
re-run of an interrupted or sharded invocation executes only what the store
lacks; ``--no-cache`` executes every job and keeps no results.  Progress goes
to the sweep's journal.  While it runs, a rate-limited heartbeat line on
stderr reports jobs done / cache hits / jobs-per-sec / ETA.  ``--trace``
captures spans (engine phases plus per-job execution, merged from
multiprocessing workers) into a Chrome trace-event JSON loadable in
Perfetto or ``chrome://tracing``; ``--metrics`` writes the
merged metrics registry snapshot and ``--prom-file`` the same snapshot as
OpenMetrics/Prometheus text exposition.  Every run also appends one
record (metrics, span rollup, environment fingerprint) to the persistent
**run ledger** (``.repro_runtime/ledger.jsonl`` or ``$REPRO_RUNTIME_LEDGER``;
``--ledger PATH`` overrides, ``--no-ledger`` opts out).  ``status`` reads a
sweep's journal without executing anything, and ``report`` turns the
journal's per-job timings into a latency table (p50/p95/max plus the slowest
jobs) — ``--format json`` makes it machine-readable.

The ``obs`` family queries the ledger across runs: ``obs history`` renders
one metric's series, ``obs diff`` the per-metric deltas between two runs
(run-id prefixes or negative indices, ``-1`` = latest), and ``obs check``
compares each sweep's newest run against a median/MAD baseline of its last K
comparable runs, exiting non-zero under ``--fail-on-regression`` — the
CI-ready form.

``-v``/``-vv`` before the subcommand enables console logging for the
``repro`` namespace (INFO/DEBUG) via
:func:`repro.utils.logging.enable_console_logging`; the engine's per-job
cache-hit/execute decisions log at DEBUG.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackendError, ConfigurationError
from repro.obs import (
    RunLedger,
    check_ledger,
    diff_records,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    export_chrome_trace,
    export_openmetrics,
    metric_value,
)
from repro.obs.store import DEFAULT_CHECK_METRICS, default_ledger_path
from repro.runtime.cache import ResultCache, default_cache_root
from repro.runtime.engine import SweepExecutionError, SweepReport, SweepRunner
from repro.runtime.executor import make_executor
from repro.runtime.fusion import DEFAULT_FUSION_WIDTH
from repro.runtime.journal import Journal, default_journal_dir
from repro.runtime.registry import get_registered_sweep, iter_registered_sweeps
from repro.utils.logging import enable_console_logging
from repro.utils.serialization import save_json
from repro.utils.tables import Table, format_aligned, format_markdown

#: Default heartbeat cadence of ``run`` (seconds); 0 disables.
DEFAULT_HEARTBEAT_S = 5.0


def _parse_shard(value: str) -> Tuple[int, int]:
    try:
        index_text, count_text = value.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/n' (e.g. 0/4), got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-runtime",
        description="Run, shard and resume the paper's registered experiment sweeps.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="console logging for the repro namespace (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", dest="global_quiet", action="store_true",
        help="suppress summary and heartbeat output",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list every registered sweep")

    run = commands.add_parser("run", help="run one registered sweep")
    run.add_argument("sweep", help="registered sweep name (see 'list')")
    run.add_argument("--workers", type=int, default=None, help="worker processes (default: serial)")
    run.add_argument("--fusion-width", type=int, default=DEFAULT_FUSION_WIDTH, metavar="N",
                     help=f"max jobs per fused group; 1 disables fusion "
                          f"(default {DEFAULT_FUSION_WIDTH})")
    run.add_argument("--shard", type=_parse_shard, default=None, metavar="I/N",
                     help="run only every N-th job starting at I")
    run.add_argument("--cache-dir", type=Path, default=None,
                     help=f"result cache root (default: {default_cache_root()})")
    run.add_argument("--no-cache", action="store_true",
                     help="execute every job and keep no results (the run cannot be resumed)")
    run.add_argument("--journal-dir", type=Path, default=None,
                     help=f"journal directory (default: {default_journal_dir()})")
    run.add_argument("--no-journal", action="store_true", help="disable progress journaling")
    run.add_argument("--output", type=Path, default=None,
                     help="write the assembled table(s) to this JSON file")
    run.add_argument("--format", choices=("aligned", "markdown", "none"), default="aligned",
                     help="how to print tables (default: aligned)")
    run.add_argument("--quiet", action="store_true", help="suppress the run summary line")
    run.add_argument("--trace", type=Path, default=None, metavar="PATH",
                     help="capture spans and export a Chrome/Perfetto trace JSON here")
    run.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                     help="collect metrics and write the merged registry snapshot here")
    run.add_argument("--prom-file", type=Path, default=None, metavar="PATH",
                     help="write the metrics snapshot as OpenMetrics/Prometheus "
                          "text exposition here")
    run.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                     help="append this run's record to this ledger file "
                          f"(default: $REPRO_RUNTIME_LEDGER or {Path('.repro_runtime/ledger.jsonl')})")
    run.add_argument("--no-ledger", action="store_true",
                     help="do not record this run in the persistent run ledger")
    run.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT_S, metavar="SECONDS",
                     help=f"progress line cadence on stderr, 0 disables "
                          f"(default: {DEFAULT_HEARTBEAT_S:g})")
    run.add_argument("--backend", default=None, metavar="NAME",
                     help="compute backend for backend-aware sweeps "
                          "(e.g. numpy, torch; default: $REPRO_BACKEND or numpy)")

    status = commands.add_parser("status", help="show a sweep's journaled progress")
    status.add_argument("sweep", help="registered sweep name")
    status.add_argument("--journal-dir", type=Path, default=None)

    report = commands.add_parser(
        "report", help="per-job latency report from a sweep's journal"
    )
    report.add_argument("sweep", help="registered sweep name")
    report.add_argument("--journal-dir", type=Path, default=None)
    report.add_argument("--top", type=int, default=10,
                        help="how many of the slowest jobs to list (default: 10)")
    report.add_argument("--format", choices=("aligned", "markdown", "json"), default="aligned",
                        help="table rendering; 'json' emits the machine-readable form")

    obs = commands.add_parser("obs", help="query the persistent run ledger")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    history = obs_commands.add_parser(
        "history", help="one metric's series across a sweep's ledger records"
    )
    history.add_argument("sweep", help="sweep (or benchmark group) name")
    history.add_argument("metric", nargs="?", default="engine.job_duration_s:p50",
                         help="metric as NAME or NAME:STAT, stats: count/sum/mean/min/max/pNN "
                              "(default: engine.job_duration_s:p50)")
    history.add_argument("--ledger", type=Path, default=None, metavar="PATH")
    history.add_argument("--limit", type=int, default=20,
                         help="show at most the newest N records (default: 20)")
    history.add_argument("--format", choices=("aligned", "markdown", "json"), default="aligned")

    diff = obs_commands.add_parser(
        "diff", help="per-metric deltas between two ledger records"
    )
    diff.add_argument("run_a", help="run-id prefix, or negative index (-1 = latest)")
    diff.add_argument("run_b", help="run-id prefix, or negative index")
    diff.add_argument("--sweep", default=None, help="restrict indices/prefixes to one sweep")
    diff.add_argument("--ledger", type=Path, default=None, metavar="PATH")
    diff.add_argument("--format", choices=("aligned", "markdown", "json"), default="aligned")

    check = obs_commands.add_parser(
        "check", help="flag metrics of each sweep's newest run drifting beyond its baseline"
    )
    check.add_argument("--sweep", default=None, help="check only this sweep")
    check.add_argument("--metric", action="append", default=None, metavar="NAME[:STAT]",
                       help=f"metric(s) to guard (default: {', '.join(DEFAULT_CHECK_METRICS)})")
    check.add_argument("--threshold", type=float, default=1.5,
                       help="relative allowance over the baseline median (default: 1.5)")
    check.add_argument("--baseline", type=int, default=5, metavar="K",
                       help="baseline window: last K comparable runs (default: 5)")
    check.add_argument("--min-baseline", type=int, default=2,
                       help="skip metrics with fewer comparable baseline runs (default: 2)")
    check.add_argument("--ledger", type=Path, default=None, metavar="PATH")
    check.add_argument("--fail-on-regression", action="store_true",
                       help="exit 1 when any metric regressed (CI gate)")
    return parser


def _tables_of(assembled: Any) -> List[Table]:
    if isinstance(assembled, Table):
        return [assembled]
    if isinstance(assembled, (list, tuple)):
        return [item for item in assembled if isinstance(item, Table)]
    return []


def _print_tables(assembled: Any, fmt: str, stream) -> None:
    if fmt == "none":
        return
    renderer = format_markdown if fmt == "markdown" else format_aligned
    for table in _tables_of(assembled):
        print(renderer(table), file=stream)
        print(file=stream)


def _cmd_list(stream) -> int:
    for entry in iter_registered_sweeps():
        jobs = len(entry.spec())
        print(f"{entry.name:<14} {jobs:>4} jobs  {entry.description}", file=stream)
    return 0


def _cmd_run(args: argparse.Namespace, stream) -> int:
    if args.backend is not None:
        from repro.nn.backend import BACKEND_ENV_VAR, set_default_backend

        # Selecting before the spec is built lets backend-aware sweeps record
        # the backend in their job params (and hence spec hashes); the env var
        # carries the selection into spawned worker processes.
        set_default_backend(args.backend)
        os.environ[BACKEND_ENV_VAR] = str(args.backend)
    entry = get_registered_sweep(args.sweep)
    sweep = entry.spec()
    quiet = args.quiet or args.global_quiet
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    journal_dir = None if args.no_journal else (args.journal_dir or default_journal_dir())
    heartbeat = None if (quiet or args.heartbeat <= 0) else float(args.heartbeat)
    ledger = None if args.no_ledger else RunLedger(args.ledger)
    if args.trace is not None:
        enable_tracing()
    # The ledger records the metrics snapshot, so any of the three metric
    # consumers (--metrics, --prom-file, the ledger) turns collection on.
    collect_metrics = (
        args.metrics is not None or args.prom_file is not None or ledger is not None
    )
    if collect_metrics:
        enable_metrics()
    runner = SweepRunner(
        executor=make_executor(args.workers),
        cache=cache,
        journal_dir=journal_dir,
        heartbeat_interval=heartbeat,
        ledger=ledger,
        fusion_width=args.fusion_width,
    )
    try:
        report: SweepReport = runner.run(sweep, shard=args.shard)
    except SweepExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        # Export whatever was captured even when some jobs failed: a partial
        # trace of a failing sweep is exactly when you want to look at one.
        if args.trace is not None:
            export_chrome_trace(args.trace)
            disable_tracing()
            if not quiet:
                print(f"wrote trace {args.trace}", file=stream)
        if collect_metrics:
            from repro.obs import get_metrics

            snapshot = get_metrics().snapshot()
            if args.metrics is not None:
                save_json(args.metrics, snapshot)
                if not quiet:
                    print(f"wrote metrics {args.metrics}", file=stream)
            if args.prom_file is not None:
                export_openmetrics(args.prom_file, snapshot)
                if not quiet:
                    print(f"wrote OpenMetrics exposition {args.prom_file}", file=stream)
            disable_metrics()
    if not quiet:
        print(report.describe(), file=stream)
    if report.complete:
        assembled = entry.assemble(sweep, report.results)
        _print_tables(assembled, args.format, stream)
        if args.output is not None:
            payload = [table.to_jsonable() for table in _tables_of(assembled)]
            save_json(args.output, payload[0] if len(payload) == 1 else payload)
            if not quiet:
                print(f"wrote {args.output}", file=stream)
    else:
        done = len(sweep) - report.skipped
        print(
            f"partial run: {done}/{len(sweep)} jobs in this shard; run the remaining "
            "shards (same cache) and re-run without --shard to assemble the table",
            file=stream,
        )
    return 0


def _cmd_status(args: argparse.Namespace, stream) -> int:
    entry = get_registered_sweep(args.sweep)
    sweep = entry.spec()
    journal = Journal.for_sweep(sweep, args.journal_dir or default_journal_dir())
    status = journal.status(sweep)
    print(status.describe(), file=stream)
    print(f"journal: {journal.path}", file=stream)
    return 0


def latency_tables(sweep, state, top: int = 10) -> List[Table]:
    """Summarise a journal's per-job durations as (summary, slowest-jobs) tables.

    Only *executed* durations enter the latency distribution — records tagged
    ``source: cache`` were served from the result cache, not executed.
    """
    hashes = {job.spec_hash for job in sweep.jobs}
    timed = [
        (digest, duration)
        for digest, duration in state.durations.items()
        if digest in hashes and state.sources.get(digest) != "cache"
    ]
    summary = Table(
        title=f"{sweep.name}: journaled job latency",
        columns=["jobs", "timed", "cached", "failed", "total_s", "p50_s", "p95_s", "max_s"],
    )
    durations = np.asarray([duration for _, duration in timed], dtype=np.float64)
    cached = sum(
        1 for digest, source in state.sources.items()
        if digest in hashes and source == "cache"
    )
    failed = sum(1 for digest in state.errors if digest in hashes)
    if durations.size:
        summary.add_row(
            jobs=len(sweep),
            timed=int(durations.size),
            cached=cached,
            failed=failed,
            total_s=float(durations.sum()),
            p50_s=float(np.percentile(durations, 50)),
            p95_s=float(np.percentile(durations, 95)),
            max_s=float(durations.max()),
        )
    else:
        summary.add_row(jobs=len(sweep), timed=0, cached=cached, failed=failed)
    slowest = Table(
        title=f"{sweep.name}: slowest jobs",
        columns=["job", "duration_s", "status"],
    )
    for digest, duration in sorted(timed, key=lambda item: -item[1])[: max(top, 0)]:
        slowest.add_row(
            job=state.job_ids.get(digest, digest[:12]),
            duration_s=duration,
            status="error" if digest in state.errors else "ok",
        )
    return [summary, slowest]


def _cmd_report(args: argparse.Namespace, stream) -> int:
    entry = get_registered_sweep(args.sweep)
    sweep = entry.spec()
    journal = Journal.for_sweep(sweep, args.journal_dir or default_journal_dir())
    if not journal.path.exists():
        print(f"no journal for sweep {args.sweep!r} at {journal.path}", file=stream)
        return 1
    state = journal.load()
    tables = latency_tables(sweep, state, top=args.top)
    if args.format == "json":
        # Machine-readable form for CI and `obs diff`-style tooling: the same
        # tables (same p50/p95 computation), JSON instead of box drawing.
        payload = {
            "sweep": sweep.name,
            "journal": str(journal.path),
            "tables": [table.to_jsonable() for table in tables],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
        return 0
    _print_tables(tables, args.format, stream)
    print(f"journal: {journal.path}", file=stream)
    return 0


def _ledger_from(args: argparse.Namespace) -> RunLedger:
    ledger = RunLedger(args.ledger)
    if not ledger.path.exists():
        raise ConfigurationError(
            f"no run ledger at {ledger.path} — run a sweep first, pass --ledger, "
            f"or set $REPRO_RUNTIME_LEDGER"
        )
    return ledger


def _resolve_record(records, token: str):
    """A ledger record by negative index ("-1" = newest) or run-id prefix."""
    try:
        index = int(token)
    except ValueError:
        index = None
    if index is not None and index < 0:
        if -index > len(records):
            raise ConfigurationError(
                f"index {token} out of range: only {len(records)} matching records"
            )
        return records[index]
    matches = [record for record in records if record.run_id.startswith(token)]
    if not matches:
        raise ConfigurationError(f"no ledger record with run id starting {token!r}")
    if len(matches) > 1:
        raise ConfigurationError(
            f"run id prefix {token!r} is ambiguous ({len(matches)} matches)"
        )
    return matches[0]


def _short_ts(ts: float) -> str:
    from datetime import datetime, timezone

    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def _cmd_obs_history(args: argparse.Namespace, stream) -> int:
    ledger = _ledger_from(args)
    records = ledger.records(name=args.sweep)
    if not records:
        print(f"no ledger records for {args.sweep!r} in {ledger.path}", file=stream)
        return 1
    if args.limit and args.limit > 0:
        records = records[-args.limit:]
    if args.format == "json":
        payload = [
            {
                "run_id": record.run_id,
                "ts": record.ts,
                "git_sha": record.fingerprint.get("git_sha"),
                "backend": record.fingerprint.get("backend"),
                "wall_time_s": record.wall_time_s,
                "value": metric_value(record, args.metric),
            }
            for record in records
        ]
        print(json.dumps({"sweep": args.sweep, "metric": args.metric, "runs": payload},
                         indent=2, sort_keys=True), file=stream)
        return 0
    table = Table(
        title=f"{args.sweep}: {args.metric} across {len(records)} runs",
        columns=["run", "when_utc", "git_sha", "backend", "wall_s", args.metric],
    )
    for record in records:
        value = metric_value(record, args.metric)
        table.add_row(**{
            "run": record.run_id[:10],
            "when_utc": _short_ts(record.ts),
            "git_sha": record.fingerprint.get("git_sha") or "-",
            "backend": record.fingerprint.get("backend") or "-",
            "wall_s": record.wall_time_s,
            args.metric: value if value is not None else "-",
        })
    _print_tables(table, args.format, stream)
    print(f"ledger: {ledger.path}", file=stream)
    return 0


def _cmd_obs_diff(args: argparse.Namespace, stream) -> int:
    ledger = _ledger_from(args)
    records = ledger.records(name=args.sweep)
    if not records:
        scope = f" for {args.sweep!r}" if args.sweep else ""
        print(f"no ledger records{scope} in {ledger.path}", file=stream)
        return 1
    record_a = _resolve_record(records, args.run_a)
    record_b = _resolve_record(records, args.run_b)
    rows = diff_records(record_a, record_b)
    if args.format == "json":
        payload = {
            "a": {"run_id": record_a.run_id, "name": record_a.name, "ts": record_a.ts},
            "b": {"run_id": record_b.run_id, "name": record_b.name, "ts": record_b.ts},
            "metrics": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
        return 0
    table = Table(
        title=(
            f"{record_a.name} {record_a.run_id[:10]} -> "
            f"{record_b.name} {record_b.run_id[:10]}"
        ),
        columns=["metric", "a", "b", "delta", "ratio"],
    )
    for row in rows:
        table.add_row(
            metric=row["metric"],
            a=row["a"] if row["a"] is not None else "-",
            b=row["b"] if row["b"] is not None else "-",
            delta=row.get("delta", "-"),
            ratio=row.get("ratio", "-"),
        )
    _print_tables(table, args.format, stream)
    return 0


def _cmd_obs_check(args: argparse.Namespace, stream) -> int:
    ledger = _ledger_from(args)
    metrics = tuple(args.metric) if args.metric else DEFAULT_CHECK_METRICS
    findings = check_ledger(
        ledger,
        name=args.sweep,
        metrics=metrics,
        threshold=args.threshold,
        baseline_k=args.baseline,
        min_baseline=args.min_baseline,
    )
    if not findings:
        print(
            "no checkable metrics (need at least "
            f"{args.min_baseline + 1} comparable runs per sweep)",
            file=stream,
        )
        return 0
    regressed = [finding for finding in findings if finding.regressed]
    for finding in findings:
        print(finding.describe(), file=stream)
    if regressed:
        print(
            f"{len(regressed)} of {len(findings)} checked metrics regressed",
            file=sys.stderr,
        )
        if args.fail_on_regression:
            return 1
    return 0


def _cmd_obs(args: argparse.Namespace, stream) -> int:
    if args.obs_command == "history":
        return _cmd_obs_history(args, stream)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args, stream)
    return _cmd_obs_check(args, stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging(logging.DEBUG if args.verbose > 1 else logging.INFO)
    stream = sys.stdout
    try:
        if args.command == "list":
            return _cmd_list(stream)
        if args.command == "run":
            return _cmd_run(args, stream)
        if args.command == "status":
            return _cmd_status(args, stream)
        if args.command == "report":
            return _cmd_report(args, stream)
        if args.command == "obs":
            return _cmd_obs(args, stream)
    except (BackendError, ConfigurationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted — completed jobs are in the result store; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return 130
    except BrokenPipeError:
        # Reader (e.g. `| head`) went away; not an error worth a traceback.
        # Point stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 2  # pragma: no cover - argparse enforces a valid command


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

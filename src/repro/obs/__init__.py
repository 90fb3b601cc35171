"""``repro.obs`` — the observability layer: metrics, spans, traces, the ledger.

Four cooperating pieces, the in-process ones disabled by default:

* :mod:`repro.obs.metrics` — a registry of counters, gauges and fixed
  log-scale-binned histograms with a zero-allocation no-op fast path and
  snapshot/merge semantics (workers ship deltas, the parent merges).
* :mod:`repro.obs.tracing` — ``with span("rollout.ray_cast"):`` timing on
  ``perf_counter_ns``, a bounded in-memory ring, and Chrome trace-event JSON
  export loadable in Perfetto / ``chrome://tracing``.
* :mod:`repro.obs.heartbeat` — the rate-limited progress line of long
  sweep runs.
* :mod:`repro.obs.store` — the **run ledger**: an append-only JSONL file of
  per-run records (metrics snapshot, span rollup, environment fingerprint)
  written automatically by the sweep engine and the benchmark suite, with
  history/diff/regression-check queries on top (``repro-runtime obs ...``).

Hot layers import the module-level accessors (:func:`get_metrics`,
:func:`span`) and call them unconditionally; enabling observability is the
caller's decision (``--trace`` / ``--metrics`` on the CLI, or
:func:`enable_metrics` / :func:`enable_tracing` in code).
"""

from repro.obs.capture import observe_job
from repro.obs.heartbeat import Heartbeat
from repro.obs.metrics import (
    NOOP_METRICS,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_enabled,
)
from repro.obs.store import (
    RegressionFinding,
    RunLedger,
    RunRecord,
    check_ledger,
    default_ledger_path,
    detect_regressions,
    diff_records,
    environment_fingerprint,
    metric_value,
    span_rollup,
)
from repro.obs.tracing import (
    Tracer,
    chrome_trace_drop_count,
    chrome_trace_to_spans,
    collecting_trace,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    get_tracer,
    span,
    spans_to_chrome_trace,
    tracing_enabled,
)

__all__ = [
    "Heartbeat",
    "MetricsRegistry",
    "NOOP_METRICS",
    "RegressionFinding",
    "RunLedger",
    "RunRecord",
    "Tracer",
    "check_ledger",
    "chrome_trace_drop_count",
    "chrome_trace_to_spans",
    "collecting_metrics",
    "collecting_trace",
    "default_ledger_path",
    "detect_regressions",
    "diff_records",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "environment_fingerprint",
    "export_chrome_trace",
    "get_metrics",
    "get_tracer",
    "metric_value",
    "metrics_enabled",
    "observe_job",
    "span",
    "span_rollup",
    "spans_to_chrome_trace",
    "tracing_enabled",
]

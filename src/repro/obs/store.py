"""The persistent run ledger: cross-run, cross-machine telemetry storage.

Every in-process snapshot of :mod:`repro.obs` dies with the process; the
ledger is the durable layer on top.  It is one **append-only JSON-lines
file** holding one record per completed sweep or benchmark run:

``{"type": "run", "run_id": <hash>, "kind": "sweep"|"benchmark", ...}``
    A metrics-registry snapshot, a span rollup (per-name count/total — raw
    spans stay in the trace export), provenance counts (executed / cached /
    skipped / failed), the sweep's content hash and an **environment
    fingerprint** (python/numpy/torch versions, compute backend + device,
    platform, git SHA, shared job params such as ``train_lanes``).

Records are content-addressed: ``run_id`` is the stable SHA-256 of the full
record payload, so ledgers from different machines or CI shards can be
concatenated — records never collide and duplicates are detectable.  The
engine appends a record at the end of every
:meth:`~repro.runtime.engine.SweepRunner.run` when a ledger is configured
(the CLI configures one by default), and ``benchmarks/conftest.py`` appends
one per benchmark group, so the performance trajectory accumulates without
manual effort.

On top of the file sit the query layers the ``repro-runtime obs`` commands
use:

* :func:`history` — a per-metric series across runs.  Histogram-valued
  metrics are reconstructed through the bin-exact
  :meth:`~repro.obs.metrics.Histogram.from_snapshot` machinery, so ledger
  quantiles equal live quantiles.
* :func:`diff_records` — per-metric deltas between any two runs.
* :func:`detect_regressions` / :func:`check_ledger` — a robust
  median/MAD baseline over the last K *comparable* runs (same sweep, same
  spec hash, same fingerprint modulo git SHA — the code revision is exactly
  what a regression check must be allowed to vary) flagging metrics that
  drifted beyond a configurable threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.utils.serialization import PathLike, append_jsonl, iter_jsonl, to_jsonable
from repro.version import __version__

#: Environment variable overriding the default ledger path.
LEDGER_ENV_VAR = "REPRO_RUNTIME_LEDGER"

#: Fingerprint keys that must match for two runs to be *comparable* (baseline
#: material for regression detection).  ``git_sha`` is deliberately absent —
#: drift across code revisions is what the detector exists to catch.
COMPARABLE_FINGERPRINT_KEYS: Tuple[str, ...] = (
    "python",
    "numpy",
    "torch",
    "backend",
    "device",
    "platform",
    "train_lanes",
    "profile",
)

#: Job params hoisted into the fingerprint when shared by every job of a sweep.
_SHARED_PARAM_KEYS: Tuple[str, ...] = ("train_lanes", "profile", "backend")

#: What ``obs check`` guards when no metric is named explicitly.
DEFAULT_CHECK_METRICS: Tuple[str, ...] = ("engine.job_duration_s:p50",)

_QUANTILE_STAT = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


def default_ledger_path() -> Path:
    override = os.environ.get(LEDGER_ENV_VAR)
    if override:
        return Path(override)
    return Path.cwd() / ".repro_runtime" / "ledger.jsonl"


# ---------------------------------------------------------------------- fingerprint
_git_sha_cache: Optional[Tuple[Optional[str]]] = None


def _git_sha() -> Optional[str]:
    """The repo's HEAD commit (short), or None outside a git checkout."""
    global _git_sha_cache
    if _git_sha_cache is None:
        sha: Optional[str] = None
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _git_sha_cache = (sha,)
    return _git_sha_cache[0]


def _package_version(name: str) -> Optional[str]:
    """An installed package's version without importing the package itself."""
    try:
        from importlib.metadata import version

        return version(name)
    except Exception:
        return None


_static_fingerprint_cache: Optional[Dict[str, Any]] = None


def _static_fingerprint() -> Dict[str, Any]:
    """The process-constant fingerprint fields, computed once.

    ``importlib.metadata.version`` scans dist-info on every call and the git
    lookup forks a subprocess — caching keeps a ledger append cheap enough to
    run after every sweep (gated < 1% of a B=64 sweep by the benchmarks).
    """
    global _static_fingerprint_cache
    if _static_fingerprint_cache is None:
        import platform as platform_module

        import numpy as np

        _static_fingerprint_cache = {
            "python": platform_module.python_version(),
            "numpy": np.__version__,
            "torch": _package_version("torch"),
            "platform": f"{platform_module.system()}-{platform_module.machine()}",
            "git_sha": _git_sha(),
            "repro_version": __version__,
        }
    return _static_fingerprint_cache


def environment_fingerprint(extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Everything that makes two runs' timings comparable (or not).

    The compute backend is reported by *name and device tag* without forcing
    an import: when the selected backend was never instantiated this process
    (e.g. a fingerprint taken before any job ran), the device falls back to
    None rather than paying a torch import.  Backend/device are re-read every
    call (a process can switch backends between runs); everything else is
    process-constant and cached.
    """
    from repro.nn.backend import default_backend_name, peek_backend

    backend_name = default_backend_name()
    instance = peek_backend(backend_name)
    fingerprint = dict(_static_fingerprint())
    fingerprint["backend"] = instance.metric_tag if instance is not None else backend_name
    fingerprint["device"] = instance.device if instance is not None else None
    if extra:
        fingerprint.update(extra)
    return fingerprint


def sweep_param_fingerprint(sweep) -> Dict[str, Any]:
    """Job params shared by *every* job of the sweep, worth keying series on."""
    shared: Dict[str, Any] = {}
    jobs = getattr(sweep, "jobs", ())
    if not jobs:
        return shared
    for key in _SHARED_PARAM_KEYS:
        values = {job.params.get(key) for job in jobs}
        if len(values) == 1:
            value = values.pop()
            if value is not None:
                shared[key] = value
    return shared


def fingerprint_key(
    fingerprint: Dict[str, Any],
    keys: Sequence[str] = COMPARABLE_FINGERPRINT_KEYS,
) -> Tuple[Any, ...]:
    """The comparability key of a fingerprint (hashable, git SHA excluded)."""
    return tuple(fingerprint.get(key) for key in keys)


# ---------------------------------------------------------------------- records
@dataclass(frozen=True)
class RunRecord:
    """One ledger line, parsed."""

    run_id: str
    kind: str
    name: str
    spec_hash: str
    ts: float
    wall_time_s: float = 0.0
    counts: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Any] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(payload.get("run_id", "")),
            kind=str(payload.get("kind", "")),
            name=str(payload.get("name", "")),
            spec_hash=str(payload.get("spec_hash", "")),
            ts=float(payload.get("ts", 0.0)),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            counts=dict(payload.get("counts", {})),
            metrics=dict(payload.get("metrics", {})),
            spans=dict(payload.get("spans", {})),
            fingerprint=dict(payload.get("fingerprint", {})),
        )

    def metric(self, metric: str) -> Optional[float]:
        return metric_value(self, metric)


def metric_value(record: RunRecord, metric: str) -> Optional[float]:
    """Resolve ``name`` or ``name:stat`` against one record's metrics snapshot.

    Counters and gauges carry one value; histograms accept ``count``, ``sum``,
    ``mean``, ``min``, ``max`` and ``pNN`` quantiles (default ``p50``), the
    quantile computed through the bin-exact reconstruction.  Returns None when
    the metric is absent from the record.
    """
    name, _, stat = metric.partition(":")
    snapshot = record.metrics or {}
    counters = snapshot.get("counters", {})
    if name in counters and stat in ("", "value"):
        return float(counters[name])
    gauges = snapshot.get("gauges", {})
    if name in gauges and stat in ("", "value"):
        return float(gauges[name])
    data = snapshot.get("histograms", {}).get(name)
    if data is None:
        return None
    stat = stat or "p50"
    if stat == "count":
        return float(data.get("count", 0))
    if stat == "sum":
        return float(data.get("sum", 0.0))
    if stat in ("mean", "min", "max"):
        count = int(data.get("count", 0))
        if count == 0:
            return None
        if stat == "mean":
            return float(data.get("sum", 0.0)) / count
        value = data.get(stat)
        return float(value) if value is not None else None
    match = _QUANTILE_STAT.match(stat)
    if match is None:
        raise ValueError(
            f"unknown histogram stat {stat!r} in metric {metric!r} "
            "(expected count/sum/mean/min/max/pNN)"
        )
    histogram = Histogram.from_snapshot(data)
    if histogram.count == 0:
        return None
    return histogram.quantile(float(match.group(1)) / 100.0)


def span_rollup(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Collapse raw span records into per-name count/total/max durations.

    This is what the ledger persists instead of the raw ring: bounded in size
    by the number of distinct span names, not the number of spans.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for record in records:
        name = str(record.get("name", ""))
        duration_s = float(record.get("dur_ns", 0)) / 1e9
        entry = rollup.get(name)
        if entry is None:
            rollup[name] = {"count": 1, "total_s": duration_s, "max_s": duration_s}
        else:
            entry["count"] += 1
            entry["total_s"] += duration_s
            if duration_s > entry["max_s"]:
                entry["max_s"] = duration_s
    return rollup


# ---------------------------------------------------------------------- the ledger
class RunLedger:
    """Append-only, content-addressed JSONL store of run records."""

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()

    # ------------------------------------------------------------------ writing
    def append(self, payload: Dict[str, Any]) -> RunRecord:
        """Append one record; fills ``ts`` and the content-addressed ``run_id``.

        The payload is converted to plain JSON once and hashed over its
        canonical encoding (the same scheme as :func:`stable_hash`) — one
        walk, not two, keeping the per-run append under the benchmarks'
        1%-of-a-sweep overhead gate.
        """
        payload = dict(payload)
        payload.setdefault("type", "run")
        payload.setdefault("ts", time.time())
        payload.pop("run_id", None)
        jsonable = to_jsonable(payload)
        canonical = json.dumps(jsonable, sort_keys=True, separators=(",", ":"))
        jsonable["run_id"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        append_jsonl(self.path, jsonable)
        return RunRecord.from_dict(jsonable)

    def record_run(
        self,
        kind: str,
        name: str,
        spec_hash: str,
        *,
        wall_time_s: float = 0.0,
        counts: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        spans: Optional[Dict[str, Any]] = None,
        extra_fingerprint: Optional[Dict[str, Any]] = None,
    ) -> RunRecord:
        """Append one fully-fingerprinted run record."""
        return self.append(
            {
                "kind": kind,
                "name": name,
                "spec_hash": spec_hash,
                "wall_time_s": float(wall_time_s),
                "counts": counts or {},
                "metrics": metrics or {},
                "spans": spans or {},
                "fingerprint": environment_fingerprint(extra_fingerprint),
            }
        )

    def record_sweep(self, sweep, report, failures: int = 0) -> RunRecord:
        """The engine's end-of-run hook: snapshot ``report`` into the ledger."""
        from repro.obs.tracing import get_tracer

        tracer = get_tracer()
        return self.record_run(
            kind="sweep",
            name=sweep.name,
            spec_hash=sweep.sweep_hash,
            wall_time_s=report.wall_time_s,
            counts={
                "jobs": len(sweep),
                "executed": report.executed,
                "cache_hits": report.cache_hits,
                "skipped": report.skipped,
                "failed": int(failures),
            },
            metrics=report.metrics or {},
            spans=span_rollup(tracer.records()) if tracer is not None else {},
            extra_fingerprint=sweep_param_fingerprint(sweep),
        )

    # ------------------------------------------------------------------ reading
    def records(
        self,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        spec_hash: Optional[str] = None,
    ) -> List[RunRecord]:
        """Records in append order, optionally filtered."""
        selected = []
        for payload in iter_jsonl(self.path):
            if payload.get("type") != "run":
                continue
            record = RunRecord.from_dict(payload)
            if name is not None and record.name != name:
                continue
            if kind is not None and record.kind != kind:
                continue
            if spec_hash is not None and record.spec_hash != spec_hash:
                continue
            selected.append(record)
        return selected


# ---------------------------------------------------------------------- queries
def history(
    records: Sequence[RunRecord], metric: str
) -> List[Tuple[RunRecord, Optional[float]]]:
    """The per-run series of one metric, in ledger (append/time) order."""
    return [(record, metric_value(record, metric)) for record in records]


def comparable_records(
    records: Sequence[RunRecord], reference: RunRecord
) -> List[RunRecord]:
    """Records comparable to ``reference``: same run identity and environment.

    Same kind + name + spec hash + fingerprint modulo git SHA — so the series
    spans code revisions (that drift is the signal) but never mixes machines,
    backends, devices or interpreter versions (that drift is noise).
    """
    key = fingerprint_key(reference.fingerprint)
    return [
        record
        for record in records
        if record.run_id != reference.run_id
        and record.kind == reference.kind
        and record.name == reference.name
        and record.spec_hash == reference.spec_hash
        and fingerprint_key(record.fingerprint) == key
    ]


def _flatten_metrics(record: RunRecord) -> Dict[str, float]:
    """Every metric a record carries, flattened to ``name[:stat]`` scalars."""
    flat: Dict[str, float] = {"run.wall_time_s": float(record.wall_time_s)}
    for key, value in record.counts.items():
        if isinstance(value, (int, float)):
            flat[f"run.{key}"] = float(value)
    snapshot = record.metrics or {}
    for name, value in snapshot.get("counters", {}).items():
        flat[name] = float(value)
    for name, value in snapshot.get("gauges", {}).items():
        flat[name] = float(value)
    for name in snapshot.get("histograms", {}):
        for stat in ("count", "sum", "mean", "p50", "p95"):
            value = metric_value(record, f"{name}:{stat}")
            if value is not None:
                flat[f"{name}:{stat}"] = value
    return flat


def diff_records(a: RunRecord, b: RunRecord) -> List[Dict[str, Any]]:
    """Per-metric deltas ``b - a`` over the union of both records' metrics."""
    flat_a = _flatten_metrics(a)
    flat_b = _flatten_metrics(b)
    rows: List[Dict[str, Any]] = []
    for metric in sorted(set(flat_a) | set(flat_b)):
        value_a = flat_a.get(metric)
        value_b = flat_b.get(metric)
        row: Dict[str, Any] = {"metric": metric, "a": value_a, "b": value_b}
        if value_a is not None and value_b is not None:
            row["delta"] = value_b - value_a
            if value_a != 0.0:
                row["ratio"] = value_b / value_a
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- regressions
@dataclass(frozen=True)
class RegressionFinding:
    """One metric of one run judged against its robust baseline."""

    name: str           #: sweep/benchmark-group name
    metric: str
    value: float
    median: float       #: baseline median
    mad: float          #: baseline median absolute deviation
    ratio: float        #: value / median (inf when the baseline median is 0)
    baseline_runs: int
    regressed: bool

    def describe(self) -> str:
        state = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.name} {self.metric}: {self.value:.6g} vs median {self.median:.6g} "
            f"(mad {self.mad:.3g}, x{self.ratio:.2f}, {self.baseline_runs} baseline runs) "
            f"[{state}]"
        )


def detect_regressions(
    current: RunRecord,
    baseline: Sequence[RunRecord],
    metrics: Sequence[str] = DEFAULT_CHECK_METRICS,
    threshold: float = 1.5,
    min_baseline: int = 2,
) -> List[RegressionFinding]:
    """Judge ``current`` against a robust baseline, one finding per metric.

    The baseline is the median of the comparable runs' values; a metric is
    flagged when it exceeds the median by more than the larger of the relative
    ``threshold`` allowance and 3 scaled-MAD (so a noisy baseline widens its
    own tolerance instead of crying wolf).  Metrics are treated as
    higher-is-worse (latencies, durations); absent metrics or baselines
    thinner than ``min_baseline`` produce no finding.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold}")
    findings: List[RegressionFinding] = []
    for metric in metrics:
        value = metric_value(current, metric)
        if value is None:
            continue
        values = [v for r in baseline if (v := metric_value(r, metric)) is not None]
        if len(values) < min_baseline:
            continue
        median = statistics.median(values)
        mad = statistics.median(abs(v - median) for v in values)
        allowance = max((threshold - 1.0) * median, 3.0 * 1.4826 * mad)
        if median > 0:
            ratio = value / median
        else:
            ratio = math.inf if value > 0 else 1.0
        findings.append(
            RegressionFinding(
                name=current.name,
                metric=metric,
                value=value,
                median=median,
                mad=mad,
                ratio=ratio,
                baseline_runs=len(values),
                regressed=value - median > allowance,
            )
        )
    return findings


def check_ledger(
    ledger: RunLedger,
    name: Optional[str] = None,
    metrics: Sequence[str] = DEFAULT_CHECK_METRICS,
    threshold: float = 1.5,
    baseline_k: int = 5,
    min_baseline: int = 2,
) -> List[RegressionFinding]:
    """Check the latest run of every (kind, name) group against its baseline.

    For each group the newest record is the run under test and the last
    ``baseline_k`` comparable predecessors are its baseline.  Returns every
    finding (regressed or not) so callers can render the whole table; CI
    fails when any ``finding.regressed`` is set.
    """
    records = ledger.records(name=name)
    groups: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        groups.setdefault((record.kind, record.name), []).append(record)
    findings: List[RegressionFinding] = []
    for _, group in sorted(groups.items()):
        current = group[-1]
        baseline = comparable_records(group[:-1], current)[-baseline_k:]
        findings.extend(
            detect_regressions(
                current,
                baseline,
                metrics=metrics,
                threshold=threshold,
                min_baseline=min_baseline,
            )
        )
    return findings

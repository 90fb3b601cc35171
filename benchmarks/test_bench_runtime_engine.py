"""Benchmark: the sweep engine — serial vs worker-pool wall time and cached re-runs.

Uses a reduced fig5-style sweep (the Fig. 5 environment x scheme grid over a
densified candidate-voltage ladder, so each job does a few hundred
operating-point evaluations) to compare:

* the serial backend,
* a 2-worker multiprocessing pool on the identical sweep,
* an immediate re-run against a warm content-addressed cache.

The assertions pin the engine's semantics (identical results from both
backends; a warm re-run executes nothing); the timings are the measurement.
On a single-core host the pool can at best tie the serial backend (its margin
over serial *is* the dispatch overhead); the speedup shows up with real cores.

One gate times the result store itself: 1440 ``put`` calls of records shaped
like the ``generalization`` sweep's results must run at least 2x faster than
the former one-pretty-printed-file-per-job layout, kept here as the reference.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

from repro.experiments.fig5 import fig5_sweep_spec
from repro.experiments.generalization import generalization_sweep_spec
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepRunner
from repro.runtime.executor import MultiprocessExecutor, SerialExecutor
from repro.runtime.jobs import run_job
from repro.utils.serialization import save_json

#: A dense voltage ladder makes each fig5 cell expensive enough to dispatch.
DENSE_VOLTAGES = tuple(np.round(np.linspace(0.86, 0.70, 1000), 6))


def _sweep():
    return fig5_sweep_spec(candidate_voltages=DENSE_VOLTAGES)


def test_bench_runtime_serial(benchmark):
    sweep = _sweep()
    report = benchmark.pedantic(
        lambda: SweepRunner(executor=SerialExecutor()).run(sweep), rounds=5, iterations=1
    )
    assert report.executed == len(sweep)
    assert report.complete


def test_bench_runtime_worker_pool(benchmark):
    sweep = _sweep()
    executor = MultiprocessExecutor(workers=2)
    report = benchmark.pedantic(
        lambda: SweepRunner(executor=executor).run(sweep), rounds=3, iterations=1
    )
    assert report.executed == len(sweep)
    serial = SweepRunner(executor=SerialExecutor()).run(sweep)
    assert report.results == serial.results


def test_bench_runtime_cached_rerun(benchmark, tmp_path):
    sweep = _sweep()
    runner = SweepRunner(cache=ResultCache(root=tmp_path))
    warmup = runner.run(sweep)
    assert warmup.executed == len(sweep)

    report = benchmark(lambda: runner.run(sweep))
    # The re-run must be a pure cache hit: no job executes a second time.
    assert report.executed == 0
    assert report.cache_hits == len(sweep)
    assert report.results == warmup.results
    speedup = warmup.wall_time_s / max(report.wall_time_s, 1e-9)
    print(f"\ncached re-run speedup vs fresh serial run: {speedup:.1f}x")


def _generalized_records():
    """The generalization sweep's 1440 specs, each with a result shaped like its own."""
    sweep = generalization_sweep_spec()
    template = run_job(sweep.jobs[0])
    return [
        (spec, dict(template, scenario=spec.job_id, ber_percent=spec.params["ber_percent"]))
        for spec in sweep.jobs
    ]


def _per_file_put(root, spec, result):
    """The former ``ResultCache.put``: temp file, ``save_json(indent=2)``, rename."""
    digest = spec.spec_hash
    path = root / "v0.2.0" / digest[:2] / f"{digest}.json"
    record = {
        "job_id": spec.job_id,
        "kind": spec.kind,
        "params": spec.params,
        "version": "0.2.0",
        "result": result,
    }
    temp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    save_json(temp, record)
    os.replace(temp, path)


def _put_all(put, records) -> None:
    for spec, result in records:
        put(spec, result)


def test_result_store_put_speedup(tmp_path, time_pairs):
    """Acceptance gate: >= 2x over one JSON file per job on 1440 sweep-shaped puts,
    with every result read back equal by a fresh store."""
    records = _generalized_records()
    assert len(records) == 1440
    file_roots, store_roots = [], []

    def per_file_run():
        file_roots.append(tmp_path / f"files-{len(file_roots)}")
        put = functools.partial(_per_file_put, file_roots[-1])
        return functools.partial(_put_all, put, records)

    def store_run():
        store_roots.append(tmp_path / f"store-{len(store_roots)}")
        return functools.partial(_put_all, ResultCache(root=store_roots[-1]).put, records)

    files_s, store_s = time_pairs(per_file_run, store_run, 5)
    for root in store_roots:
        fresh = ResultCache(root=root)
        assert all(fresh.get(spec) == result for spec, result in records)
    speedup = files_s / store_s
    print(
        f"\n[result store, {len(records)} puts] per-file {files_s * 1e3:.1f} ms, "
        f"segment {store_s * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0

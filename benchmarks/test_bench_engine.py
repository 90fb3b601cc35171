"""Benchmark: job fusion and the warm worker pool — the engine perf gates.

Two workloads, two gates:

* **Fusion** — a cache-cold fusable ``rollout.generalized`` slice (one world,
  eight BER levels = fusion width 8, batched evaluation at B=64 episodes).
  Over three cold (unfused, fused) pairs timed through the root
  ``conftest.py`` fixture ``time_pairs``, after one untimed warm-up pair,
  the fastest fused run must finish at least **3x** faster end-to-end than
  the fastest unfused per-job run, while producing bitwise-identical
  per-job results, cache entries and journal records (modulo wall-clock
  fields) to the unfused run of its pair.  The split is honest: the unfused path re-trains the shared
  policy once per BER level, the fused path trains it once per group — that
  shared-prefix elimination is the whole optimisation.

* **Warm pool** — a generalization slice run twice on the same
  :class:`WarmPoolExecutor`.  The second run must spawn **zero** new worker
  processes and resolve at least **90%** of its world lookups from the
  per-worker warm caches.

Both benchmarks feed the ``engine`` ledger group (the fusion benchmark as
one round: its three timed pairs), so ``repro-runtime obs check
--fail-on-regression`` tracks fusion/pool drift across runs like every
other benchmark group.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.generalization import (
    FAMILY_PRESETS,
    generalization_rollout_sweep_spec,
    generalization_sweep_spec,
)
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepRunner
from repro.runtime.journal import Journal
from repro.runtime.pool import WarmPoolExecutor, shutdown_pool
from repro.utils.warmcache import clear_warm_caches

#: The fusable axis: eight BER levels over one trained world = width 8.
FUSION_BER_LEVELS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
FUSION_WIDTH = 8
#: Batched-core evaluation width per job.
BATCH_EPISODES = 64
#: End-to-end wall-clock gate: fused must beat unfused by at least this.
MIN_FUSION_SPEEDUP = 3.0
#: Warm-pool gate: share of world lookups served warm on the re-run.
MIN_WARM_HIT_RATE = 0.90


def _fusable_slice():
    """One world x eight BER levels: every job shares the trained policy."""
    return generalization_rollout_sweep_spec(
        presets=FAMILY_PRESETS[:1],
        seeds=(0,),
        ber_levels=FUSION_BER_LEVELS,
        num_episodes=BATCH_EPISODES,
        training_episodes=48,
        num_fault_maps=2,
        train_lanes=8,
    )


def _strip_volatile(record):
    return {k: v for k, v in record.items() if k not in ("ts", "duration_s")}


def _journal_records(sweep, directory):
    path = Journal.for_sweep(sweep, directory).path
    return sorted(
        (_strip_volatile(json.loads(line)) for line in path.read_text().splitlines()),
        key=lambda record: record.get("job", ""),
    )


@pytest.mark.benchmark(group="engine")
def test_bench_engine_fusion_speedup(benchmark, tmp_path, store_lines, time_pairs):
    """Gate: >=3x cold wall-clock, bitwise-identical artifacts.

    Each side of a pair is one cold sweep run (cleared warm caches, a fresh
    store and journal), timed through ``time_pairs``.  One untimed warm-up
    pair runs first, so that first-use imports fall outside the timed pairs.
    The timed pairs run as the benchmark's one round, which the ``engine``
    ledger group records.
    """
    sweep = _fusable_slice()
    runs = {"unfused": [], "fused": []}

    def cold_run(label, fusion_width):
        attempt = len(runs[label])
        clear_warm_caches()
        runner = SweepRunner(
            cache=ResultCache(root=tmp_path / f"{label}-cache-{attempt}"),
            journal_dir=tmp_path / f"{label}-journal-{attempt}",
            fusion_width=fusion_width,
        )
        runs[label].append(None)

        def run():
            runs[label][attempt] = runner.run(sweep)

        return run

    def make_unfused():
        return cold_run("unfused", 1)

    def make_fused():
        return cold_run("fused", FUSION_WIDTH)

    for make in (make_unfused, make_fused):
        make()()
    unfused_s, fused_s = benchmark.pedantic(
        time_pairs, args=(make_unfused, make_fused, 3), rounds=1
    )

    # Bitwise artifact equivalence: every fused run's results, cache entries
    # and journal records match the unfused run of its pair exactly.
    for attempt, report in enumerate(runs["fused"]):
        assert report.fused_jobs == len(sweep)
        assert report.results == runs["unfused"][attempt].results
        fused_lines = store_lines(tmp_path / f"fused-cache-{attempt}")
        assert set(fused_lines) == {job.spec_hash for job in sweep.jobs}
        assert fused_lines == store_lines(tmp_path / f"unfused-cache-{attempt}")
        assert _journal_records(sweep, tmp_path / f"fused-journal-{attempt}") == (
            _journal_records(sweep, tmp_path / f"unfused-journal-{attempt}")
        )

    speedup = unfused_s / fused_s
    print(f"\nfusion speedup (cold, width {FUSION_WIDTH}): {speedup:.2f}x")
    assert speedup >= MIN_FUSION_SPEEDUP, (
        f"fused path only {speedup:.2f}x faster than unfused "
        f"(gate: {MIN_FUSION_SPEEDUP}x; fastest unfused {unfused_s:.2f}s, "
        f"fastest fused {fused_s:.2f}s over 3 pairs)"
    )


@pytest.mark.benchmark(group="engine")
def test_bench_engine_warm_pool_rerun(benchmark):
    """Gate: re-run spawns zero workers, >=90% warm world-cache hits."""
    sweep = generalization_sweep_spec(presets=FAMILY_PRESETS[:2], seeds=(0, 1))
    shutdown_pool()
    try:
        executor = WarmPoolExecutor(workers=2)
        runner = SweepRunner(executor=executor, fusion_width=1)
        cold = runner.run(sweep)
        assert executor.last_stats["spawned"] == 2
        # "world_metrics" is the world-level warm cache these jobs probe on
        # every execution (it wraps world generation and metric extraction);
        # a warm hit there means the worker skipped recompiling the world.
        cold_warm = executor.warm_stats().get("world_metrics", {"hits": 0, "misses": 0})

        warm = benchmark(lambda: SweepRunner(executor=executor, fusion_width=1).run(sweep))
        assert warm.results == cold.results
        assert executor.last_stats["spawned"] == 0, "warm re-run spawned processes"

        rerun_warm = executor.warm_stats().get("world_metrics", {"hits": 0, "misses": 0})
        # The benchmark fixture may run several rounds; rate the delta over
        # everything after the cold run — all of it should be warm.
        delta_hits = rerun_warm["hits"] - cold_warm["hits"]
        delta_misses = rerun_warm["misses"] - cold_warm["misses"]
        rate = delta_hits / max(1, delta_hits + delta_misses)
        print(
            f"\nwarm re-run world-cache hit rate: {100 * rate:.1f}% "
            f"({delta_hits} hits / {delta_misses} misses)"
        )
        assert rate >= MIN_WARM_HIT_RATE
    finally:
        shutdown_pool()

"""The benchmark workloads, driven through public library entry points.

Each workload is one fixed unit of work at a stated input size, sized at
1-3 s so that many passes fit in one benchmark run.  A repetition is ``prepare``
(untimed: fresh temp cache and journal, cleared warm caches, pool spawn,
simulator construction) -> one timed ``run`` -> ``release``.  ``run``
returns the pass's output; ``digests`` (untimed) turns it into one digest
per operation — a sweep job, a Table I cell or a fleet step — which
:mod:`perfbench.run` checks against the references recorded in
``perfbench/reference.json``.

Inputs follow the seed in one of two ways:

* The reinforcement-learning workloads keep their inputs fixed and let the
  seed only permute their order (``seed_invariant``): their cost follows
  episode lengths, which change by up to 2x with any world, policy or
  evaluation seed — far more than any layer change the benchmark should
  resolve.  One recorded reference serves every seed.
* The fleet and sweep workloads draw their inputs from input variant
  ``seed % INPUT_VARIANTS``; every variant has its recorded reference.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments import generalization
from repro.experiments.profiles import FAST_PROFILE
from repro.experiments.table1 import measure_table1_with_training
from repro.fleet import FleetConfig, FleetSim
from repro.runtime import (
    ResultCache,
    SerialExecutor,
    SweepReport,
    SweepRunner,
    SweepSpec,
    WarmPoolExecutor,
    shutdown_pool,
)
from repro.runtime.pool import get_pool
from repro.utils.serialization import stable_hash
from repro.utils.tables import Table
from repro.utils.warmcache import clear_warm_caches, hit_rate
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle

#: Distinct inputs of the seed-dependent workloads; seed ``n`` runs variant
#: ``n % INPUT_VARIANTS``, and every variant has a recorded reference.
INPUT_VARIANTS = 20

#: Wall-heavy generated-world families of the measured rollout sweep.
WALL_FAMILIES = ("corridor", "urban", "rooms")

#: Training and evaluation episodes of each rollout job (the registered
#: sweep's 120 / 16 make one pass of both presets of every family take
#: ~17 s).
ROLLOUT_TRAINING_EPISODES = 20
ROLLOUT_EVAL_EPISODES = 4

#: Pool size of the analytic sweep (the container has two cores).
SWEEP_WORKERS = 2

#: Vehicles and lockstep steps of one fleet unit.
FLEET_VEHICLES = 1000
FLEET_STEPS = 5

#: Bit-error rates (percent) of the measured Table I columns.
TABLE1_BER_LEVELS = (0.1, 1.0, 3.0)

#: The reduced-scale Table I profile: ``FAST_PROFILE`` with 40 instead of
#: 250 training episodes and 4 instead of 8 fault maps per operating point.
TABLE1_PROFILE = replace(FAST_PROFILE, training_episodes=40, num_fault_maps=4)


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _shuffled(seed: int, count: int) -> List[int]:
    return [int(index) for index in np.random.default_rng(seed).permutation(count)]


class Workload:
    """One benchmark workload; subclasses fill in the unit of work."""

    name = ""
    #: Operations in one pass of the unit of work.
    operations = 0
    #: Consecutive operations hashed together in the stored references.
    reference_group = 1
    #: The recorded reference holds one pass's digests divided by this;
    #: a pass repeats the recorded digests this many times.
    reference_repeats = 1
    #: Whether one recorded reference holds for every seed.
    seed_invariant = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.variant = self.seed % INPUT_VARIANTS
        self.workdir = workdir
        self._reps = 0
        self.rep_dir = workdir

    @property
    def reference_key(self) -> str:
        """The key of this workload's reference in ``reference.json``."""
        return "all" if self.seed_invariant else str(self.variant)

    def prepare(self) -> None:
        """Per-repetition set-up (untimed): cold caches and a fresh temp dir."""
        clear_warm_caches()
        self._reps += 1
        self.rep_dir = self.workdir / f"rep{self._reps}"
        self.rep_dir.mkdir(parents=True)

    def run(self) -> Any:
        """One timed pass of the unit of work."""
        raise NotImplementedError

    def digests(self, output: Any) -> List[str]:
        """One digest per operation of a pass's ``output``."""
        raise NotImplementedError

    def release(self) -> float:
        """Per-repetition teardown; returns the peak RSS of helper processes (MiB)."""
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        return 0.0

    def path_ok(self) -> bool:
        """Whether the last pass took the path it measures."""
        return True

    def counters(self) -> Dict[str, float]:
        """Derived per-layer counters of the last repetition."""
        return {}


class _SweepWorkload(Workload):
    """A sweep run through ``SweepRunner`` into a fresh cache and journal."""

    #: Canonical index of each job of ``self.sweep``; None when not reordered.
    order: Optional[List[int]] = None

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sweep = self.build_sweep()
        self.operations = len(self.sweep)
        self.executor = self.build_executor()
        self.report: Optional[SweepReport] = None
        self._journals = 0

    def build_sweep(self) -> SweepSpec:
        raise NotImplementedError

    def build_executor(self):
        raise NotImplementedError

    def run(self) -> SweepReport:
        # A fresh journal per pass, and no ledger: a benchmark run writes
        # nothing outside its temp dir.
        self._journals += 1
        runner = SweepRunner(
            executor=self.executor,
            cache=ResultCache(self.rep_dir / "cache"),
            journal_dir=self.rep_dir / f"journal{self._journals}",
        )
        self.report = runner.run(self.sweep)
        return self.report

    def digests(self, report: SweepReport) -> List[str]:
        """One digest per job, in canonical job order."""
        order = self.order if self.order is not None else range(len(report.results))
        digests = [""] * len(report.results)
        for index, result in zip(order, report.results):
            digests[index] = stable_hash(result)
        return digests

    def path_ok(self) -> bool:
        return self.report is not None and self.report.executed == len(self.sweep)

    def counters(self) -> Dict[str, float]:
        return {"runtime.fusion.fused_ratio": _fused_ratio(self.report)}


def _fused_ratio(report: Optional[SweepReport]) -> float:
    executed = report.executed if report is not None else 0
    return report.fused_jobs / executed if executed else 0.0


class RolloutsWalls(_SweepWorkload):
    """Measured ``rollout.generalized`` jobs on the wall-heavy world presets.

    The 6 jobs are the default preset of each family from the ROADMAP
    reference slice (world seed 0, BER 0 and 1 fused) at a reduced episode
    budget; the seed shuffles the job order.
    """

    name = "rollouts-walls"
    seed_invariant = True

    def build_sweep(self) -> SweepSpec:
        presets = tuple((family, {}) for family in WALL_FAMILIES)
        canonical = generalization.generalization_rollout_sweep_spec(
            presets=presets,
            seeds=(0,),
            training_episodes=ROLLOUT_TRAINING_EPISODES,
            num_episodes=ROLLOUT_EVAL_EPISODES,
        )
        self.order = _shuffled(self.seed, len(canonical))
        return SweepSpec(
            name=canonical.name,
            jobs=tuple(canonical.jobs[index] for index in self.order),
            description=canonical.description,
        )

    def build_executor(self):
        return SerialExecutor()


class SweepGeneralization(_SweepWorkload):
    """The registered 1440-job analytic sweep on the warm worker pool.

    One pass runs the sweep cold into an empty cache and journal (the write
    path), then re-runs it into a fresh journal: 1440 cache hits (the read
    path), whose results must equal the cold pass's.  The re-run alone
    (~0.1 s) swings by 30% between runs on a shared host, so it is timed
    only as part of the pass.  Variant ``n`` draws worlds ``5n..5n+4`` of
    every family preset (variant 0 is the registered sweep).
    """

    name = "sweep-generalization"
    #: Jobs per generated world (2 platforms x 2 policies x 6 BER levels).
    reference_group = 24
    reference_repeats = 2  # the re-run serves the cold pass's results

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.operations = 2 * len(self.sweep)  # every job executed, then re-served
        self.cold_report: Optional[SweepReport] = None

    def run(self) -> tuple:
        self.cold_report = super().run()
        return self.cold_report, super().run()

    def digests(self, output: tuple) -> List[str]:
        cold, rerun = output
        return super().digests(cold) + super().digests(rerun)

    def path_ok(self) -> bool:
        jobs = len(self.sweep)
        return (
            self.cold_report is not None
            and self.cold_report.executed == jobs
            and self.report.cache_hits == jobs
        )

    def build_sweep(self) -> SweepSpec:
        count = len(generalization.GENERALIZATION_SEEDS)
        seeds = tuple(range(count * self.variant, count * (self.variant + 1)))
        return generalization.generalization_sweep_spec(seeds=seeds)

    def build_executor(self):
        return WarmPoolExecutor(workers=SWEEP_WORKERS)

    def prepare(self) -> None:
        # Warm caches were cleared in this process first, so the forked
        # workers start cold too.
        super().prepare()
        shutdown_pool()
        get_pool().ensure_workers(SWEEP_WORKERS)

    def release(self) -> float:
        from multiprocessing import active_children

        helpers = sum(peak_rss_mb(child.pid) for child in active_children())
        shutdown_pool()
        super().release()
        return helpers

    def counters(self) -> Dict[str, float]:
        stats = self.executor.last_stats
        warm = stats.get("warm", {})
        caches = ("worlds", "world_metrics")
        worlds = {
            outcome: sum(warm.get(name, {}).get(outcome, 0) for name in caches)
            for outcome in ("hits", "misses")
        }
        return {
            "runtime.fusion.fused_ratio": _fused_ratio(self.cold_report),
            "runtime.pool.spawned": float(stats.get("spawned_total", 0)),
            "runtime.pool.chunks": float(stats.get("chunks", 0)),
            "runtime.pool.steal_events": float(stats.get("steal_events", 0)),
            "runtime.warm.world_hit_ratio": hit_rate(worlds),
        }


class BerryTrain(Workload):
    """Reduced-scale Table I: train classical + BERRY, evaluate under faults.

    Training and evaluation use seed 0 and :data:`TABLE1_PROFILE`; the seed
    shuffles the order of the BER columns, each of which draws its own
    fault maps and episodes.
    """

    name = "berry-train"
    operations = 2 * (1 + len(TABLE1_BER_LEVELS))  # schemes x (error-free + BER levels)
    seed_invariant = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        order = _shuffled(self.seed, len(TABLE1_BER_LEVELS))
        self.ber_levels = tuple(TABLE1_BER_LEVELS[index] for index in order)

    def run(self) -> Table:
        return measure_table1_with_training(self.ber_levels, TABLE1_PROFILE, seed=0)

    def digests(self, table: Table) -> List[str]:
        payload = table.to_jsonable()
        columns = ["error_free_pct"] + [f"p={ber:g}%" for ber in TABLE1_BER_LEVELS]
        return [
            stable_hash([row["scheme"], column, row[column]])
            for row in payload["rows"]
            for column in columns
        ]


def city_field(variant: int) -> DynamicObstacleField:
    """150x150 m airspace: 60 static blockers plus 12 patrolling movers.

    The construction of ``benchmarks/test_bench_fleet.py``, with its fixed
    RNG seed 42 offset by the input variant.
    """
    rng = np.random.default_rng(42 + variant)
    num_static = 60
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(10.0, 140.0, size=(4, 2)),
            radius=1.0,
            speed_m_s=2.0,
            phase_m=float(rng.uniform(0.0, 30.0)),
        )
        for _ in range(12)
    )
    return DynamicObstacleField(
        world_size=(150.0, 150.0),
        centers=rng.uniform(5.0, 145.0, size=(num_static, 2)),
        radii=rng.uniform(0.8, 2.5, size=num_static),
        movers=movers,
    )


class FleetCity(Workload):
    """1000 UAVs stepped in lockstep over a dynamic city field."""

    name = "fleet-city"
    operations = FLEET_STEPS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.field = city_field(self.variant)
        self.config = FleetConfig(
            num_vehicles=FLEET_VEHICLES,
            max_steps=FLEET_STEPS,
            num_chargers=16,
            separation_m=0.8,
        )
        self.sim: Optional[FleetSim] = None

    def prepare(self) -> None:
        super().prepare()
        self.sim = FleetSim(self.field, self.config, rng=self.variant)

    def run(self) -> tuple:
        snapshots = []
        for _ in range(FLEET_STEPS):
            self.sim.step()
            snapshots.append(
                (self.sim.positions.copy(), self.sim.states.copy(), self.sim.energies.copy())
            )
        return snapshots, self.sim.run()  # max_steps reached: run() only builds the result

    def digests(self, output: tuple) -> List[str]:
        snapshots, result = output
        digests = [
            hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()
            for arrays in snapshots
        ]
        positions, states, _ = snapshots[-1]
        digests[-1] = stable_hash(
            {
                "step": digests[-1],
                "positions": positions.tolist(),
                "states": states.tolist(),
                "result": asdict(result),
            }
        )
        return digests


WORKLOADS = {
    workload.name: workload
    for workload in (RolloutsWalls, BerryTrain, FleetCity, SweepGeneralization)
}

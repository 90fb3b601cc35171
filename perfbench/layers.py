"""The benchmark's layer taxonomy: what the traced run wraps and reports.

Every entry names the library functions that make up one layer, the
end-to-end metric the layer should move, and the workloads on which it does
most of its work — the map a performance change is judged against.  Layers
are this repository's modules; names are ``<module>.<function>``.

:data:`DERIVED` lists the per-layer metrics that are ratios or counts read
from the program's own reports (``SweepReport``, ``WarmPoolExecutor``
stats, the ``fleet.conflict_checks`` counter) rather than timed wrappers.
The list of metric names itself is the ``per_layer`` list of
``BENCHMARK.json``, which :mod:`perfbench.run` checks the traced run
against.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from perfbench.trace import Layer

WALLS = "rollouts-walls"
BERRY = "berry-train"
FLEET = "fleet-city"
SWEEP = "sweep-generalization"


def _points(args: tuple, kwargs: dict) -> int:
    """Rows of the ``points`` argument of a point query."""
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(np.size(points)) // 2


def _batch_rows(args: tuple, kwargs: dict) -> int:
    """Rows of the input batch of ``Sequential.forward``."""
    return len(args[1] if len(args) > 1 else kwargs["inputs"])


def _all_pairs(args: tuple, kwargs: dict) -> int:
    """All-pairs candidate count of one ``detect_conflicts`` call."""
    count = int(np.size(args[0] if args else kwargs["starts"])) // 2
    return count * (count - 1) // 2


LAYERS: Tuple[Layer, ...] = (
    # -- envs.obstacles: static geometric queries
    Layer(
        "envs.obstacles.clearances",
        ("repro.envs.obstacles:ObstacleField.clearances",),
        "wall_s", (WALLS, FLEET), counts=("calls", "rows"), rows=_points,
    ),
    Layer(
        "envs.obstacles.ray_distances_many",
        ("repro.envs.obstacles:ObstacleField.ray_distances_many",),
        "wall_s", (WALLS, FLEET),
    ),
    Layer(
        "envs.obstacles.segments_collide",
        ("repro.envs.obstacles:ObstacleField.segments_collide",),
        "wall_s", (WALLS,),
    ),
    # -- worlds: time-parameterised queries and world compilation
    Layer(
        "worlds.ray_distances_many_timed",
        ("repro.worlds.dynamic:DynamicObstacleField.ray_distances_many_timed",),
        "wall_s", (FLEET,),
    ),
    Layer(
        "worlds.segments_collide_timed",
        ("repro.worlds.dynamic:DynamicObstacleField.segments_collide_timed",),
        "wall_s", (FLEET,),
    ),
    Layer(
        "worlds.clearances_timed",
        ("repro.worlds.dynamic:DynamicObstacleField.clearances_timed",),
        "wall_s", (FLEET,),
    ),
    Layer(
        "worlds.collides_many_timed",
        ("repro.worlds.dynamic:DynamicObstacleField.collides_many_timed",),
        "wall_s", (FLEET,),
    ),
    Layer(
        "worlds.positions_at",
        ("repro.worlds.dynamic:MovingObstacle.positions_at",),
        "wall_s", (FLEET,), counts=("calls",),
    ),
    Layer(
        "worlds.generate_world",
        ("repro.worlds.registry:generate_world",),
        "wall_s", (SWEEP, WALLS), counts=("calls",),
    ),
    # -- envs: lockstep environment and sensors
    Layer(
        "envs.batch.step",
        ("repro.envs.batch:BatchedNavigationEnv.step",),
        "wall_s", (WALLS, BERRY), counts=("calls",),
    ),
    Layer(
        "envs.batch.reset_lanes",
        ("repro.envs.batch:BatchedNavigationEnv.reset_lanes",),
        "wall_s", (WALLS, BERRY),
    ),
    Layer(
        "envs.batch.run_batched_episodes",
        ("repro.envs.batch:run_batched_episodes",),
        "wall_s", (WALLS, BERRY),
    ),
    Layer(
        "envs.sensors.sense_many",
        ("repro.envs.sensors:RaySensor.sense_many",),
        "wall_s", (WALLS, BERRY),
    ),
    # -- rl: collection, learning, replay, evaluation
    Layer("rl.collect", ("repro.rl.collect:LockstepCollector.collect",), "wall_s", (WALLS, BERRY)),
    Layer("rl.train", ("repro.rl.dqn:DqnTrainer.train",), "wall_s", (WALLS, BERRY)),
    Layer(
        "rl.learn_on_batch",
        ("repro.rl.dqn:DqnTrainer.learn_on_batch",),
        "wall_s", (BERRY, WALLS), counts=("calls",),
    ),
    Layer("rl.replay.sample", ("repro.rl.replay_buffer:ReplayBuffer.sample",), "wall_s", (BERRY,)),
    Layer(
        "rl.replay.add_batch",
        ("repro.rl.replay_buffer:ReplayBuffer.add_batch",),
        "wall_s", (BERRY,),
    ),
    Layer(
        "rl.evaluate_policy", ("repro.rl.evaluation:evaluate_policy",), "wall_s", (BERRY, WALLS)
    ),
    Layer(
        "rl.evaluate_under_faults",
        ("repro.rl.evaluation:evaluate_under_faults",),
        "wall_s", (BERRY, WALLS),
    ),
    # -- nn: the policy network
    Layer(
        "nn.forward",
        ("repro.nn.network:Sequential.forward",),
        "wall_s", (BERRY, WALLS), counts=("calls", "rows"), rows=_batch_rows,
    ),
    Layer("nn.backward", ("repro.nn.network:Sequential.backward",), "wall_s", (BERRY,)),
    Layer(
        "nn.optim.step",
        ("repro.nn.optim:SGD.step", "repro.nn.optim:RMSProp.step", "repro.nn.optim:Adam.step"),
        "wall_s", (BERRY,),
    ),
    # -- faults: fault maps and bit-error injection
    Layer(
        "faults.fault_map_random",
        ("repro.faults.fault_map:FaultMap.random",),
        "wall_s", (BERRY,), counts=("calls",),
    ),
    Layer(
        "faults.perturb_network",
        ("repro.faults.injection:BitErrorInjector.perturb_network",),
        "wall_s", (BERRY,),
    ),
    Layer(
        "faults.perturb_quantized_state",
        ("repro.faults.injection:BitErrorInjector.perturb_quantized_state",),
        "wall_s", (BERRY,),
    ),
    Layer(
        "faults.quantize_state",
        ("repro.faults.injection:BitErrorInjector.quantize_state",),
        "wall_s", (BERRY,),
    ),
    Layer(
        "faults.quantize_state_cached",
        ("repro.faults.injection:BitErrorInjector.quantize_state_cached",),
        "wall_s", (BERRY,),
    ),
    # -- core: the BERRY trainer (Algorithm 1)
    Layer(
        "core.berry.learn_on_batch",
        ("repro.core.berry:BerryTrainer.learn_on_batch",),
        "wall_s", (BERRY,),
    ),
    Layer(
        "core.berry.accumulate_gradients",
        ("repro.core.berry:BerryTrainer.accumulate_gradients",),
        "wall_s", (BERRY,),
    ),
    # -- uav: the flight chain
    Layer(
        "uav.fly_missions",
        ("repro.uav.flight:FlightModel.fly_missions",),
        "wall_s", (SWEEP, WALLS), counts=("calls",),
    ),
    # -- fleet: lockstep fleet advancement
    Layer("fleet.step", ("repro.fleet.sim:FleetSim.step",), "wall_s", (FLEET,)),
    Layer(
        "fleet.detect_conflicts",
        ("repro.fleet.conflicts:detect_conflicts",),
        "wall_s", (FLEET,), rows=_all_pairs, counter="fleet.conflict_checks",
    ),
    # -- runtime: engine, executor/pool, cache, journal, fusion
    Layer(
        "runtime.engine",
        ("repro.runtime.engine:SweepRunner.run",),
        "wall_s", (SWEEP,),
    ),
    Layer(
        "runtime.executor",
        (
            "repro.runtime.executor:SerialExecutor.submit",
            "repro.runtime.executor:MultiprocessExecutor.submit",
            "repro.runtime.pool:WarmPoolExecutor.submit",
        ),
        "wall_s", (SWEEP,), time_name="runtime.executor.submit_s",
    ),
    Layer(
        "runtime.cache.get", ("repro.runtime.cache:ResultCache.get",),
        "wall_s", (SWEEP,), time_name="runtime.cache.get_s",
    ),
    Layer(
        "runtime.cache.put", ("repro.runtime.cache:ResultCache.put",),
        "wall_s", (SWEEP,), time_name="runtime.cache.put_s",
    ),
    Layer(
        "runtime.cache.index", ("repro.runtime.cache:ResultCache.index",),
        "wall_s", (SWEEP,), time_name="runtime.cache.index_s",
    ),
    Layer(
        "runtime.journal.record",
        (
            "repro.runtime.journal:Journal.record_header",
            "repro.runtime.journal:Journal.record_result",
            "repro.runtime.journal:Journal.record_error",
            "repro.runtime.journal:Journal.flush",
        ),
        "wall_s", (SWEEP,), time_name="runtime.journal.record_s",
    ),
    Layer(
        "runtime.fusion.plan", ("repro.runtime.fusion:plan_fusion",),
        "wall_s", (SWEEP,), time_name="runtime.fusion.plan_s",
    ),
)

#: name -> (unit, better, moves, workloads, meaning)
DERIVED: Dict[str, Tuple[str, str, str, Tuple[str, ...], str]] = {
    "fleet.prescreen_ratio": (
        "ratio", "lower", "wall_s", (FLEET,),
        "exact conflict checks (fleet.conflict_checks) over all-pairs candidates",
    ),
    "runtime.fusion.fused_ratio": (
        "ratio", "higher", "wall_s", (WALLS, SWEEP),
        "fused_jobs / executed of the sweep's cold pass",
    ),
    "runtime.pool.spawned": (
        "count", "lower", "setup_s", (SWEEP,),
        "worker processes spawned for the sweep's cold pass (WarmPoolExecutor.last_stats)",
    ),
    "runtime.pool.chunks": (
        "count", "lower", "wall_s", (SWEEP,), "chunks dispatched to the pool in the cold pass",
    ),
    "runtime.pool.steal_events": (
        "count", "lower", "wall_s", (SWEEP,), "chunks pulled beyond a worker's fair share",
    ),
    "runtime.warm.world_hit_ratio": (
        "ratio", "higher", "wall_s", (SWEEP,),
        "hit rate of the pool workers' world and world-metrics warm caches",
    ),
}

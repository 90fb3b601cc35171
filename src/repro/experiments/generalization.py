"""Generalization sweep: the Fig. 5 story across procedurally generated worlds.

The paper evaluates 72 fixed scenarios (3 densities x 2 platforms x 2
policies x 6 BER levels).  This experiment replaces the density axis with
procedurally generated worlds from every registered family — corridor walls,
Poisson forests, urban canyons, walled rooms, moving obstacles and the
original uniform clutter — at two difficulty presets and several seeds each,
yielding a grid of

    6 families x 2 presets x 5 seeds x 2 platforms x 2 policies x 6 BER
    = 1440 generated deployment scenarios.

Every cell is one cacheable ``scenario.generalized`` job (the world is
regenerated from its hashed spec on whichever worker runs it), so the sweep
runs sharded/parallel/resumable through ``repro-runtime run generalization``.
The assembled report aggregates per family x BER level: mean success rate of
both schemes, the BERRY advantage, and quality-of-flight degradation —
Fig. 5 extended across world families.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.scenarios import (
    BIT_ERROR_LEVELS_PERCENT,
    DEFAULT_SCENARIO_VOLTAGES,
    PLATFORMS,
    POLICY_VARIANTS,
    GeneralizedScenario,
)
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.uav.platform import UavPlatform
from repro.utils.serialization import stable_hash
from repro.utils.tables import Table
from repro.worlds.spec import WorldSpec

#: The world families the generalization sweep spans, with an easy and a hard
#: difficulty preset each (params overlay the family defaults).
FAMILY_PRESETS: Tuple[Tuple[str, Mapping[str, Any]], ...] = (
    ("uniform", {"density": "sparse"}),
    ("uniform", {"density": "dense"}),
    ("corridor", {}),
    ("corridor", {"num_walls": 6, "gap_m": 1.4}),
    ("forest", {}),
    ("forest", {"spacing_end_m": 1.3}),
    ("urban", {}),
    ("urban", {"open_fraction": 0.12, "street_m": 1.8}),
    ("rooms", {}),
    ("rooms", {"rooms_x": 4, "rooms_y": 4, "door_m": 1.5}),
    ("dynamic", {}),
    ("dynamic", {"num_movers": 7, "mover_speed_m_s": 1.2}),
)

#: World seeds drawn per (family, preset) cell.
GENERALIZATION_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4)


def iterate_generalized_scenarios(
    presets: Sequence[Tuple[str, Mapping[str, Any]]] = FAMILY_PRESETS,
    seeds: Sequence[int] = GENERALIZATION_SEEDS,
    platforms: Sequence[UavPlatform] = PLATFORMS,
    policies: Sequence[Tuple[str, float]] = POLICY_VARIANTS,
    ber_levels: Sequence[float] = BIT_ERROR_LEVELS_PERCENT,
) -> Iterator[GeneralizedScenario]:
    """Yield every generated deployment scenario in a deterministic order."""
    for family, params in presets:
        for seed in seeds:
            world = WorldSpec(family=family, params=dict(params), seed=int(seed))
            for platform in platforms:
                for policy_name, multiplier in policies:
                    for ber in ber_levels:
                        yield GeneralizedScenario(
                            world=world,
                            platform=platform,
                            policy_name=policy_name,
                            compute_power_multiplier=multiplier,
                            ber_percent=float(ber),
                        )


def generalization_sweep_spec(
    presets: Sequence[Tuple[str, Mapping[str, Any]]] = FAMILY_PRESETS,
    seeds: Sequence[int] = GENERALIZATION_SEEDS,
    candidate_voltages: Sequence[float] = DEFAULT_SCENARIO_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> SweepSpec:
    """The full generalization grid as one sweep (1440 jobs by default)."""
    jobs = tuple(
        scenario.job_spec(
            candidate_voltages=candidate_voltages,
            max_success_drop_pct=max_success_drop_pct,
        )
        for scenario in iterate_generalized_scenarios(presets=presets, seeds=seeds)
    )
    return SweepSpec(
        name="generalization",
        description="Generated worlds x platforms x policies x BER levels",
        jobs=jobs,
    )


def assemble_generalization(
    sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]
) -> Table:
    """Aggregate job rows into the per-family degradation-vs-BER report."""
    groups: Dict[Tuple[str, float], List[Dict[str, Any]]] = defaultdict(list)
    for row in results:
        if row is not None:
            groups[(str(row["family"]), float(row["ber_percent"]))].append(row)

    def mean(rows: List[Dict[str, Any]], key: str) -> float:
        return sum(float(row[key]) for row in rows) / len(rows)

    table = Table(
        title="Generalization: success and quality-of-flight across world families vs BER",
        columns=[
            "family",
            "ber_percent",
            "num_worlds",
            "mean_occupancy_pct",
            "mean_path_stretch",
            "classical_success_pct",
            "berry_success_pct",
            "berry_advantage_pct",
            "berry_drop_vs_p0_pct",
            "mean_energy_savings_x",
            "mean_missions_change_pct",
        ],
    )
    # Degradation is reported against the same family's error-free operating
    # point, which is what makes the per-family Fig. 5 story comparable.
    error_free: Dict[str, float] = {}
    for (family, ber), rows in sorted(groups.items()):
        if ber == 0.0:
            error_free[family] = mean(rows, "berry_success_pct")
    for (family, ber), rows in sorted(groups.items()):
        berry_now = mean(rows, "berry_success_pct")
        baseline = error_free.get(family, berry_now)
        table.add_row(
            family=family,
            ber_percent=ber,
            num_worlds=len(rows),
            mean_occupancy_pct=mean(rows, "occupancy_pct"),
            mean_path_stretch=mean(rows, "path_stretch"),
            classical_success_pct=mean(rows, "classical_success_pct"),
            berry_success_pct=berry_now,
            berry_advantage_pct=berry_now - mean(rows, "classical_success_pct"),
            berry_drop_vs_p0_pct=max(0.0, baseline - berry_now),
            mean_energy_savings_x=mean(rows, "energy_savings_x"),
            mean_missions_change_pct=mean(rows, "missions_change_pct"),
        )
    return table


# ---------------------------------------------------------------------- measured rollouts
#: World seeds rolled out per (family, preset) cell of the measured sweep.
ROLLOUT_WORLD_SEEDS: Tuple[int, ...] = (0, 1)

#: Bit-error levels the measured rollout sweep evaluates (percent).
ROLLOUT_BER_LEVELS: Tuple[float, ...] = (0.0, 1.0)


def generalization_rollout_sweep_spec(
    presets: Sequence[Tuple[str, Mapping[str, Any]]] = FAMILY_PRESETS,
    seeds: Sequence[int] = ROLLOUT_WORLD_SEEDS,
    ber_levels: Sequence[float] = ROLLOUT_BER_LEVELS,
    num_episodes: int = 16,
    training_episodes: int = 120,
    hidden_units: Sequence[int] = (32, 32),
    policy_seed: int = 0,
    num_fault_maps: int = 4,
    platform: str = "crazyflie",
    train_lanes: int = 8,
    backend: Optional[str] = None,
) -> SweepSpec:
    """*Measured* policy success across generated world families.

    Where the ``generalization`` sweep maps world geometry onto the
    calibrated Fig. 5 curves, every job here trains a reduced-scale policy
    *in* its generated world, rolls it out on the lockstep batched core
    (clean, and under persistent fault maps at the requested BER), and
    reports measured success plus the quality-of-flight that follows from
    the measured path lengths.  48 jobs at the defaults
    (12 family presets x 2 world seeds x 2 BER levels).

    Training collects experience on ``train_lanes`` lockstep environment
    lanes (`repro.rl.collect`), which is what affords the doubled episode
    budget (120 training / 16 evaluation episodes, up from the serial-era
    60 / 8) at comparable wall-clock.  ``train_lanes`` is part of the job
    params — and therefore of the spec hash — because the lane count
    determines the exploration stream layout and hence the trained weights.

    ``backend`` selects the compute backend the policy trains on
    (:mod:`repro.nn.backend`); ``None`` resolves the process-wide default
    (``repro-runtime run --backend`` / ``REPRO_BACKEND``).  ``"numpy"`` is
    omitted from the job params: naming it would change every spec hash, and
    with it every job's seed, training seed and measured result.  Any other
    backend is recorded in the spec — and therefore in its hash — because
    non-numpy backends only guarantee numerical (not bitwise) agreement.
    """
    from repro.nn.backend import default_backend_name

    selected = default_backend_name() if backend is None else str(backend)

    def _params(family: str, params: Mapping[str, Any], seed: int, ber: float) -> Dict[str, Any]:
        job_params: Dict[str, Any] = {
            "world": WorldSpec(family=family, params=dict(params), seed=int(seed)).to_jsonable(),
            "ber_percent": float(ber),
            "num_episodes": int(num_episodes),
            "training_episodes": int(training_episodes),
            "hidden_units": [int(units) for units in hidden_units],
            "policy_seed": int(policy_seed),
            "num_fault_maps": int(num_fault_maps),
            "platform": str(platform),
            "train_lanes": int(train_lanes),
        }
        if selected != "numpy":
            job_params["backend"] = selected
        return job_params

    jobs = tuple(
        JobSpec(kind="rollout.generalized", params=_params(family, params, seed, ber))
        for family, params in presets
        for seed in seeds
        for ber in ber_levels
    )
    return SweepSpec(
        name="generalization-rollouts",
        description="Measured policy rollouts (batched core) across generated world families",
        jobs=jobs,
    )


def _training_seed(params: Mapping[str, Any]) -> int:
    """Deterministic seed for the training half, from the BER-invariant params.

    Training a rollout job must not see ``ber_percent`` — the paper deploys
    *one* trained policy and then corrupts its memory at every BER level, and
    job fusion exploits exactly that: grid points differing only in BER share
    the trained network.  Hashing the params minus the BER axis (instead of
    using ``spec.seed``, which covers all params) makes the unfused path train
    the byte-identical network the fused path trains once — the equivalence
    the fusion tests pin.  Evaluation keeps the per-job ``spec.seed`` stream,
    so fault maps and episodes still differ per BER level.
    """
    invariant = {k: v for k, v in params.items() if k != "ber_percent"}
    digest = stable_hash({"kind": "rollout.generalized/train", "params": invariant})
    return int(digest[:16], 16) % (2**31 - 1)


def _train_rollout_policy(params: Mapping[str, Any]):
    """The BER-invariant half of a rollout job: build env, train the policy."""
    from repro.envs.navigation import NavigationConfig
    from repro.envs.navigation import NavigationEnv
    from repro.envs.sensors import RaySensor
    from repro.nn.policies import mlp
    from repro.rl.dqn import DqnConfig, DqnTrainer
    from repro.rl.schedules import LinearDecay

    world_spec = WorldSpec.from_jsonable(params["world"])
    config = NavigationConfig(
        world_spec=world_spec,
        observation="vector",
        ray_sensor=RaySensor(num_rays=8, max_range_m=5.0, step_m=0.2),
        max_steps=60,
        max_speed_m_s=2.5,
        goal_radius_m=1.2,
        start_position_noise_m=0.5,
    )
    train_seed = _training_seed(params)
    env = NavigationEnv(config, rng=train_seed)
    trainer = DqnTrainer(
        env,
        policy_spec=mlp(tuple(int(units) for units in params["hidden_units"])),
        config=DqnConfig(
            gamma=0.95,
            learning_rate=2e-3,
            batch_size=32,
            buffer_capacity=6000,
            learning_starts=100,
            train_frequency=2,
            target_update_interval=150,
            epsilon_schedule=LinearDecay(start=1.0, end=0.08, decay_steps=1200),
            train_lanes=int(params["train_lanes"]),
            # numpy stays out of the params: naming it would change every
            # spec hash, hence spec.seed, _training_seed and every result.
            backend=str(params.get("backend", "numpy")),
        ),
        rng=int(params["policy_seed"]) + train_seed,
    )
    trainer.train(int(params["training_episodes"]))
    return env, trainer.q_network


def _rollout_request(spec: JobSpec, network):
    """One member's evaluation: error-free at BER 0, else under fault maps."""
    from repro.rl.evaluation import FaultRequest, PolicyRequest

    params = spec.params
    ber_percent = float(params["ber_percent"])
    num_episodes = int(params["num_episodes"])
    if ber_percent <= 0.0:
        return PolicyRequest(network, num_episodes, rng=spec.seed + 1)
    return FaultRequest(
        network,
        ber_percent=ber_percent,
        num_fault_maps=int(params["num_fault_maps"]),
        episodes_per_map=num_episodes,
        rng=spec.seed + 1,
    )


def _rollout_row(spec: JobSpec, evaluation) -> Dict[str, Any]:
    """The per-BER half: one job's result row from its evaluation."""
    import numpy as np

    from repro.rl.evaluation import PolicyEvaluation
    from repro.uav.battery import missions_per_charge
    from repro.uav.flight import FlightModel
    from repro.uav.platform import get_platform

    params = spec.params
    world_spec = WorldSpec.from_jsonable(params["world"])
    ber_percent = float(params["ber_percent"])
    num_episodes = int(params["num_episodes"])
    success = evaluation.success_rate
    mean_path = evaluation.mean_path_length_m
    if isinstance(evaluation, PolicyEvaluation):
        collision_rate: Optional[float] = evaluation.collision_rate
        mean_steps: Optional[float] = evaluation.mean_steps
    else:
        collision_rate = None
        mean_steps = None

    platform = get_platform(str(params["platform"]))
    if math.isnan(mean_path):
        # No mission succeeded anywhere: no measured path, no flight energy.
        mean_path_out: Optional[float] = None
        flight_energy: Optional[float] = None
        missions = 0.0
    else:
        mean_path_out = mean_path
        flight = FlightModel(platform).fly_missions(
            payload_g=0.0,
            compute_power_w=platform.compute_power_nominal_w,
            nominal_distance_m=np.asarray([mean_path]),
        )
        flight_energy = float(flight.flight_energy_j[0])
        missions = float(
            missions_per_charge(success, platform.battery_capacity_j, flight_energy)
        )
    return {
        "family": world_spec.family,
        "world": world_spec.name,
        "world_seed": world_spec.seed,
        "ber_percent": ber_percent,
        "num_episodes": num_episodes,
        "training_episodes": int(params["training_episodes"]),
        "train_lanes": int(params["train_lanes"]),
        "success_pct": 100.0 * success,
        "collision_pct": None if collision_rate is None else 100.0 * collision_rate,
        "mean_steps": mean_steps,
        "mean_path_m": mean_path_out,
        "flight_energy_j": flight_energy,
        "missions_per_charge": missions,
        "platform": platform.name,
    }


@job_kind("rollout.generalized", fuse_along=("ber_percent",))
def _run_rollout_generalized(specs: Sequence[JobSpec]) -> List[Dict[str, Any]]:
    """Train one reduced-scale policy in one generated world, then roll it
    out at each member's BER level.

    Everything — the world, the policy initialisation, training exploration,
    fault maps and evaluation episodes — derives from the job specs, so any
    worker reproduces the identical measured numbers.  Training collects
    experience on ``train_lanes`` lockstep lanes and rollouts run on the
    batched core (`~repro.envs.batch.BatchedNavigationEnv`); the measured
    per-episode path lengths then advance through the vectorized UAV flight
    chain in one `~repro.uav.flight.FlightModel.fly_missions` call.

    The members differ only in ``ber_percent``, and the training half is
    seeded from the BER-invariant params (:func:`_training_seed`), so one
    training run feeds every member: a lone job (a group of one) trains the
    identical policy.  Each member's evaluation keeps its own ``spec.seed``,
    and every member flies side by side in one
    :func:`~repro.rl.evaluation.evaluate_many` call, with its lone job's
    result.
    """
    from repro.rl.evaluation import evaluate_many

    env, network = _train_rollout_policy(specs[0].params)
    evaluations = evaluate_many(env, [_rollout_request(spec, network) for spec in specs])
    return [_rollout_row(spec, evaluation) for spec, evaluation in zip(specs, evaluations)]


def assemble_generalization_rollouts(
    sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]
) -> Table:
    """Aggregate measured rollout rows per family x BER level."""
    groups: Dict[Tuple[str, float], List[Dict[str, Any]]] = defaultdict(list)
    for row in results:
        if row is not None:
            groups[(str(row["family"]), float(row["ber_percent"]))].append(row)

    def nanmean(rows: List[Dict[str, Any]], key: str) -> Optional[float]:
        values = [
            float(row[key])
            for row in rows
            if row.get(key) is not None and not math.isnan(float(row[key]))
        ]
        return sum(values) / len(values) if values else None

    table = Table(
        title="Generalization (measured): trained-policy rollouts across world families",
        columns=[
            "family",
            "ber_percent",
            "num_worlds",
            "measured_success_pct",
            "mean_path_m",
            "mean_flight_energy_j",
            "mean_missions_per_charge",
        ],
    )
    for (family, ber), rows in sorted(groups.items()):
        table.add_row(
            family=family,
            ber_percent=ber,
            num_worlds=len(rows),
            measured_success_pct=nanmean(rows, "success_pct"),
            mean_path_m=nanmean(rows, "mean_path_m"),
            mean_flight_energy_j=nanmean(rows, "flight_energy_j"),
            mean_missions_per_charge=nanmean(rows, "missions_per_charge"),
        )
    return table


def generate_generalization_report(
    presets: Sequence[Tuple[str, Mapping[str, Any]]] = FAMILY_PRESETS,
    seeds: Sequence[int] = (0,),
    candidate_voltages: Sequence[float] = DEFAULT_SCENARIO_VOLTAGES,
) -> Table:
    """Run a (reduced, serial) generalization sweep and assemble the report.

    The full 1440-job grid is meant for the runtime CLI; this convenience
    entry point defaults to one seed per preset so examples and tests stay
    fast.
    """
    from repro.runtime.engine import run_sweep

    sweep = generalization_sweep_spec(
        presets=presets, seeds=seeds, candidate_voltages=candidate_voltages
    )
    return assemble_generalization(sweep, run_sweep(sweep))

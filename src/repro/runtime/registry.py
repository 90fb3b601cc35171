"""Named-sweep registry: every fig/table experiment as a runnable sweep.

The CLI (and anything else that wants to run "the Fig. 5 experiment" without
importing its module) looks sweeps up here by name.  A registered sweep
bundles a *builder* (returns the :class:`~repro.runtime.jobs.SweepSpec`) with
an *assembler* (turns the ordered job results back into the experiment's
:class:`~repro.utils.tables.Table` output).

Three registration styles coexist:

* fig5 / fig7 / table2 expose real multi-job grids (refactored to build
  their tables through the engine), registered from their own modules' spec
  factories and assemblers;
* the remaining figures/tables run as a single ``experiment.table`` job that
  invokes the generator by dotted name — still cacheable and journalable,
  just not internally parallel;
* ``scenarios`` and ``rollouts`` are runtime-native workloads: 72
  per-scenario pipeline evaluations and deterministic policy-rollout batches.

Importing this module registers every job kind, which is why
:mod:`repro.runtime.jobs` lazily imports it from worker processes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.tables import Table

Assembler = Callable[[SweepSpec, Sequence[Any]], Any]


@dataclass(frozen=True)
class RegisteredSweep:
    """One named, runnable sweep."""

    name: str
    description: str
    build: Callable[[], SweepSpec]
    assemble: Assembler

    def spec(self) -> SweepSpec:
        return self.build()


_REGISTRY: Dict[str, RegisteredSweep] = {}


def register_sweep(
    name: str, description: str, build: Callable[[], SweepSpec], assemble: Assembler
) -> RegisteredSweep:
    if name in _REGISTRY:
        raise ConfigurationError(f"sweep {name!r} is already registered")
    entry = RegisteredSweep(name=name, description=description, build=build, assemble=assemble)
    _REGISTRY[name] = entry
    return entry


def get_registered_sweep(name: str) -> RegisteredSweep:
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown sweep {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def iter_registered_sweeps() -> Iterator[RegisteredSweep]:
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


# ---------------------------------------------------------------------- generic wrapper
@job_kind("experiment.table")
def _run_experiment_table(spec: JobSpec) -> Dict[str, Any]:
    """Run a whole table/figure generator (by dotted name) as one job."""
    module = importlib.import_module(str(spec.params["module"]))
    generator = getattr(module, str(spec.params["function"]))
    table = generator()
    return table.to_jsonable()


def _table_from_jsonable(payload: Dict[str, Any]) -> Table:
    table = Table(title=payload["title"], columns=list(payload["columns"]))
    for row in payload["rows"]:
        table.add_row(**row)
    return table


def _register_generator(name: str, description: str, module: str, function: str) -> None:
    def build() -> SweepSpec:
        return SweepSpec(
            name=name,
            description=description,
            jobs=(JobSpec(kind="experiment.table", params={"module": module, "function": function}),),
        )

    def assemble(sweep: SweepSpec, results: Sequence[Any]) -> Table:
        return _table_from_jsonable(results[0])

    register_sweep(name, description, build, assemble)


# ---------------------------------------------------------------------- rollouts
#: Default rollout batch: one job per (density, policy seed) pair.
ROLLOUT_POLICY_SEEDS: Tuple[int, ...] = (0, 1)


def rollout_sweep_spec(
    num_episodes: int = 4,
    hidden_units: Sequence[int] = (32, 32),
    epsilon: float = 0.05,
    policy_seeds: Sequence[int] = ROLLOUT_POLICY_SEEDS,
) -> SweepSpec:
    """Deterministic reduced-scale policy rollouts across the three densities."""
    from repro.envs.obstacles import ObstacleDensity

    jobs = [
        JobSpec(
            kind="rollout.episodes",
            params={
                "density": density.value,
                "num_episodes": int(num_episodes),
                "hidden_units": [int(units) for units in hidden_units],
                "epsilon": float(epsilon),
                "policy_seed": int(policy_seed),
                # Rollout-protocol version, part of the spec hash: v2 runs on
                # the lockstep batched core with per-episode exploration
                # streams, so results cached/journaled under the v1 serial
                # shared-stream protocol can never be served for these jobs.
                "protocol": 2,
            },
        )
        for density in ObstacleDensity
        for policy_seed in policy_seeds
    ]
    return SweepSpec(
        name="rollouts",
        description="Reduced-scale navigation rollouts (deterministic per-job seeding)",
        jobs=tuple(jobs),
    )


@job_kind("rollout.episodes")
def _run_rollout_episodes(spec: JobSpec) -> Dict[str, Any]:
    """Roll a (fresh, reduced-scale) policy through N seeded episodes.

    All randomness — environment layout, policy initialisation, exploration —
    derives from the spec hash, so any worker that picks this job up produces
    the identical episode batch.  Episodes execute on the lockstep batched
    core: every exploration draw comes from the episode's own spawned stream,
    so the results are independent of the lane count.
    """
    from repro.envs.batch import BatchedNavigationEnv, run_batched_episodes
    from repro.envs.navigation import NavigationEnv
    from repro.envs.obstacles import ObstacleDensity
    from repro.envs.vector import success_rate
    from repro.experiments.profiles import FAST_PROFILE
    from repro.nn.policies import build_policy, mlp
    from repro.rl.evaluation import GreedyPolicy

    params = spec.params
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity(str(params["density"])))
    env = NavigationEnv(config, rng=spec.seed)
    network = build_policy(
        mlp(tuple(int(units) for units in params["hidden_units"])),
        observation_shape=env.observation_space.shape,
        num_actions=env.action_space.n,
        rng=int(params["policy_seed"]),
    )
    num_episodes = int(params["num_episodes"])
    batch_env = BatchedNavigationEnv.from_env(env, batch_size=max(1, num_episodes))
    results = run_batched_episodes(
        batch_env,
        GreedyPolicy(network),
        num_episodes=num_episodes,
        epsilon=float(params["epsilon"]),
        rng=spec.seed,
        reset_seed=spec.seed,
    )
    return {
        "density": params["density"],
        "policy_seed": params["policy_seed"],
        "num_episodes": len(results),
        "success_rate_pct": 100.0 * success_rate(results),
        "mean_steps": sum(r.steps for r in results) / len(results),
        "mean_path_length_m": sum(r.path_length_m for r in results) / len(results),
        "mean_reward": sum(r.total_reward for r in results) / len(results),
    }


def _assemble_rollouts(sweep: SweepSpec, results: Sequence[Any]) -> Table:
    table = Table(
        title="Runtime rollouts: reduced-scale navigation episodes per scenario density",
        columns=[
            "density",
            "policy_seed",
            "num_episodes",
            "success_rate_pct",
            "mean_steps",
            "mean_path_length_m",
            "mean_reward",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


# ---------------------------------------------------------------------- registrations
def _assemble_scenarios(sweep: SweepSpec, results: Sequence[Any]) -> Table:
    table = Table(
        title="All deployment scenarios: robustness and best operating point",
        columns=[
            "scenario",
            "environment",
            "uav",
            "policy",
            "ber_percent",
            "classical_success_pct",
            "berry_success_pct",
            "best_voltage_vmin",
            "energy_savings_x",
            "flight_energy_j",
            "flight_energy_change_pct",
            "num_missions",
            "missions_change_pct",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


def _register_all() -> None:
    from repro.core import scenarios as scenarios_module
    from repro.experiments import fig5, fig7, generalization, table2
    from repro.fleet import reliability as fleet_reliability

    register_sweep(
        "fig5",
        "Fig. 5: robustness and mission efficiency across obstacle densities",
        fig5.fig5_sweep_spec,
        fig5.assemble_fig5,
    )
    register_sweep(
        "fig7",
        "Fig. 7 (table): effectiveness across UAV platforms and policies",
        fig7.fig7_config_sweep_spec,
        fig7.assemble_fig7_configs,
    )
    register_sweep(
        "fig7-sweep",
        "Fig. 7 (curves): DJI Tello voltage sweep",
        fig7.fig7_tello_sweep_spec,
        fig7.assemble_fig7_tello_sweep,
    )
    register_sweep(
        "table2",
        "Table II: operating and system efficiency vs supply voltage",
        table2.table2_sweep_spec,
        table2.assemble_table2,
    )
    register_sweep(
        "scenarios",
        "Best operating point and robustness for each of the 72 deployment scenarios",
        scenarios_module.scenario_sweep_spec,
        _assemble_scenarios,
    )
    register_sweep(
        "rollouts",
        "Reduced-scale deterministic policy rollouts across densities",
        rollout_sweep_spec,
        _assemble_rollouts,
    )
    register_sweep(
        "generalization",
        "Generated worlds (6 families x 2 presets x 5 seeds) x platforms x policies x BER",
        generalization.generalization_sweep_spec,
        generalization.assemble_generalization,
    )
    register_sweep(
        "fleet-reliability",
        "Fleet success/conflict/energy vs supply voltage (streaming Monte-Carlo)",
        fleet_reliability.fleet_reliability_sweep_spec,
        fleet_reliability.assemble_fleet_reliability,
    )
    register_sweep(
        "generalization-rollouts",
        "Measured policy rollouts (trained in-world, batched core) per family x BER",
        generalization.generalization_rollout_sweep_spec,
        generalization.assemble_generalization_rollouts,
    )
    _register_generator(
        "fig1",
        "Fig. 1: voltage scaling physics chain",
        "repro.experiments.fig1",
        "generate_fig1_voltage_physics",
    )
    _register_generator(
        "fig2",
        "Fig. 2: voltage vs bit-error rate and SRAM access energy",
        "repro.experiments.fig2",
        "generate_fig2_voltage_ber_energy",
    )
    _register_generator(
        "fig3",
        "Fig. 3: robustness vs bit-error rate (classical vs BERRY)",
        "repro.experiments.fig3",
        "generate_fig3_robustness_vs_ber",
    )
    _register_generator(
        "fig6",
        "Fig. 6: payload/acceleration/velocity/energy physics relations",
        "repro.experiments.fig6",
        "generate_fig6_physics_relations",
    )
    _register_generator(
        "table1",
        "Table I: success rate under bit errors (classical vs BERRY)",
        "repro.experiments.table1",
        "generate_table1_robustness",
    )
    _register_generator(
        "table3",
        "Table III: profiled commodity chips",
        "repro.experiments.table3",
        "generate_table3_profiled_chips",
    )
    _register_generator(
        "table4",
        "Table IV: on-device learning recovery",
        "repro.experiments.table4",
        "generate_table4_on_device",
    )


_register_all()

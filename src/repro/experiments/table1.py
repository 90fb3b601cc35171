"""Table I — task success rate under various bit-error rates, Classical vs BERRY.

Two generators are provided:

* :func:`generate_table1_robustness` — paper-scale numbers from the calibrated
  robustness curves (seconds to run).
* :func:`measure_table1_with_training` — actually trains a classical and a
  BERRY policy at reduced scale in this repository's navigation environment
  and measures their success rates under injected bit errors; this is the
  end-to-end demonstration that the qualitative Table I ordering emerges from
  the implementation, not just from the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.calibrated import AutonomyScheme, CalibratedRobustnessModel
from repro.core.modes import train_classical, train_offline_berry
from repro.envs.navigation import NavigationEnv
from repro.experiments.profiles import ExperimentProfile, FAST_PROFILE
from repro.rl.dqn import DqnTrainer
from repro.rl.evaluation import EvaluationRequest, FaultRequest, PolicyRequest, evaluate_many
from repro.utils.rng import spawn_generators
from repro.utils.tables import Table

#: The bit-error rates (percent) of Table I's columns.
TABLE_I_BER_LEVELS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0)


def generate_table1_robustness(
    ber_levels: Sequence[float] = TABLE_I_BER_LEVELS,
    robustness: Optional[CalibratedRobustnessModel] = None,
) -> Table:
    """Regenerate Table I from the calibrated robustness curves."""
    model = robustness if robustness is not None else CalibratedRobustnessModel()
    table = Table(
        title="Table I: success rate (%) under bit-error rates p, Classical vs BERRY",
        columns=["scheme", "error_free_pct"] + [f"p={p:g}%" for p in ber_levels],
    )
    for scheme in (AutonomyScheme.CLASSICAL, AutonomyScheme.BERRY):
        row: Dict[str, float] = {
            "scheme": scheme.value,
            "error_free_pct": 100.0 * model.error_free_success_rate(scheme),
        }
        for ber in ber_levels:
            row[f"p={ber:g}%"] = 100.0 * model.success_rate(float(ber), scheme)
        table.add_row(**row)
    return table


@dataclass
class TrainedPolicies:
    """The pair of trained policies (classical baseline and BERRY) used for measurement."""

    classical: DqnTrainer
    berry: DqnTrainer
    environment: NavigationEnv


def train_policies(
    profile: ExperimentProfile = FAST_PROFILE,
    training_ber_percent: float = 1.0,
    seed: int = 0,
) -> TrainedPolicies:
    """Train the classical and BERRY policies at reduced scale on the same environment."""
    env_rng, classical_rng, berry_rng = spawn_generators(seed, 3)
    env = NavigationEnv(profile.navigation, rng=env_rng)
    classical = train_classical(
        env,
        num_episodes=profile.training_episodes,
        policy_spec=profile.policy_spec,
        config=profile.dqn,
        rng=classical_rng,
    )
    berry = train_offline_berry(
        env,
        num_episodes=profile.training_episodes,
        ber_percent=training_ber_percent,
        policy_spec=profile.policy_spec,
        config=profile.dqn,
        rng=berry_rng,
    )
    return TrainedPolicies(classical=classical, berry=berry, environment=env)


def measure_table1_with_training(
    ber_levels: Sequence[float] = (0.1, 1.0, 3.0),
    profile: ExperimentProfile = FAST_PROFILE,
    training_ber_percent: float = 1.0,
    seed: int = 0,
    policies: Optional[TrainedPolicies] = None,
) -> Table:
    """Measure the reduced-scale Table I by training policies and injecting bit errors."""
    if policies is None:
        policies = train_policies(profile, training_ber_percent, seed)
    env = policies.environment
    table = Table(
        title="Table I (measured, reduced scale): success rate under bit errors",
        columns=["scheme", "error_free_pct"] + [f"p={p:g}%" for p in ber_levels],
    )
    schemes = (("classical", policies.classical), ("berry", policies.berry))
    # Both schemes' error-free and BER cells fly side by side in one call.
    requests: List[EvaluationRequest] = []
    for _, trainer in schemes:
        requests.append(PolicyRequest(trainer.q_network, profile.eval_episodes, rng=seed + 1))
        requests.extend(
            FaultRequest(
                trainer.q_network,
                ber_percent=float(ber),
                num_fault_maps=profile.num_fault_maps,
                episodes_per_map=profile.episodes_per_map,
                rng=seed + 2,
            )
            for ber in ber_levels
        )
    cells = iter(evaluate_many(env, requests))
    for name, _ in schemes:
        row: Dict[str, float] = {"scheme": name, "error_free_pct": 100.0 * next(cells).success_rate}
        for ber in ber_levels:
            row[f"p={ber:g}%"] = 100.0 * next(cells).success_rate
        table.add_row(**row)
    return table

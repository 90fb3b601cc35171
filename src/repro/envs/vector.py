"""Episode rollout helpers.

Everything downstream of the environment (robustness evaluation, mission
metrics, benchmarks) consumes complete episodes; these helpers run a policy
through an episode and collect the quantities the paper reports: success,
collision, episode length and flown path length.

Every policy speaks one protocol, :data:`BatchPolicy`: a callable mapping an
``(N, *obs_shape)`` observation matrix and the ``(N,)`` episode index of each
row to an ``(N,)`` integer action vector.  The episode index lets one policy
fly several networks in one rollout
(:class:`~repro.rl.evaluation.PerMapGreedyPolicy`, one per block of
episodes: a fault map or an error-free run);
:class:`~repro.rl.evaluation.GreedyPolicy` ignores it.  Many episodes run on
the lockstep batched core, :func:`~repro.envs.batch.run_batched_episodes`;
:func:`run_episode` flies one greedy episode on the serial environment,
feeding the policy one-row matrices as episode 0, and is the reference the
batched core reproduces bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.envs.navigation import NavigationEnv

#: (observation matrix (N, *obs_shape), each row's episode index (N,)) ->
#: integer actions (N,).
BatchPolicy = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EpisodeResult:
    """Summary of one completed episode."""

    success: bool
    collision: bool
    steps: int
    path_length_m: float
    total_reward: float

    @property
    def failed(self) -> bool:
        return not self.success


def run_episode(
    env: NavigationEnv,
    policy: BatchPolicy,
    reset_seed: Optional[int] = None,
) -> EpisodeResult:
    """Run one greedy episode on the serial environment (episode index 0)."""
    observation = env.reset(seed=reset_seed)
    total_reward = 0.0
    steps = 0
    success = False
    collision = False
    while True:
        action = int(policy(observation[np.newaxis], np.zeros(1, dtype=np.int64))[0])
        result = env.step(action)
        observation = result.observation
        total_reward += result.reward
        steps = int(result.info["steps"])
        if result.terminated or result.truncated:
            success = bool(result.info["success"])
            collision = bool(result.info["collision"])
            break
    return EpisodeResult(
        success=success,
        collision=collision,
        steps=steps,
        path_length_m=env.path_length_m,
        total_reward=total_reward,
    )


def success_rate(results: Sequence[EpisodeResult]) -> float:
    """Fraction of successful episodes."""
    if not results:
        return 0.0
    return sum(1 for result in results if result.success) / len(results)


def mean_path_length(results: Sequence[EpisodeResult], successful_only: bool = True) -> float:
    """Average flown path length, by default over successful episodes only."""
    selected = [r for r in results if r.success] if successful_only else list(results)
    if not selected:
        return float("nan")
    return float(np.mean([r.path_length_m for r in selected]))

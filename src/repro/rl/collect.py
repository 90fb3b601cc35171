"""Lockstep B-lane experience collection for the DQN/BERRY trainers.

The training loop used to step one :class:`~repro.envs.navigation.NavigationEnv`
and one observation at a time.  :class:`LockstepCollector` replaces that inner
loop with the batched rollout core: B environment lanes advance per step, the
epsilon-greedy head runs one batched Q forward plus per-lane exploration
streams, and every lockstep step yields the whole batch of transitions for a
single vectorised :meth:`~repro.rl.replay_buffer.ReplayBuffer.add_batch` push.
A lane whose episode ends is refilled with the next pending episode (via
:class:`~repro.envs.batch.LaneEpisodeFeed`), so collection keeps full width
until the episode budget drains.

**Determinism contract.**  Exploration is indexed by the *global transition
count*: the k simultaneous transitions of one lockstep step take schedule
indices ``t, t+1, ..., t+k-1`` and each lane draws from its own stream in lane
order.  At B = 1, with the lane's environment and exploration streams shared
with the serial trainer's (``share_rng`` /
``DqnTrainer``'s own generator), the collector consumes exactly the RNG draws
of the pre-refactor scalar loop — which is what makes B=1 batched training
bitwise-equivalent to :meth:`~repro.rl.dqn.DqnTrainer.train_serial` (pinned in
``tests/test_rl_batched_training.py``).  At B > 1 each lane explores from an
independent spawned stream; results are deterministic in (seed, B) but
intentionally differ from the serial interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.envs.batch import BatchedNavigationEnv, LaneEpisodeFeed
from repro.envs.vector import EpisodeResult
from repro.errors import TrainingError
from repro.nn.network import Sequential
from repro.obs import get_metrics
from repro.rl.schedules import Schedule


@dataclass(frozen=True)
class StepBatch:
    """The transitions of one lockstep collection step (k active lanes).

    Arrays are row-aligned over the lanes that actually advanced, in ascending
    lane order; ``dones`` mirrors the serial trainer's replay convention
    (``terminated`` only — a timeout is not a terminal state for bootstrapping).
    """

    observations: np.ndarray        #: (k, *obs_shape) observations acted on
    actions: np.ndarray             #: (k,) actions taken
    rewards: np.ndarray             #: (k,) per-step rewards
    next_observations: np.ndarray   #: (k, *obs_shape) successor observations
    dones: np.ndarray               #: (k,) float, 1.0 where the step terminated
    epsilons: np.ndarray            #: (k,) exploration rates used (global-count indexed)
    finished: Tuple[Tuple[int, EpisodeResult], ...]  #: (episode, result) of episodes that ended

    @property
    def num_transitions(self) -> int:
        return int(self.actions.shape[0])


class LockstepCollector:
    """Drives B env lanes per step and yields batched transitions for training.

    The collector owns the *acting* side of the training loop: batched greedy
    forward and per-lane epsilon-greedy exploration; its
    :class:`~repro.envs.batch.LaneEpisodeFeed` steps the lanes, keeps the
    episode books and refills finished lanes.  Learning cadence (replay
    pushes, gradient steps, target syncs) stays in the trainer, interleaved on
    the global step counter the trainer passes to :meth:`collect`.
    """

    def __init__(
        self,
        env: BatchedNavigationEnv,
        q_network: Sequential,
        schedule: Schedule,
        exploration_rngs: Sequence[np.random.Generator],
        num_episodes: int,
    ) -> None:
        if num_episodes <= 0:
            raise TrainingError(f"num_episodes must be positive, got {num_episodes}")
        if len(exploration_rngs) != env.batch_size:
            raise TrainingError(
                f"got {len(exploration_rngs)} exploration streams for "
                f"{env.batch_size} lanes"
            )
        self.env = env
        self.q_network = q_network
        self.schedule = schedule
        self.exploration_rngs = list(exploration_rngs)
        self._feed = LaneEpisodeFeed(env, num_episodes)

    @property
    def collecting(self) -> bool:
        """True while any lane still has an episode to run."""
        return self._feed.active_lanes.size > 0

    def collect(self, total_steps: int) -> StepBatch:
        """Advance every active lane by one action; return the transitions.

        ``total_steps`` is the trainer's global transition counter *before*
        this step; the k transitions produced here take schedule indices
        ``total_steps .. total_steps + k - 1`` (lane order), so exploration is
        a pure function of the global count regardless of the lane count.
        """
        active = self._feed.active_lanes
        if active.size == 0:
            raise TrainingError("collect() called with no active episodes")
        observations = self._feed.observations[active]
        epsilons = self.schedule.values(total_steps + np.arange(active.size))

        q_values = self.q_network.forward(observations)
        actions = np.argmax(q_values, axis=1).astype(np.int64)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("train.env_steps").inc(active.size)
            metrics.gauge("train.epsilon").set(float(epsilons[-1]))
            metrics.histogram("train.q_max").observe(
                float(np.mean(np.max(q_values, axis=1)))
            )
        for row, lane in enumerate(active):
            stream = self.exploration_rngs[lane]
            if stream.random() < epsilons[row]:
                actions[row] = self.env.action_space.sample(stream)

        result, finished = self._feed.advance(actions)
        return StepBatch(
            observations=observations,
            actions=actions,
            rewards=result.rewards,
            next_observations=result.observations,
            # Replay convention of the serial trainer: bootstrapping is cut
            # only by true termination (goal/collision), never by a timeout.
            dones=result.terminated.astype(np.float64),
            epsilons=epsilons,
            finished=tuple(finished),
        )

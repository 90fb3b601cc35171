"""Classical Deep-Q-Network trainer (the paper's baseline autonomy policy).

This is standard DQN as summarised in Sec. II-A of the paper: an evaluation
network predicts Q-values, a periodically synchronised target network computes
the Bellman temporal-difference target, transitions come from an experience
replay buffer, and exploration follows an epsilon-greedy schedule.

The gradient computation is factored into :meth:`DqnTrainer.accumulate_gradients`
so that the BERRY trainer (:mod:`repro.core.berry`) can extend it with the
bit-error-perturbed pass of Algorithm 1 without duplicating the training loop.

Experience collection is *batched*: :meth:`DqnTrainer.train` drives
``config.train_lanes`` lockstep environment lanes through a
:class:`~repro.rl.collect.LockstepCollector`, pushes each lockstep step's
transitions into the replay buffer with one vectorised ``add_batch``, and
replays the gradient/target-sync cadence on the global transition counter.
``train_lanes=1`` (the default) reproduces the pre-refactor scalar loop
bitwise — same RNG stream consumption, same replay contents, same final
weights; the scalar loop itself survives as :meth:`DqnTrainer.train_serial`,
the reference implementation the equivalence tests pin against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import TrainingError
from repro.envs.navigation import NavigationEnv
from repro.nn.backend import get_backend, registered_backends
from repro.nn.loss import HuberLoss, MSELoss
from repro.nn.network import Sequential
from repro.nn.optim import build_optimizer
from repro.nn.policies import PolicySpec, build_policy, mlp
from repro.obs import get_metrics, span
from repro.rl.replay_buffer import ReplayBuffer, Transition
from repro.rl.schedules import LinearDecay, Schedule
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_generator, spawn_generators

logger = get_logger("rl.dqn")


@dataclass(frozen=True)
class DqnConfig:
    """Hyper-parameters of the DQN training loop."""

    gamma: float = 0.97
    learning_rate: float = 1e-3
    batch_size: int = 32
    buffer_capacity: int = 20_000
    learning_starts: int = 200
    train_frequency: int = 1
    target_update_interval: int = 200
    optimizer: str = "adam"
    loss: str = "huber"
    grad_clip: Optional[float] = 1.0
    epsilon_schedule: Schedule = field(default_factory=LinearDecay)
    #: Lockstep environment lanes used for experience collection.  1 replays
    #: the serial trainer bitwise; B > 1 collects B transitions per lockstep
    #: step (per-lane exploration streams, one batched Q forward per step).
    train_lanes: int = 1
    #: Compute backend for the Q-network, loss, optimizer and fault-injection
    #: hot paths ("numpy" reproduces the pre-backend trainer bitwise; "torch"
    #: requires the optional torch extra and trades bitwise identity for
    #: faster gradient steps).
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise TrainingError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.batch_size <= 0 or self.buffer_capacity <= 0:
            raise TrainingError("batch_size and buffer_capacity must be positive")
        if self.learning_starts < 0 or self.train_frequency <= 0:
            raise TrainingError("learning_starts must be >= 0 and train_frequency > 0")
        if self.target_update_interval <= 0:
            raise TrainingError("target_update_interval must be positive")
        if self.loss not in ("huber", "mse"):
            raise TrainingError(f"loss must be 'huber' or 'mse', got {self.loss!r}")
        if self.train_lanes <= 0:
            raise TrainingError(f"train_lanes must be positive, got {self.train_lanes}")
        if self.backend not in registered_backends():
            raise TrainingError(
                f"unknown backend {self.backend!r}; registered backends: {registered_backends()}"
            )


@dataclass
class TrainingHistory:
    """Per-episode statistics collected during training."""

    episode_rewards: List[float] = field(default_factory=list)
    episode_successes: List[bool] = field(default_factory=list)
    episode_lengths: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    total_steps: int = 0
    gradient_steps: int = 0

    @property
    def num_episodes(self) -> int:
        return len(self.episode_rewards)

    @staticmethod
    def _recent(values: List, window: Optional[int]) -> List:
        """The last ``window`` entries (all of them when ``window`` is None).

        ``window`` must be a positive count: a falsy 0 used to silently mean
        "all episodes", which is indistinguishable from the caller asking for
        an empty window.
        """
        if window is None:
            return values
        if window <= 0:
            raise TrainingError(f"window must be a positive episode count, got {window}")
        return values[-window:]

    def success_rate(self, window: Optional[int] = None) -> float:
        """Fraction of successful episodes, optionally over the last ``window`` episodes."""
        successes = self._recent(self.episode_successes, window)
        if not successes:
            return 0.0
        return sum(successes) / len(successes)

    def mean_reward(self, window: Optional[int] = None) -> float:
        rewards = self._recent(self.episode_rewards, window)
        if not rewards:
            return 0.0
        return float(np.mean(rewards))


class DqnTrainer:
    """Classical DQN training loop on a :class:`NavigationEnv`."""

    def __init__(
        self,
        env: NavigationEnv,
        policy_spec: Optional[PolicySpec] = None,
        config: DqnConfig = DqnConfig(),
        rng: SeedLike = 0,
    ) -> None:
        self.env = env
        self.config = config
        self._rng = as_generator(rng)
        spec = policy_spec if policy_spec is not None else mlp()
        observation_shape = env.observation_space.shape
        self.backend = get_backend(config.backend)
        self.q_network = build_policy(
            spec, observation_shape, env.action_space.n, rng=self._rng, backend=self.backend
        )
        self.target_network = self.q_network.clone()
        self.optimizer = build_optimizer(
            config.optimizer,
            self.q_network.parameters(),
            lr=config.learning_rate,
            grad_clip=config.grad_clip,
        )
        self.loss_fn = (
            HuberLoss(backend=self.backend)
            if config.loss == "huber"
            else MSELoss(backend=self.backend)
        )
        self.replay = ReplayBuffer(config.buffer_capacity, observation_shape)
        self.history = TrainingHistory()
        self.policy_spec = spec

    # ------------------------------------------------------------------ acting
    def greedy_action(self, observation: np.ndarray) -> int:
        """The action with the highest predicted Q-value."""
        q_values = self.q_network.forward(observation[np.newaxis, ...])
        return int(np.argmax(q_values[0]))

    def act(self, observation: np.ndarray, epsilon: float) -> int:
        """Epsilon-greedy action selection."""
        if self._rng.random() < epsilon:
            return self.env.action_space.sample(self._rng)
        return self.greedy_action(observation)

    # ------------------------------------------------------------------ learning
    def compute_td_targets(self, batch: Transition, target_network: Sequential) -> np.ndarray:
        """Bellman targets ``y_j = r_j + gamma * max_a' Q(s', a'; theta^-)`` (Eq. 1)."""
        next_q = target_network.forward(batch.next_observations)
        bootstrap = np.max(next_q, axis=1)
        return batch.rewards + self.config.gamma * (1.0 - batch.dones) * bootstrap

    def td_loss_and_backward(
        self, network: Sequential, batch: Transition, targets: np.ndarray
    ) -> float:
        """Forward/backward of the TD loss through ``network``; gradients accumulate in place."""
        q_values = network.forward(batch.observations)
        batch_indices = np.arange(batch.batch_size)
        predictions = q_values[batch_indices, batch.actions]
        loss_value, grad_predictions = self.loss_fn(predictions, targets)
        grad_q = np.zeros_like(q_values)
        grad_q[batch_indices, batch.actions] = grad_predictions
        network.backward(grad_q)
        return loss_value

    def accumulate_gradients(self, batch: Transition) -> float:
        """Compute gradients for one mini-batch into ``self.q_network`` (clean pass only).

        Subclasses (the BERRY trainer) override this to add the bit-error
        perturbed pass; the returned value is the scalar loss used for logging.
        """
        targets = self.compute_td_targets(batch, self.target_network)
        return self.td_loss_and_backward(self.q_network, batch, targets)

    def learn_on_batch(self, batch: Transition) -> float:
        """One optimizer update from one mini-batch."""
        with span(
            "train.gradient_step", backend=self.backend.name, device=self.backend.device
        ):
            self.optimizer.zero_grad()
            loss_value = self.accumulate_gradients(batch)
            self.optimizer.step()
        self.history.gradient_steps += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("train.gradient_steps").inc()
            metrics.histogram("train.loss").observe(loss_value)
        return loss_value

    def sync_target_network(self) -> None:
        """Copy the evaluation network weights into the target network (line 21)."""
        self.target_network.copy_from(self.q_network)

    # ------------------------------------------------------------------ training loop
    def train(self, num_episodes: int) -> TrainingHistory:
        """Run the training loop for ``num_episodes`` episodes on lockstep lanes.

        Experience collection runs ``config.train_lanes`` batched environment
        lanes (capped at ``num_episodes``): one batched Q forward per lockstep
        step, per-lane exploration streams, one ``add_batch`` replay push, and
        the gradient/target-sync cadence interleaved on the global transition
        counter exactly as the serial loop would.  ``train_lanes=1`` shares
        the serial environment's and trainer's RNG streams and reproduces
        :meth:`train_serial` bitwise.  Episodes enter the history in
        completion order (== episode order at B = 1).
        """
        from repro.envs.batch import BatchedNavigationEnv
        from repro.rl.collect import LockstepCollector

        if num_episodes <= 0:
            raise TrainingError(f"num_episodes must be positive, got {num_episodes}")
        lanes = min(self.config.train_lanes, num_episodes)
        batch_env = BatchedNavigationEnv(
            self.env, batch_size=lanes, share_rng=lanes == 1
        )
        exploration = (
            [self._rng] if lanes == 1 else spawn_generators(self._rng, lanes)
        )
        collector = LockstepCollector(
            batch_env,
            self.q_network,
            self.config.epsilon_schedule,
            exploration,
            num_episodes,
        )
        while collector.collecting:
            self._absorb_step_batch(collector.collect(self.history.total_steps))
        return self.history

    def _absorb_step_batch(self, step_batch) -> None:
        """Store one lockstep step's transitions and replay the learning cadence.

        The k transitions are pushed in one vectorised insert, then the
        gradient / target-sync checks run once per global counter value
        crossed — with the replay size the serial loop would have seen at that
        counter — so B = 1 matches the scalar loop decision-for-decision and
        B > 1 keeps the same updates-per-transition budget.
        """
        adds_before = len(self.replay)
        self.replay.add_batch(
            step_batch.observations,
            step_batch.actions,
            step_batch.rewards,
            step_batch.next_observations,
            step_batch.dones,
        )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge("train.replay_fill").set(len(self.replay) / self.replay.capacity)
        start = self.history.total_steps
        count = step_batch.num_transitions
        self.history.total_steps += count
        threshold = max(self.config.learning_starts, self.config.batch_size)
        for offset in range(1, count + 1):
            step = start + offset
            stored = min(adds_before + offset, self.replay.capacity)
            if stored >= threshold and step % self.config.train_frequency == 0:
                batch = self.replay.sample(self.config.batch_size, self._rng)
                self.history.losses.append(self.learn_on_batch(batch))
            if step % self.config.target_update_interval == 0:
                self.sync_target_network()
        for episode, result in step_batch.finished:
            self.history.episode_rewards.append(result.total_reward)
            self.history.episode_successes.append(result.success)
            self.history.episode_lengths.append(result.steps)
            if (episode + 1) % 50 == 0:
                logger.info(
                    "episode %d: reward=%.2f success_rate(last 50)=%.2f",
                    episode + 1,
                    result.total_reward,
                    self.history.success_rate(window=50),
                )

    def train_serial(self, num_episodes: int) -> TrainingHistory:
        """The pre-refactor scalar training loop, kept as the reference.

        One environment, one observation, one transition at a time.  This is
        the loop :meth:`train` at ``train_lanes=1`` must reproduce bitwise
        (same RNG stream consumption, same replay contents, same final
        weights); ``tests/test_rl_batched_training.py`` pins the equivalence.
        """
        if num_episodes <= 0:
            raise TrainingError(f"num_episodes must be positive, got {num_episodes}")
        for episode in range(num_episodes):
            observation = self.env.reset()
            episode_reward = 0.0
            episode_success = False
            steps = 0
            for _ in range(self.env.config.max_steps):
                epsilon = self.config.epsilon_schedule(self.history.total_steps)
                action = self.act(observation, epsilon)
                result = self.env.step(action)
                done = result.terminated
                self.replay.add(observation, action, result.reward, result.observation, done)
                observation = result.observation
                episode_reward += result.reward
                self.history.total_steps += 1
                steps += 1

                if (
                    len(self.replay) >= max(self.config.learning_starts, self.config.batch_size)
                    and self.history.total_steps % self.config.train_frequency == 0
                ):
                    batch = self.replay.sample(self.config.batch_size, self._rng)
                    loss_value = self.learn_on_batch(batch)
                    self.history.losses.append(loss_value)
                if self.history.total_steps % self.config.target_update_interval == 0:
                    self.sync_target_network()
                if result.terminated or result.truncated:
                    episode_success = bool(result.info["success"])
                    break
            self.history.episode_rewards.append(episode_reward)
            self.history.episode_successes.append(episode_success)
            self.history.episode_lengths.append(steps)
            if (episode + 1) % 50 == 0:
                logger.info(
                    "episode %d: reward=%.2f success_rate(last 50)=%.2f",
                    episode + 1,
                    episode_reward,
                    self.history.success_rate(window=50),
                )
        return self.history

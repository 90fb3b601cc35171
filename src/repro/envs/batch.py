"""Lockstep batched navigation: B independent episodes as stacked arrays.

:class:`BatchedNavigationEnv` is the batched core of the episode-execution
stack.  It holds B independent episode states (positions, headings, clocks,
path integrals, done flags) as stacked arrays and advances every running lane
in one :meth:`step` call: action decoding is a table lookup over the action
vector, the kinematics update is elementwise array math, the motion segments
of all running lanes are collision-checked through one
:meth:`~repro.envs.obstacles.ObstacleField.segments_collide_timed` query,
and observation construction goes through the batched
:meth:`~repro.envs.sensors.RaySensor.sense_many` /
:meth:`~repro.envs.sensors.OccupancyImager.render_many` front-ends — one
array op per step instead of B.  Every query carries the lanes' episode
clocks as row times; the field decides whether time matters (a static field
ignores them, a dynamic one places its movers at each lane's own time).

**Determinism contract.**  Every lane flies the world of the serial
environment it is built over (its one field, start, goal and observation
scale); each lane owns its own RNG stream, reset from a per-episode seed
exactly the way :meth:`~repro.envs.navigation.NavigationEnv.reset` is, and
every arithmetic operation in the step is elementwise-identical to the
serial environment's (:func:`~repro.envs.navigation.sample_start_position`
is replayed draw for draw, distances go through
:func:`~repro.envs.obstacles.planar_distances`).  The greedy, reset-seeded
episodes of :func:`run_batched_episodes` therefore reproduce the serial
:func:`~repro.envs.vector.run_episode` results *bitwise*, for any batch
size — which is what makes the batched core a refactor of the rollout stack
rather than a second, subtly different simulator.  Exploration is the
training collector's (:class:`~repro.rl.collect.LockstepCollector`).

Only lanes whose ``done`` flag is clear are advanced (the *done-mask*);
finished lanes keep their terminal statistics until :meth:`reset_lanes`
reseeds them, which is how :func:`run_batched_episodes` streams an arbitrary
number of episodes through a fixed number of lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnvironmentError_
from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import planar_distances
from repro.envs.vector import BatchPolicy, EpisodeResult
from repro.obs import get_metrics, span
from repro.utils.rng import as_generator, spawn_generators

#: Default lane count, and the lane cap of ``evaluate_policy`` and
#: ``evaluate_under_faults`` (``repro.rl.evaluation``).
DEFAULT_BATCH_SIZE = 64


@dataclass
class BatchStepResult:
    """Outcome of one lockstep step, as full ``(B, ...)`` arrays.

    Rows of lanes that were not stepped (already done, or never reset) hold
    zeros for the per-step quantities (observations, rewards, flags) and the
    lane's current values for the state snapshots (``steps``,
    ``path_lengths_m``); ``stepped`` marks the lanes this call actually
    advanced — only their rows are meaningful.
    """

    observations: np.ndarray        #: (B, *obs_shape); zero rows for unstepped lanes
    rewards: np.ndarray             #: (B,) per-step rewards
    terminated: np.ndarray          #: (B,) bool, goal or collision this step
    truncated: np.ndarray           #: (B,) bool, timeout this step
    success: np.ndarray             #: (B,) bool, goal reached this step
    collision: np.ndarray           #: (B,) bool, collided this step
    steps: np.ndarray               #: (B,) episode step counters
    path_lengths_m: np.ndarray      #: (B,) flown path integrals
    distances_to_goal_m: np.ndarray  #: (B,) distance to goal after the step
    stepped: np.ndarray             #: (B,) bool, lanes advanced by this call

    @property
    def done(self) -> np.ndarray:
        return self.terminated | self.truncated


class BatchedNavigationEnv:
    """B lockstep :class:`~repro.envs.navigation.NavigationEnv` lanes.

    Every lane flies the world of the serial environment ``env``, sharing
    its already-compiled field, so batched rollouts replay the very same
    world.  ``share_rng`` (``batch_size=1`` only) makes the single lane
    consume ``env``'s own RNG stream instead of a spawned child — the hook
    that lets B=1 batched training replay the serial trainer bitwise.
    """

    def __init__(
        self,
        env: NavigationEnv,
        batch_size: int = DEFAULT_BATCH_SIZE,
        share_rng: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if share_rng and batch_size != 1:
            raise ConfigurationError(
                "share_rng shares the serial environment's single RNG stream and "
                f"is only meaningful for batch_size=1, got batch_size={batch_size}"
            )
        self.config = env.config
        self.batch_size = int(batch_size)
        self.action_space = env.action_space
        self.observation_space = env.observation_space
        config = self.config

        self._heading_options = np.linspace(
            -config.max_heading_change_rad,
            config.max_heading_change_rad,
            config.num_heading_actions,
        )
        self._speed_options = np.linspace(0.2, 1.0, config.num_speed_actions)
        if config.num_speed_actions == 1:
            self._speed_options = np.array([1.0])

        B = self.batch_size
        # The serial environment's world, flown by every lane.
        self._field = env.obstacle_field
        self._start = env._start.copy()
        self._goal = env._goal.copy()
        self._scale = float(np.linalg.norm(np.asarray(env.world_size)))
        # share_rng hands lane 0 the serial environment's very Generator
        # object: draws through this batch continue its stream, which is what
        # makes B=1 batched *training* consume RNG exactly like the serial
        # trainer (see repro.rl.collect).  The default gives every lane its own
        # child of that stream, spawned when a lane is first reset without a
        # seed: an evaluation seeds every reset, so it never advances the
        # SeedSequence that later training spawns from.
        self._env_rng = env._rng
        self._rngs: List[Optional[np.random.Generator]] = (
            [env._rng] if share_rng else [None] * B
        )
        # Per-lane episode state (lanes start finished; reset_lanes activates them).
        self._positions = np.tile(self._start, (B, 1))
        self._headings = np.zeros(B, dtype=np.float64)
        self._steps = np.zeros(B, dtype=np.int64)
        self._times = np.zeros(B, dtype=np.float64)
        self._path_lengths = np.zeros(B, dtype=np.float64)
        self._done = np.ones(B, dtype=bool)

    # ------------------------------------------------------------------ introspection
    @property
    def done(self) -> np.ndarray:
        """Copy of the per-lane done mask."""
        return self._done.copy()

    def __repr__(self) -> str:
        active = int(np.count_nonzero(~self._done))
        return (
            f"BatchedNavigationEnv(batch_size={self.batch_size}, active={active}, "
            f"actions={self.action_space.n})"
        )

    # ------------------------------------------------------------------ reset
    def reset_lanes(
        self,
        lanes: Sequence[int],
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> np.ndarray:
        """Start a fresh episode on each of ``lanes``; returns their observations.

        Lane ``i`` reset with seed ``s`` replays exactly what
        ``NavigationEnv.reset(seed=s)`` would do on a serial environment
        flying this batch's world: reseed the lane RNG, sample the start
        position, face the goal.  Every lane is checked (in the batch, listed
        once) before any lane changes.
        """
        lane_list = self._checked_lanes(lanes)
        if seeds is None:
            seeds = [None] * len(lane_list)
        if len(seeds) != len(lane_list):
            raise ConfigurationError(
                f"got {len(seeds)} seeds for {len(lane_list)} lanes"
            )
        if len(set(lane_list)) != len(lane_list):
            raise ConfigurationError(f"lanes {lane_list} list a lane more than once")
        for lane, seed in zip(lane_list, seeds):
            if seed is not None:
                self._rngs[lane] = as_generator(int(seed))
            elif self._rngs[lane] is None:
                children = spawn_generators(self._env_rng, self.batch_size)
                self._rngs = [
                    own if own is not None else child
                    for own, child in zip(self._rngs, children)
                ]
        lane_array = np.asarray(lane_list, dtype=np.int64)
        self._steps[lane_array] = 0
        self._times[lane_array] = 0.0
        self._positions[lane_array] = self._sample_start_positions(lane_array)
        goal_vectors = self._goal - self._positions[lane_array]
        self._headings[lane_array] = np.arctan2(goal_vectors[:, 1], goal_vectors[:, 0])
        self._path_lengths[lane_array] = 0.0
        self._done[lane_array] = False
        return self._observe_lanes(lane_array)

    def retire_lanes(self, lanes: Sequence[int]) -> None:
        """Mark ``lanes`` finished without stepping them.

        Training caps episodes shorter than ``config.max_steps`` (the serial
        trainer's ``max_steps_per_episode``); a lane whose episode hit that cap
        mid-flight must stop being advanced by :meth:`step` even though the
        environment itself never terminated it.
        """
        self._done[np.asarray(self._checked_lanes(lanes), dtype=np.int64)] = True

    def _checked_lanes(self, lanes: Sequence[int]) -> List[int]:
        """``lanes`` as ints, once every lane is known to be in the batch."""
        lane_list = [int(lane) for lane in lanes]
        for lane in lane_list:
            if not 0 <= lane < self.batch_size:
                raise ConfigurationError(
                    f"lane {lane} outside batch of {self.batch_size}"
                )
        return lane_list

    def _sample_start_positions(self, lanes: np.ndarray) -> np.ndarray:
        """Start positions for ``lanes``: the fixed start plus optional noise.

        Replays :func:`~repro.envs.navigation.sample_start_position` for every
        lane — same per-lane draws from the same per-lane streams, same
        rejection rule — but evaluates each round's candidate collision checks
        as one batched field query.
        """
        noise = self.config.start_position_noise_m
        positions = np.tile(self._start, (lanes.size, 1))
        if noise <= 0.0:
            return positions
        radius = self.config.vehicle_radius_m
        pending = np.arange(lanes.size)
        for _ in range(32):
            if pending.size == 0:
                break
            candidates = np.empty((pending.size, 2), dtype=np.float64)
            for offset, row in enumerate(pending):
                candidates[offset] = self._start + self._rngs[int(lanes[row])].uniform(
                    -noise, noise, size=2
                )
            # Episodes start at t = 0.
            collided = self._field.collides_many_timed(
                candidates, np.zeros(pending.size), radius
            )
            placed = ~collided
            positions[pending[placed]] = candidates[placed]
            pending = pending[collided]
        # Lanes that exhausted every attempt keep the fixed start (already
        # initialised above), matching the serial fallback.
        return positions

    # ------------------------------------------------------------------ step
    def step(self, actions: np.ndarray) -> BatchStepResult:
        """Advance every running lane by one lockstep action.

        ``actions`` is a length-B integer vector; entries of finished lanes
        are ignored (the done-mask).  Raises when every lane is finished —
        reset lanes first.
        """
        actions = np.asarray(actions)
        if actions.shape != (self.batch_size,):
            raise EnvironmentError_(
                f"actions must have shape ({self.batch_size},), got {actions.shape}"
            )
        active = ~self._done
        if not active.any():
            raise EnvironmentError_(
                "step() called with every lane finished; call reset_lanes() first"
            )
        lanes = np.nonzero(active)[0]
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("env.steps").inc(lanes.size)
            metrics.histogram("env.lane_occupancy").observe(lanes.size / self.batch_size)
        config = self.config
        acts = actions[lanes].astype(np.int64)
        if np.any((acts < 0) | (acts >= self.action_space.n)):
            bad = acts[(acts < 0) | (acts >= self.action_space.n)][0]
            raise EnvironmentError_(
                f"invalid action {int(bad)!r} for a {self.action_space.n}-action space"
            )
        heading_index, speed_index = np.divmod(acts, config.num_speed_actions)
        heading_changes = self._heading_options[heading_index]
        speed_fractions = self._speed_options[speed_index]

        self._steps[lanes] += 1
        positions = self._positions[lanes]
        previous_distances = planar_distances(self._goal - positions)
        headings = self._wrap_angles(self._headings[lanes] + heading_changes)
        self._headings[lanes] = headings
        displacements = speed_fractions * config.max_speed_m_s * config.step_duration_s
        new_positions = positions + displacements[:, None] * np.stack(
            [np.cos(headings), np.sin(headings)], axis=1
        )

        start_times = self._times[lanes]
        end_times = start_times + config.step_duration_s
        with span("rollout.collision_check"):
            collided = self._field.segments_collide_timed(
                positions, new_positions, start_times, end_times, config.vehicle_radius_m
            )
        self._times[lanes] = end_times

        moved = ~collided
        self._path_lengths[lanes] += np.where(moved, displacements, 0.0)
        updated_positions = np.where(moved[:, None], new_positions, positions)
        self._positions[lanes] = updated_positions
        new_distances = planar_distances(self._goal - updated_positions)
        success = moved & (new_distances <= config.goal_radius_m)
        progress_rewards = config.step_penalty + config.progress_scale * (
            previous_distances - new_distances
        )
        rewards = np.where(
            collided,
            config.step_penalty + config.collision_penalty,
            np.where(success, progress_rewards + config.goal_reward, progress_rewards),
        )
        terminated = collided | success
        truncated = ~terminated & (self._steps[lanes] >= config.max_steps)
        self._done[lanes] = terminated | truncated

        observations = np.zeros((self.batch_size,) + self.observation_space.shape)
        observations[lanes] = self._observe_lanes(lanes)
        return BatchStepResult(
            observations=observations,
            rewards=self._scatter(lanes, rewards),
            terminated=self._scatter(lanes, terminated),
            truncated=self._scatter(lanes, truncated),
            success=self._scatter(lanes, success),
            collision=self._scatter(lanes, collided),
            steps=self._steps.copy(),
            path_lengths_m=self._path_lengths.copy(),
            distances_to_goal_m=self._scatter(lanes, new_distances),
            stepped=active.copy(),
        )

    def _scatter(self, lanes: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.batch_size, dtype=values.dtype)
        out[lanes] = values
        return out

    # ------------------------------------------------------------------ observations
    def _observe_lanes(self, lanes: np.ndarray) -> np.ndarray:
        """Observations for ``lanes``, one batched sensor query over the field.

        Each lane's episode clock is its row time, so a dynamic field's
        movers are placed at per-lane times in the same query, bit-identical
        to sensing one frozen snapshot per lane; no per-time snapshot is
        built.
        """
        config = self.config
        with span("rollout.ray_cast"):
            positions = self._positions[lanes]
            headings = self._headings[lanes]
            times = self._times[lanes]
            goals = np.broadcast_to(self._goal, positions.shape)
            if config.observation == "image":
                return config.imager.render_many(
                    self._field, positions, headings, goals, times
                )
            rays = config.ray_sensor.sense_many(self._field, positions, headings, times)
            goal_vectors = goals - positions
            goal_distances = planar_distances(goal_vectors)
            goal_bearings = np.arctan2(goal_vectors[:, 1], goal_vectors[:, 0]) - headings
            features = np.stack(
                [
                    np.minimum(1.0, goal_distances / self._scale),
                    np.sin(goal_bearings),
                    np.cos(goal_bearings),
                    headings / math.pi,
                ],
                axis=1,
            )
            return np.concatenate([rays, features], axis=1)

    @staticmethod
    def _wrap_angles(angles: np.ndarray) -> np.ndarray:
        return (angles + math.pi) % (2.0 * math.pi) - math.pi


class LaneEpisodeFeed:
    """Streams a fixed pool of episodes through a batch's lanes.

    The feed owns the lane -> episode assignment of lockstep execution:
    :meth:`prime` starts the first ``min(B, num_episodes)`` episodes, and
    :meth:`refill` immediately restarts a finished lane on the next pending
    episode so every step stays a full-width batch until the pool drains.
    With ``reset_seed`` set, episode ``i`` resets its lane with
    ``reset_seed + i`` (evaluation rollouts); when it is ``None``, each reset
    continues the lane's own RNG stream exactly like ``NavigationEnv.reset()``
    without a seed — the training semantics.

    This is the auto-reset machinery shared by evaluation
    (:func:`run_batched_episodes`, where lanes drain at the tail) and the
    training collector (:class:`~repro.rl.collect.LockstepCollector`, where
    lanes keep collecting past episode ends until the budget is spent).
    """

    def __init__(
        self,
        env: BatchedNavigationEnv,
        num_episodes: int,
        reset_seed: Optional[int] = None,
    ) -> None:
        if num_episodes < 0:
            raise ConfigurationError(
                f"num_episodes must be non-negative, got {num_episodes}"
            )
        self.env = env
        self.num_episodes = int(num_episodes)
        self._reset_seed = reset_seed
        #: Episode index currently running on each lane; -1 marks an idle lane.
        self.lane_episode = np.full(env.batch_size, -1, dtype=np.int64)
        self._next_episode = 0

    @property
    def active_lanes(self) -> np.ndarray:
        """Lanes currently running an episode, in ascending lane order."""
        return np.nonzero(self.lane_episode >= 0)[0]

    @property
    def exhausted(self) -> bool:
        """True once every episode has finished (no active lanes, none pending)."""
        return self._next_episode >= self.num_episodes and not (self.lane_episode >= 0).any()

    def _seed(self, episode: int) -> Optional[int]:
        return None if self._reset_seed is None else self._reset_seed + episode

    def prime(self) -> np.ndarray:
        """Start the first episodes; returns the full (B, ...) observation array."""
        observations = np.zeros(
            (self.env.batch_size,) + self.env.observation_space.shape
        )
        fill = list(range(min(self.env.batch_size, self.num_episodes)))
        if fill:
            observations[fill] = self.env.reset_lanes(
                fill, [self._seed(episode) for episode in fill]
            )
        self.lane_episode[fill] = fill
        self._next_episode = len(fill)
        return observations

    def refill(self, lane: int) -> Optional[np.ndarray]:
        """Restart ``lane`` on the next pending episode.

        Returns the new episode's first observation, or ``None`` when the pool
        is exhausted — the lane is then idled *and* retired in the environment,
        so subsequent steps no longer advance it (a capped episode may have
        left the env lane mid-flight).
        """
        lane = int(lane)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("env.episodes").inc()
        if self._next_episode < self.num_episodes:
            episode = self._next_episode
            self._next_episode += 1
            observation = self.env.reset_lanes([lane], [self._seed(episode)])[0]
            self.lane_episode[lane] = episode
            return observation
        self.lane_episode[lane] = -1
        self.env.retire_lanes([lane])
        return None

    def refill_many(self, lanes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Refill several finished lanes through one batched reset.

        Semantically ``[refill(lane) for lane in lanes]`` — same episode
        assignment order, same per-lane RNG draws — but all restarted lanes
        share a single :meth:`BatchedNavigationEnv.reset_lanes` call, so their
        start-position rejection rounds and first observations are one batched
        query instead of one per episode.  Returns ``(refilled_lanes,
        observations)`` for the lanes that received a new episode; the rest
        are idled and retired.
        """
        metrics = get_metrics()
        if metrics.enabled:
            # Each refilled-or-retired lane is one just-finished episode.
            metrics.counter("env.episodes").inc(len(lanes))
        assigned: List[Tuple[int, int]] = []
        exhausted: List[int] = []
        for lane in lanes:
            if self._next_episode < self.num_episodes:
                assigned.append((int(lane), self._next_episode))
                self._next_episode += 1
            else:
                exhausted.append(int(lane))
        if exhausted:
            self.lane_episode[exhausted] = -1
            self.env.retire_lanes(exhausted)
        refilled = np.asarray([lane for lane, _ in assigned], dtype=np.int64)
        if not assigned:
            return refilled, np.zeros((0,) + self.env.observation_space.shape)
        observations = self.env.reset_lanes(
            [lane for lane, _ in assigned],
            [self._seed(episode) for _, episode in assigned],
        )
        self.lane_episode[refilled] = [episode for _, episode in assigned]
        return refilled, observations


def run_batched_episodes(
    env: BatchedNavigationEnv,
    policy: BatchPolicy,
    num_episodes: int,
    reset_seed: int,
) -> List[EpisodeResult]:
    """Fly ``num_episodes`` greedy episodes through the batch's lanes in lockstep.

    Episode ``i`` resets its lane with ``reset_seed + i``, and a lane that
    finishes is immediately refilled with the next pending episode, so every
    policy forward stays a full-width batch until the tail.  Results come
    back in episode order and reproduce the serial
    :func:`~repro.envs.vector.run_episode` loop bitwise.
    """
    B = env.batch_size
    results: List[Optional[EpisodeResult]] = [None] * num_episodes
    feed = LaneEpisodeFeed(env, num_episodes, reset_seed=reset_seed)
    reward_totals = np.zeros(B, dtype=np.float64)
    observations = feed.prime()

    while True:
        active = feed.active_lanes
        if active.size == 0:
            break
        actions = np.zeros(B, dtype=np.int64)
        chosen = np.asarray(policy(observations[active]), dtype=np.int64).reshape(-1)
        if chosen.shape != (active.size,):
            raise ConfigurationError(
                f"batch policy returned {chosen.shape} actions for {active.size} observations"
            )
        actions[active] = chosen
        result = env.step(actions)
        reward_totals[active] += result.rewards[active]
        observations[active] = result.observations[active]
        finished = active[result.done[active]]
        for lane in finished:
            episode = int(feed.lane_episode[lane])
            results[episode] = EpisodeResult(
                success=bool(result.success[lane]),
                collision=bool(result.collision[lane]),
                steps=int(result.steps[lane]),
                path_length_m=float(result.path_lengths_m[lane]),
                total_reward=float(reward_totals[lane]),
            )
        if finished.size:
            # One batched reset per lockstep step: every refilled lane is
            # reseeded per episode, so the batched rejection rounds replay the
            # per-lane draws of one-at-a-time refills exactly.
            refilled, refill_obs = feed.refill_many(finished)
            if refilled.size:
                observations[refilled] = refill_obs
                reward_totals[refilled] = 0.0
    return results  # type: ignore[return-value]

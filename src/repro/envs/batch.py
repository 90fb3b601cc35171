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

Only lanes whose ``done`` flag is clear are advanced (the *done-mask*):
:meth:`~BatchedNavigationEnv.step` takes one action per running lane and
returns one row per running lane.  Finished lanes keep their terminal
statistics until :meth:`~BatchedNavigationEnv.reset_lanes` reseeds them,
which is how :class:`LaneEpisodeFeed` streams an arbitrary number of
episodes through a fixed number of lanes.

:func:`run_batched_episodes` takes one reset seed per episode, so the
episodes of one rollout need not share a seed base, and lane blocks that
refill only from their own episodes: :func:`~repro.rl.evaluation.evaluate_many`
flies many fault maps and error-free runs, each with its own base and
block, as one wave of lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnvironmentError_
from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import planar_distances
from repro.envs.vector import BatchPolicy, EpisodeResult
from repro.obs import get_metrics, span
from repro.utils.rng import as_generator, spawn_generators

#: Default lane count, and the lane cap of one request's wave in
#: ``repro.rl.evaluation.evaluate_many`` (a call flies the waves of all its
#: requests side by side, so its rollouts can be wider).
DEFAULT_BATCH_SIZE = 64


@dataclass
class BatchStepResult:
    """Outcome of one lockstep step: one row per lane the step advanced.

    ``lanes`` names the rows' lanes, in ascending lane order.
    """

    lanes: np.ndarray               #: (k,) the lanes stepped, ascending
    observations: np.ndarray        #: (k, *obs_shape) observations after the step
    rewards: np.ndarray             #: (k,) per-step rewards
    terminated: np.ndarray          #: (k,) bool, goal or collision this step
    truncated: np.ndarray           #: (k,) bool, timeout this step
    success: np.ndarray             #: (k,) bool, goal reached this step
    collision: np.ndarray           #: (k,) bool, collided this step
    steps: np.ndarray               #: (k,) episode step counters
    path_lengths_m: np.ndarray      #: (k,) flown path integrals

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
        lane_list = [int(lane) for lane in lanes]
        for lane in lane_list:
            if not 0 <= lane < self.batch_size:
                raise ConfigurationError(
                    f"lane {lane} outside batch of {self.batch_size}"
                )
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

        ``actions`` holds one integer action per running lane, in ascending
        lane order; the result has one row per running lane (its ``lanes``).
        Raises when every lane is finished — reset lanes first.
        """
        lanes = np.nonzero(~self._done)[0]
        if lanes.size == 0:
            raise EnvironmentError_(
                "step() called with every lane finished; call reset_lanes() first"
            )
        actions = np.asarray(actions)
        if actions.shape != lanes.shape:
            raise EnvironmentError_(
                f"actions must have one entry per running lane, shape {lanes.shape}, "
                f"got {actions.shape}"
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("env.steps").inc(lanes.size)
            metrics.histogram("env.lane_occupancy").observe(lanes.size / self.batch_size)
        config = self.config
        acts = actions.astype(np.int64)
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

        return BatchStepResult(
            lanes=lanes,
            observations=self._observe_lanes(lanes),
            rewards=rewards,
            terminated=terminated,
            truncated=truncated,
            success=success,
            collision=collided,
            steps=self._steps[lanes],
            path_lengths_m=self._path_lengths[lanes],
        )

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
    """Streams a fixed pool of episodes through a batch's lanes, in blocks.

    The feed owns the lane -> episode assignment and the episode books of
    lockstep execution.  Block ``(lanes, episodes)`` of ``blocks`` (default:
    one of every lane and episode) owns the next ``lanes`` lanes and
    ``episodes`` episodes and flies as a lone feed on that many lanes: it
    starts its first episodes at construction, and :meth:`advance` restarts
    a lane whose episode ended on its block's next pending one.  The feed
    keeps each lane's observation and return.  With ``reset_seeds`` set (one
    seed per episode), episode ``i`` resets its lane with ``reset_seeds[i]``
    (evaluation); when it is ``None``, each reset continues the lane's own
    RNG stream like ``NavigationEnv.reset()`` without a seed (training).

    Its callers only choose actions: :func:`run_batched_episodes` (greedy
    evaluation, where lanes drain at the tail) and the training collector
    (:class:`~repro.rl.collect.LockstepCollector`).
    """

    def __init__(
        self,
        env: BatchedNavigationEnv,
        num_episodes: int,
        reset_seeds: Optional[Sequence[int]] = None,
        blocks: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        if reset_seeds is not None and len(reset_seeds) != num_episodes:
            raise ConfigurationError(
                f"got {len(reset_seeds)} reset seeds for {num_episodes} episodes"
            )
        if blocks is None:
            blocks = [(env.batch_size, num_episodes)]
        if (
            any(lanes < 1 or episodes < 0 for lanes, episodes in blocks)
            or sum(lanes for lanes, _ in blocks) > env.batch_size
            or sum(episodes for _, episodes in blocks) != num_episodes
        ):
            raise ConfigurationError(
                f"(lanes, episodes) blocks {list(blocks)} must each own a lane, fit in "
                f"{env.batch_size} lanes and hold {num_episodes} episodes"
            )
        self.env = env
        self._reset_seeds = reset_seeds
        #: Episode index currently running on each lane; -1 marks an idle lane.
        self.lane_episode = np.full(env.batch_size, -1, dtype=np.int64)
        #: Each lane's current observation (the one its next action acts on).
        self.observations = np.zeros((env.batch_size,) + env.observation_space.shape)
        self._returns = np.zeros(env.batch_size, dtype=np.float64)
        # Each block lane's queue: one iterator over the block's episodes.
        self._queues: List[Iterator[int]] = []
        first = 0
        for lanes, episodes in blocks:
            self._queues += [iter(range(first, first + episodes))] * lanes
            first += episodes
        self._start(np.arange(len(self._queues)))

    @property
    def active_lanes(self) -> np.ndarray:
        """Lanes currently running an episode, in ascending lane order."""
        return np.nonzero(self.lane_episode >= 0)[0]

    def _start(self, lanes: np.ndarray) -> None:
        """Start each of ``lanes`` on its block's next pending episode; idle the rest.

        Every started lane shares one :meth:`BatchedNavigationEnv.reset_lanes`
        call; each is reseeded per episode (or continues its own stream), so
        the batched rejection rounds replay one-at-a-time resets exactly.
        """
        episodes = np.array([next(self._queues[lane], -1) for lane in lanes], dtype=np.int64)
        self.lane_episode[lanes] = episodes
        started = lanes[episodes >= 0]
        if started.size:
            seeds = [
                None if self._reset_seeds is None else int(self._reset_seeds[episode])
                for episode in episodes[episodes >= 0]
            ]
            self.observations[started] = self.env.reset_lanes(started, seeds)
            self._returns[started] = 0.0

    def advance(
        self, actions: np.ndarray
    ) -> Tuple[BatchStepResult, List[Tuple[int, EpisodeResult]]]:
        """Step the running lanes with ``actions`` (one per :attr:`active_lanes` row).

        Returns the step's result and ``(episode, EpisodeResult)`` for each
        episode that ended, in lane order; those lanes restart on pending
        episodes (or idle), so :attr:`observations` holds the next step's
        inputs.
        """
        result = self.env.step(actions)
        lanes = result.lanes
        self._returns[lanes] += result.rewards
        self.observations[lanes] = result.observations
        ended = np.nonzero(result.done)[0]
        finished = [
            (
                int(self.lane_episode[lanes[row]]),
                EpisodeResult(
                    success=bool(result.success[row]),
                    collision=bool(result.collision[row]),
                    steps=int(result.steps[row]),
                    path_length_m=float(result.path_lengths_m[row]),
                    total_reward=float(self._returns[lanes[row]]),
                ),
            )
            for row in ended
        ]
        if ended.size:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("env.episodes").inc(ended.size)
            self._start(lanes[ended])
        return result, finished


def run_batched_episodes(
    env: BatchedNavigationEnv,
    policy: BatchPolicy,
    reset_seeds: Sequence[int],
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[EpisodeResult]:
    """Fly one greedy episode per reset seed through the batch's lanes in lockstep.

    Episode ``i`` resets its lane with ``reset_seeds[i]``, and a lane that
    finishes is immediately refilled with its block's next pending episode
    (``blocks`` as in :class:`LaneEpisodeFeed`), so every policy forward
    stays a full-width batch until the tail.  The policy gets the episode
    index of each observation row beside the matrix.  Results come back in
    episode order and reproduce the serial
    :func:`~repro.envs.vector.run_episode` loop bitwise.
    """
    num_episodes = len(reset_seeds)
    results: List[Optional[EpisodeResult]] = [None] * num_episodes
    feed = LaneEpisodeFeed(env, num_episodes, reset_seeds=reset_seeds, blocks=blocks)
    while True:
        active = feed.active_lanes
        if active.size == 0:
            break
        actions = np.asarray(
            policy(feed.observations[active], feed.lane_episode[active]), dtype=np.int64
        ).reshape(-1)
        if actions.shape != (active.size,):
            raise ConfigurationError(
                f"batch policy returned {actions.shape} actions for {active.size} observations"
            )
        _, finished = feed.advance(actions)
        for episode, result in finished:
            results[episode] = result
    return results  # type: ignore[return-value]

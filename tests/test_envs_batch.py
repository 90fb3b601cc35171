"""Tests for the lockstep batched rollout core.

The load-bearing property is the determinism contract: every lane flies the
serial environment's world, and greedy rollouts under per-episode reset
seeds reproduce the serial ``run_episode`` loop *bitwise*, for any batch
size, on uniform, generated and dynamic worlds, with vector or image
observations.
That contract is what makes the batched core a refactor of the
episode-execution stack rather than a second simulator.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.batch import BatchedNavigationEnv, LaneEpisodeFeed, run_batched_episodes
from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity, ObstacleField
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.envs.vector import run_episode
from repro.errors import ConfigurationError, EnvironmentError_
from repro.nn.policies import build_policy, mlp
from repro.rl.evaluation import GreedyPolicy
from repro.utils.rng import spawn_generators
from repro.worlds.spec import WorldSpec


@pytest.fixture
def batch_config() -> NavigationConfig:
    """A small scenario with start noise so episodes differ under one world."""
    return NavigationConfig(
        world_size=(12.0, 12.0),
        density=ObstacleDensity.SPARSE,
        start=(1.5, 6.0),
        goal=(10.5, 6.0),
        goal_radius_m=1.2,
        max_speed_m_s=2.5,
        step_duration_s=0.5,
        max_steps=30,
        observation="vector",
        ray_sensor=RaySensor(num_rays=6, max_range_m=4.0, step_m=0.25),
        start_position_noise_m=0.8,
    )


def _greedy_for(config: NavigationConfig, rng: int = 0):
    probe = NavigationEnv(config, rng=3)
    network = build_policy(
        mlp((24, 24)), probe.observation_space.shape, probe.action_space.n, rng=rng
    )
    return GreedyPolicy(network)


def _serial_reference(config, policy, num_episodes, reset_seed, env_seed=3):
    env = NavigationEnv(config, rng=env_seed)
    return [
        run_episode(env, policy, reset_seed=reset_seed + index)
        for index in range(num_episodes)
    ]


class TestBatchedSerialEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_greedy_rollouts_bitwise_match_serial(self, batch_config, batch_size):
        policy = _greedy_for(batch_config)
        serial = _serial_reference(batch_config, policy, 20, reset_seed=50)
        env = BatchedNavigationEnv(
            NavigationEnv(batch_config, rng=3), batch_size=batch_size
        )
        batched = run_batched_episodes(env, policy, range(50, 70))
        # Dataclass equality covers floats (path length, reward) exactly.
        assert batched == serial

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_equivalence_with_dynamic_generated_world(self, batch_config, batch_size):
        """The timed-observation acceptance pin: batched dynamic rollouts at
        B in {1, 7, 64} bitwise match the serial env, whose every observation
        goes through a per-instant ``at_time`` snapshot.  Episodes end at
        different steps, so lanes carry desynchronised episode clocks into
        the shared timed sensing query."""
        config = replace(batch_config, world_spec=WorldSpec("dynamic", seed=2))
        policy = _greedy_for(config)
        serial = _serial_reference(config, policy, 12, reset_seed=31)
        env = BatchedNavigationEnv(
            NavigationEnv(config, rng=3), batch_size=batch_size
        )
        assert run_batched_episodes(env, policy, range(31, 43)) == serial

    def test_dynamic_lanes_desynchronise_and_still_match_serial(self, batch_config):
        """Force explicitly staggered lane clocks (one lane reset mid-flight
        of the others) and pin each returned observation against a fresh
        ``at_time``-snapshot env at that lane's clock."""
        config = replace(batch_config, world_spec=WorldSpec("dynamic", seed=2))
        env = BatchedNavigationEnv(NavigationEnv(config, rng=3), batch_size=3)
        env.reset_lanes([0, 1, 2], [100, 101, 102])
        straight = env.action_space.n // 2
        env.step(np.full(3, straight, dtype=np.int64))
        env.step(np.full(3, straight, dtype=np.int64))
        env.reset_lanes([1], [103])
        result = env.step(np.full(3, straight, dtype=np.int64))
        assert len(set(env._times.tolist())) > 1
        serial_env = NavigationEnv(config, rng=3)
        for lane, reset_seed, steps in ((0, 100, 3), (1, 103, 1), (2, 102, 3)):
            serial_env.reset(seed=reset_seed)
            for _ in range(steps):
                observation = serial_env.step(straight).observation
            assert np.array_equal(result.observations[lane], observation)

    def test_equivalence_with_image_observations(self, batch_config):
        config = replace(
            batch_config,
            observation="image",
            imager=OccupancyImager(image_size=8),
            max_steps=12,
        )
        policy = _greedy_for(config)
        serial = _serial_reference(config, policy, 4, reset_seed=13)
        env = BatchedNavigationEnv(NavigationEnv(config, rng=3), batch_size=2)
        assert run_batched_episodes(env, policy, range(13, 17)) == serial


class TestBatchedEnvApi:
    def test_invalid_batch_size_rejected(self, batch_config):
        with pytest.raises(ConfigurationError):
            BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=0)

    def test_step_with_all_lanes_done_rejected(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=3)
        with pytest.raises(EnvironmentError_):
            env.step(np.zeros(3, dtype=np.int64))

    def test_invalid_action_rejected(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=2)
        env.reset_lanes([0, 1], [0, 1])
        with pytest.raises(EnvironmentError_):
            env.step(np.array([0, env.action_space.n]))

    def test_action_shape_validated(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=2)
        env.reset_lanes([0, 1], [0, 1])
        with pytest.raises(EnvironmentError_):
            env.step(np.zeros(5, dtype=np.int64))

    def test_seed_count_mismatch_rejected(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=2)
        with pytest.raises(ConfigurationError):
            env.reset_lanes([0, 1], [0])

    def test_lane_listed_twice_rejected_before_any_lane_changes(self, batch_config):
        """A lane listed twice would draw its start twice from the second
        seed's stream, a state no serial reset produces."""
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=3), batch_size=2)
        with pytest.raises(ConfigurationError):
            env.reset_lanes([0, 0], [1, 2])
        assert env.done.all()
        serial_env = NavigationEnv(batch_config, rng=3)
        assert np.array_equal(env.reset_lanes([0], [2])[0], serial_env.reset(seed=2))

    def test_lane_outside_batch_rejected_before_any_lane_changes(self, batch_config):
        """Lane 0 must not be reseeded by a call that then rejects lane 5."""
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=3), batch_size=2)
        with pytest.raises(ConfigurationError):
            env.reset_lanes([0, 5], [1, 2])
        assert env.done.all()
        fresh = BatchedNavigationEnv(NavigationEnv(batch_config, rng=3), batch_size=2)
        assert np.array_equal(env.reset_lanes([0]), fresh.reset_lanes([0]))

    def test_done_mask_freezes_finished_lanes(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=3)
        env.reset_lanes([0, 2], [0, 2])
        assert list(env.done) == [False, True, False]
        # Stepping takes and returns one row per running lane; the idle lane
        # stays put.
        straight = (env.action_space.n // 2)
        result = env.step(np.full(2, straight, dtype=np.int64))
        assert result.lanes.tolist() == [0, 2]
        assert result.steps.tolist() == [1, 1]
        assert result.observations.shape == (2,) + env.observation_space.shape
        assert env._steps[1] == 0
        with pytest.raises(EnvironmentError_):
            env.step(np.full(3, straight, dtype=np.int64))

    def test_observations_match_observation_space(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=3)
        observations = env.reset_lanes([0, 1, 2], [0, 1, 2])
        assert observations.shape == (3,) + env.observation_space.shape
        assert all(env.observation_space.contains(row) for row in observations)

    def test_results_returned_in_episode_order(self, batch_config):
        policy = _greedy_for(batch_config)
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=3), batch_size=5)
        results = run_batched_episodes(env, policy, range(60, 71))
        assert len(results) == 11
        assert all(result is not None for result in results)

    def test_zero_episodes(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=2)
        assert run_batched_episodes(env, _greedy_for(batch_config), []) == []

    def test_policy_must_return_one_action_per_observation(self, batch_config):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=0), batch_size=3)
        with pytest.raises(ConfigurationError):
            run_batched_episodes(env, lambda observations, episodes: 0, range(3))


#: Short, fast episodes, so a few steps reach the truncation step and the
#: obstacles (and, in the dynamic world, the movers).
INTERLEAVING_CONFIGS = {
    family: NavigationConfig(
        max_speed_m_s=4.0,
        step_duration_s=0.5,
        max_steps=5,
        observation="vector",
        ray_sensor=RaySensor(num_rays=8, max_range_m=10.0, step_m=0.25),
        start_position_noise_m=0.8,
        world_spec=WorldSpec(family, seed=2),
    )
    for family in ("uniform", "dynamic")
}


def _lane_state(env: BatchedNavigationEnv):
    """Every per-lane quantity a call could change, lane streams included."""
    arrays = (env._positions, env._headings, env._steps, env._times, env._path_lengths, env._done)
    streams = [None if rng is None else rng.bit_generator.state for rng in env._rngs]
    return [array.copy() for array in arrays], streams


class TestLaneInterleaving:
    """Any interleaving of ``reset_lanes`` and ``step`` is B serial envs."""

    @pytest.mark.parametrize("family", sorted(INTERLEAVING_CONFIGS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_matches_serial_envs(self, family, data):
        config = INTERLEAVING_CONFIGS[family]
        lanes_in_batch = data.draw(st.integers(1, 5), label="batch_size")
        batched = BatchedNavigationEnv(NavigationEnv(config, rng=3), lanes_in_batch)
        serial = [NavigationEnv(config, rng=3) for _ in range(lanes_in_batch)]
        # A lane's first seedless reset continues child `lane` of the env's stream.
        children = spawn_generators(NavigationEnv(config, rng=3)._rng, lanes_in_batch)
        for env, child in zip(serial, children):
            env._rng = child
        running = [False] * lanes_in_batch
        actions = st.integers(0, batched.action_space.n - 1)
        operations = st.sampled_from(("step", "step", "step", "reset"))
        for _ in range(data.draw(st.integers(1, 16), label="operations")):
            if any(running) and data.draw(operations) == "step":
                lanes = [lane for lane in range(lanes_in_batch) if running[lane]]
                chosen = data.draw(st.lists(actions, min_size=len(lanes), max_size=len(lanes)))
                result = batched.step(np.asarray(chosen))
                assert result.lanes.tolist() == lanes
                for row, (lane, action) in enumerate(zip(lanes, chosen)):
                    expected = serial[lane].step(action)
                    assert np.array_equal(result.observations[row], expected.observation)
                    assert result.rewards[row] == expected.reward
                    assert bool(result.terminated[row]) == expected.terminated
                    assert bool(result.truncated[row]) == expected.truncated
                    assert result.path_lengths_m[row] == serial[lane].path_length_m
                    running[lane] = not (expected.terminated or expected.truncated)
                continue
            lanes = data.draw(
                st.lists(st.integers(0, lanes_in_batch - 1), unique=True, max_size=3),
                label="lanes",
            )
            fault = data.draw(st.sampled_from((None, None, "twice", "outside")), label="fault")
            if fault == "twice" and lanes:
                lanes.append(lanes[0])
            elif fault == "outside":
                lanes.insert(data.draw(st.integers(0, len(lanes))), lanes_in_batch)
            seeds = data.draw(
                st.lists(
                    st.none() | st.integers(0, 2**16), min_size=len(lanes), max_size=len(lanes)
                ),
                label="seeds",
            )
            if len(set(lanes)) < len(lanes) or fault == "outside":
                before = _lane_state(batched)
                with pytest.raises(ConfigurationError):
                    batched.reset_lanes(lanes, seeds)
                after = _lane_state(batched)
                assert all(map(np.array_equal, before[0], after[0]))
                assert before[1] == after[1]
                continue
            observations = batched.reset_lanes(lanes, seeds)
            for row, (lane, seed) in enumerate(zip(lanes, seeds)):
                assert np.array_equal(observations[row], serial[lane].reset(seed=seed))
                running[lane] = True
        assert batched.done.tolist() == [not flag for flag in running]


def _drive_feed(feed: LaneEpisodeFeed, first_episode: int = 0):
    """Step ``feed`` until it drains, each action a function of the lane's
    episode (``first_episode`` + the feed's index) and of that episode's step.

    Returns one entry per step: the lane -> episode map, every lane's
    observation row and the ``(episode, EpisodeResult)`` pairs that ended.
    """
    num_actions = feed.env.action_space.n
    steps_taken = {}
    trace = []
    while feed.active_lanes.size:
        episodes = feed.lane_episode[feed.active_lanes] + first_episode
        actions = []
        for episode in episodes.tolist():
            step = steps_taken.get(episode, 0)
            actions.append((7 * episode + 3 * step) % num_actions)
            steps_taken[episode] = step + 1
        _, finished = feed.advance(np.asarray(actions))
        lane_episode = np.where(feed.lane_episode >= 0, feed.lane_episode + first_episode, -1)
        ended = [(episode + first_episode, result) for episode, result in finished]
        trace.append((lane_episode, feed.observations.copy(), ended))
    return trace


class TestLaneBlocks:
    """A feed of lane blocks, driven like an auto-resetting env for hundreds
    of steps: each block refills only from its own episodes, so it flies
    exactly as a lone feed on that many lanes."""

    #: (lanes, episodes): a one-lane block, blocks with more episodes than
    #: lanes, a block with spare lanes, and widths from 1 to 5.
    BLOCKS = [(1, 60), (3, 25), (2, 2), (5, 31), (4, 3)]
    SEED = 500

    @pytest.mark.parametrize("family", sorted(INTERLEAVING_CONFIGS))
    def test_each_block_flies_as_a_lone_feed(self, family):
        config = INTERLEAVING_CONFIGS[family]
        lanes = sum(width for width, _ in self.BLOCKS)
        total = sum(count for _, count in self.BLOCKS)
        env = BatchedNavigationEnv(NavigationEnv(config, rng=3), lanes + 2)
        seeds = range(self.SEED, self.SEED + total)
        trace = _drive_feed(LaneEpisodeFeed(env, total, reset_seeds=seeds, blocks=self.BLOCKS))
        assert len(trace) >= 200
        assert (trace[-1][0] == -1).all() and env.done.all()
        first_lane = first_episode = 0
        for width, count in self.BLOCKS:
            own_lanes = slice(first_lane, first_lane + width)
            own = range(first_episode, first_episode + count)
            lone_env = BatchedNavigationEnv(NavigationEnv(config, rng=3), width)
            lone = _drive_feed(
                LaneEpisodeFeed(lone_env, count, reset_seeds=seeds[own.start : own.stop]),
                first_episode,
            )
            block = [
                (
                    lane_episode[own_lanes],
                    observations[own_lanes],
                    [(episode, result) for episode, result in ended if episode in own],
                )
                for lane_episode, observations, ended in trace
            ]
            assert sorted(episode for *_, ended in lone for episode, _ in ended) == list(own)
            assert len(lone) <= len(block)
            for step, (got, want) in enumerate(zip(block, lone)):
                assert np.array_equal(got[0], want[0]), (width, count, step)
                assert np.array_equal(got[1], want[1]), (width, count, step)
                assert got[2] == want[2], (width, count, step)
            # Past the lone feed's last step the block stays idle.
            for lane_episode, _, ended in block[len(lone) :]:
                assert (lane_episode == -1).all() and not ended
            first_lane += width
            first_episode += count

    @pytest.mark.parametrize(
        "blocks",
        [
            [(3, 2), (3, 2)],
            [(2, 3), (2, 2)],
            [(2, 1)],
            [(0, 1), (2, 3)],
            [(3, -1), (2, 5)],
        ],
        ids=["overflowing-lanes", "too-many-episodes", "too-few-episodes", "laneless", "negative"],
    )
    def test_bad_blocks_raise_before_any_lane_resets(self, batch_config, blocks):
        env = BatchedNavigationEnv(NavigationEnv(batch_config, rng=3), 5)
        before = _lane_state(env)
        with pytest.raises(ConfigurationError):
            LaneEpisodeFeed(env, 4, reset_seeds=range(4), blocks=blocks)
        after = _lane_state(env)
        assert all(map(np.array_equal, before[0], after[0]))
        assert before[1] == after[1]


class TestBatchedGeometryPrimitives:
    @pytest.fixture
    def field(self) -> ObstacleField:
        return ObstacleField(
            world_size=(10.0, 10.0),
            centers=np.array([[3.0, 5.0], [7.0, 4.0]]),
            radii=np.array([0.8, 0.6]),
        )

    def test_ray_distances_many_matches_per_origin(self, field):
        rng = np.random.default_rng(0)
        origins = rng.uniform(1.0, 9.0, size=(6, 2))
        angles = np.linspace(-np.pi, np.pi, 5)
        batched = field.ray_distances_many(origins, angles, max_range=4.0, step=0.2)
        for index, origin in enumerate(origins):
            expected = field.ray_distances(origin, angles, max_range=4.0, step=0.2)
            assert np.array_equal(batched[index], expected)

    def test_ray_distances_many_per_origin_fans(self, field):
        origins = np.array([[2.0, 2.0], [8.0, 8.0]])
        angles = np.array([[0.0, 1.0], [2.0, 3.0]])
        batched = field.ray_distances_many(origins, angles, max_range=3.0)
        for index in range(2):
            expected = field.ray_distances(origins[index], angles[index], max_range=3.0)
            assert np.array_equal(batched[index], expected)

    def test_ray_distances_many_validation(self, field):
        with pytest.raises(ConfigurationError):
            field.ray_distances_many(np.zeros((2, 2)), np.zeros((3, 4)), max_range=3.0)
        with pytest.raises(ConfigurationError):
            field.ray_distances_many(np.zeros((1, 2)), np.zeros(3), max_range=0.0)

    def test_segments_collide_matches_per_segment(self, field):
        rng = np.random.default_rng(1)
        starts = rng.uniform(0.5, 9.5, size=(12, 2))
        ends = rng.uniform(0.5, 9.5, size=(12, 2))
        batched = field.segments_collide(starts, ends, vehicle_radius=0.3)
        expected = [
            field.segment_collides(start, end, vehicle_radius=0.3)
            for start, end in zip(starts, ends)
        ]
        assert batched.tolist() == expected

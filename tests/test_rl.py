"""Tests for the RL substrate: replay buffer, schedules, DQN trainer, evaluation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TrainingError
from repro.nn.policies import mlp
from repro.rl.dqn import DqnConfig, DqnTrainer, TrainingHistory
from repro.rl.evaluation import (
    GreedyPolicy,
    PerMapGreedyPolicy,
    PolicyEvaluation,
    evaluate_policy,
    evaluate_under_faults,
    robustness_curve,
)
from repro.rl.replay_buffer import ReplayBuffer, Transition
from repro.rl.schedules import ConstantSchedule, LinearDecay


class TestReplayBuffer:
    def test_add_and_len(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(3,))
        for i in range(3):
            buffer.add(np.full(3, i), i, float(i), np.full(3, i + 1), False)
        assert len(buffer) == 3
        assert not buffer.is_full

    def test_capacity_wraps_around(self):
        buffer = ReplayBuffer(capacity=3, observation_shape=(2,))
        for i in range(5):
            buffer.add(np.full(2, i), i, float(i), np.full(2, i), i % 2 == 0)
        assert len(buffer) == 3
        assert buffer.is_full

    @given(
        capacity=st.integers(min_value=1, max_value=50),
        additions=st.integers(min_value=1, max_value=120),
        batch=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_invariants(self, capacity, additions, batch):
        buffer = ReplayBuffer(capacity=capacity, observation_shape=(2,))
        for i in range(additions):
            buffer.add(np.full(2, i % capacity), i % 7, float(i), np.full(2, i), False)
        assert len(buffer) == min(capacity, additions)
        sample = buffer.sample(batch, rng=0)
        assert sample.batch_size == batch
        assert sample.observations.shape == (batch, 2)
        # Every sampled action must be one that was actually stored.
        assert set(sample.actions.tolist()).issubset({i % 7 for i in range(additions)})

    def test_sample_empty_rejected(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        with pytest.raises(ConfigurationError):
            buffer.sample(1)

    def test_wrong_observation_shape_rejected(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        with pytest.raises(ConfigurationError):
            buffer.add(np.zeros(3), 0, 0.0, np.zeros(2), False)

    def test_clear(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        buffer.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        buffer.clear()
        assert len(buffer) == 0

    def test_samples_are_copies(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        buffer.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        sample = buffer.sample(1, rng=0)
        sample.observations[0, 0] = 99.0
        assert buffer.sample(1, rng=0).observations[0, 0] == 0.0

    @staticmethod
    def _batch_of(indices):
        """Distinguishable transitions for ring-content comparisons."""
        indices = np.asarray(indices, dtype=np.float64)
        return (
            np.stack([indices, indices + 0.5], axis=1),
            indices.astype(np.int64) % 7,
            indices * 0.25,
            np.stack([indices + 1.0, indices + 1.5], axis=1),
            (indices.astype(np.int64) % 3 == 0).astype(np.float64),
        )

    @staticmethod
    def _assert_buffers_identical(a: ReplayBuffer, b: ReplayBuffer):
        assert len(a) == len(b)
        assert a._cursor == b._cursor
        assert np.array_equal(a._observations, b._observations)
        assert np.array_equal(a._next_observations, b._next_observations)
        assert np.array_equal(a._actions, b._actions)
        assert np.array_equal(a._rewards, b._rewards)
        assert np.array_equal(a._dones, b._dones)

    def test_add_batch_wraps_cursor_in_two_slices(self):
        batched = ReplayBuffer(capacity=5, observation_shape=(2,))
        scalar = ReplayBuffer(capacity=5, observation_shape=(2,))
        first = self._batch_of(range(3))
        tail = self._batch_of(range(3, 7))  # wraps: rows 3,4 then 5,6 at the front
        for chunk in (first, tail):
            batched.add_batch(*chunk)
            for row in zip(*chunk):
                scalar.add(row[0], int(row[1]), float(row[2]), row[3], bool(row[4]))
        assert batched.is_full
        self._assert_buffers_identical(batched, scalar)

    def test_add_batch_larger_than_capacity_keeps_last_transitions(self):
        batched = ReplayBuffer(capacity=4, observation_shape=(2,))
        scalar = ReplayBuffer(capacity=4, observation_shape=(2,))
        chunk = self._batch_of(range(11))
        batched.add_batch(*chunk)
        for row in zip(*chunk):
            scalar.add(row[0], int(row[1]), float(row[2]), row[3], bool(row[4]))
        self._assert_buffers_identical(batched, scalar)

    def test_add_batch_empty_is_a_no_op(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        buffer.add_batch(*self._batch_of([]))
        assert len(buffer) == 0

    def test_add_batch_shape_validation(self):
        buffer = ReplayBuffer(capacity=4, observation_shape=(2,))
        with pytest.raises(ConfigurationError):
            buffer.add_batch(np.zeros((2, 3)), np.zeros(2), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            buffer.add_batch(np.zeros((2, 2)), np.zeros(2), np.zeros(3), np.zeros((2, 2)), np.zeros(2))

    @given(
        capacity=st.integers(min_value=1, max_value=12),
        chunks=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=17)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_add_and_add_batch_match_scalar_loop(self, capacity, chunks):
        """Property: any interleaving of add/add_batch == the all-scalar loop."""
        mixed = ReplayBuffer(capacity=capacity, observation_shape=(2,))
        scalar = ReplayBuffer(capacity=capacity, observation_shape=(2,))
        next_index = 0
        for use_batch, count in chunks:
            rows = self._batch_of(range(next_index, next_index + count))
            next_index += count
            for row in zip(*rows):
                scalar.add(row[0], int(row[1]), float(row[2]), row[3], bool(row[4]))
            if use_batch:
                mixed.add_batch(*rows)
            else:
                for row in zip(*rows):
                    mixed.add(row[0], int(row[1]), float(row[2]), row[3], bool(row[4]))
        self._assert_buffers_identical(mixed, scalar)


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.2)
        assert schedule(0) == schedule(10_000) == 0.2

    def test_linear_decay_endpoints(self):
        schedule = LinearDecay(start=1.0, end=0.1, decay_steps=100)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(50) == pytest.approx(0.55)
        assert schedule(100) == schedule(500) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinearDecay(start=1.5)
        with pytest.raises(ConfigurationError):
            ConstantSchedule(2.0)
        with pytest.raises(ConfigurationError):
            LinearDecay()(-1)

    @pytest.mark.parametrize(
        "schedule",
        [
            LinearDecay(start=1.0, end=0.05, decay_steps=100),
            ConstantSchedule(0.3),
        ],
    )
    def test_values_match_scalar_calls_exactly(self, schedule):
        """The vectorised form is elementwise-identical to per-step calls —
        the property batched exploration relies on."""
        steps = np.arange(0, 260)
        assert schedule.values(steps).tolist() == [schedule(int(s)) for s in steps]

    def test_linear_decay_under_batched_stepping(self):
        """A B-lane lockstep run assigns indices t..t+B-1 per step; epsilon at a
        given global transition count must not depend on the lane count."""
        schedule = LinearDecay(start=1.0, end=0.0, decay_steps=64)
        serial = [schedule(step) for step in range(96)]
        for lanes in (4, 8, 32):
            batched = []
            total = 0
            while total < 96:
                width = min(lanes, 96 - total)
                batched.extend(schedule.values(total + np.arange(width)).tolist())
                total += width
            assert batched == serial

    def test_values_rejects_negative_steps(self):
        with pytest.raises(ConfigurationError):
            LinearDecay().values(np.array([3, -1]))
        with pytest.raises(ConfigurationError):
            ConstantSchedule().values(np.array([-5]))


@pytest.fixture
def fast_config() -> DqnConfig:
    return DqnConfig(
        batch_size=16,
        buffer_capacity=2000,
        learning_starts=32,
        train_frequency=2,
        target_update_interval=100,
        epsilon_schedule=LinearDecay(start=1.0, end=0.1, decay_steps=500),
    )


class TestDqnConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            DqnConfig(gamma=1.0)
        with pytest.raises(TrainingError):
            DqnConfig(batch_size=0)
        with pytest.raises(TrainingError):
            DqnConfig(loss="l1")
        with pytest.raises(TrainingError):
            DqnConfig(target_update_interval=0)


class TestDqnTrainer:
    def test_networks_start_synchronised(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        x = np.random.default_rng(0).normal(size=(2,) + small_env.observation_space.shape)
        assert np.allclose(trainer.q_network.forward(x), trainer.target_network.forward(x))

    def test_greedy_action_in_range(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        obs = small_env.reset()
        action = trainer.greedy_action(obs)
        assert small_env.action_space.contains(action)

    def test_epsilon_one_explores(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        obs = small_env.reset()
        actions = {trainer.act(obs, epsilon=1.0) for _ in range(50)}
        assert len(actions) > 3

    def test_learn_on_batch_updates_parameters(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        obs = small_env.reset()
        for _ in range(40):
            result = small_env.step(small_env.action_space.sample(rng=0))
            trainer.replay.add(obs, 0, result.reward, result.observation, result.terminated)
            obs = result.observation
            if result.terminated or result.truncated:
                obs = small_env.reset()
        before = trainer.q_network.state_dict()
        loss = trainer.learn_on_batch(trainer.replay.sample(16, rng=0))
        assert np.isfinite(loss)
        after = trainer.q_network.state_dict()
        assert any(not np.allclose(before[name], after[name]) for name in before)

    def test_sync_target_network(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        trainer.q_network.parameters()[0].data += 1.0
        trainer.sync_target_network()
        assert np.allclose(
            trainer.q_network.parameters()[0].data, trainer.target_network.parameters()[0].data
        )

    def test_td_targets_use_terminal_mask(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        obs_shape = small_env.observation_space.shape
        batch = Transition(
            observations=np.zeros((2,) + obs_shape),
            actions=np.array([0, 1]),
            rewards=np.array([1.0, 1.0]),
            next_observations=np.zeros((2,) + obs_shape),
            dones=np.array([1.0, 0.0]),
        )
        targets = trainer.compute_td_targets(batch, trainer.target_network)
        assert targets[0] == pytest.approx(1.0)
        next_q = trainer.target_network.forward(batch.next_observations)
        assert targets[1] == pytest.approx(1.0 + trainer.config.gamma * next_q[1].max())

    def test_short_training_run_populates_history(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        history = trainer.train(5)
        assert history.num_episodes == 5
        assert history.total_steps > 0
        assert len(history.episode_successes) == 5

    def test_invalid_num_episodes(self, small_env, fast_config):
        trainer = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        with pytest.raises(TrainingError):
            trainer.train(0)


class TestTrainingHistory:
    def test_success_rate_window(self):
        history = TrainingHistory(episode_successes=[True, False, True, True])
        assert history.success_rate() == pytest.approx(0.75)
        assert history.success_rate(window=2) == pytest.approx(1.0)
        assert TrainingHistory().success_rate() == 0.0

    def test_mean_reward(self):
        history = TrainingHistory(episode_rewards=[1.0, 3.0])
        assert history.mean_reward() == pytest.approx(2.0)

    def test_non_positive_window_rejected(self):
        """Regression: window=0 used to silently mean "all episodes" (falsy)."""
        history = TrainingHistory(
            episode_successes=[True, False], episode_rewards=[1.0, 3.0]
        )
        with pytest.raises(TrainingError):
            history.success_rate(window=0)
        with pytest.raises(TrainingError):
            history.mean_reward(window=0)
        with pytest.raises(TrainingError):
            history.success_rate(window=-3)
        # None keeps the documented "all episodes" meaning.
        assert history.success_rate(window=None) == pytest.approx(0.5)
        assert history.mean_reward(window=None) == pytest.approx(2.0)


class TestEvaluation:
    def test_greedy_policy_matches_argmax(self, tiny_network):
        observations = np.random.default_rng(0).normal(size=(8, 6))
        actions = GreedyPolicy(tiny_network)(observations, np.arange(8))
        q_values = tiny_network.forward(observations)
        assert actions.tolist() == np.argmax(q_values, axis=1).tolist()

    def test_from_results_no_successes_gives_nan_path(self):
        from repro.envs.vector import EpisodeResult, mean_path_length

        failed = [
            EpisodeResult(success=False, collision=True, steps=5, path_length_m=2.5, total_reward=-10.0),
            EpisodeResult(success=False, collision=False, steps=30, path_length_m=14.0, total_reward=-1.5),
        ]
        evaluation = PolicyEvaluation.from_results(failed)
        # Consistent with mean_path_length(successful_only=True): NaN, never a
        # silent fallback to the failed episodes' path lengths.
        assert np.isnan(evaluation.mean_path_length_m)
        assert np.isnan(mean_path_length(failed))
        assert evaluation.success_rate == 0.0
        assert evaluation.collision_rate == pytest.approx(0.5)

    def test_from_results_averages_successful_paths_only(self):
        from repro.envs.vector import EpisodeResult

        mixed = [
            EpisodeResult(success=True, collision=False, steps=10, path_length_m=8.0, total_reward=9.0),
            EpisodeResult(success=True, collision=False, steps=12, path_length_m=10.0, total_reward=8.5),
            EpisodeResult(success=False, collision=True, steps=3, path_length_m=1.0, total_reward=-10.0),
        ]
        evaluation = PolicyEvaluation.from_results(mixed)
        assert evaluation.mean_path_length_m == pytest.approx(9.0)
        assert evaluation.num_episodes == 3

    def test_from_results_empty_rejected(self):
        with pytest.raises(ValueError):
            PolicyEvaluation.from_results([])

    def test_evaluate_policy_summary(self, small_env, tiny_network):
        # tiny_network has the wrong observation size for small_env; build a matching one.
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        evaluation = evaluate_policy(small_env, network, num_episodes=4, rng=0)
        assert isinstance(evaluation, PolicyEvaluation)
        assert evaluation.num_episodes == 4
        assert 0.0 <= evaluation.success_rate <= 1.0

    @pytest.mark.parametrize("num_episodes", [0, -1])
    def test_evaluate_policy_rejects_fewer_than_one_episode(self, small_env, num_episodes):
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        with pytest.raises(ConfigurationError):
            evaluate_policy(small_env, network, num_episodes=num_episodes, rng=0)

    def test_evaluate_under_faults_rejects_zero_episodes_per_map(self, small_env, monkeypatch):
        """A map that flies no mission has no success rate (it used to read 0%);
        the count is rejected before any fault map is drawn."""
        from repro.faults.fault_map import FaultMap
        from repro.nn.policies import build_policy

        def draw(*args, **kwargs):
            raise AssertionError("a fault map was drawn")

        monkeypatch.setattr(FaultMap, "random", draw)
        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        with pytest.raises(ConfigurationError):
            evaluate_under_faults(
                small_env, network, ber_percent=1.0, num_fault_maps=3, episodes_per_map=0
            )

    @pytest.mark.parametrize(
        "maps",
        [{"num_fault_maps": 0}, {"num_fault_maps": -2}, {"fault_maps": []}],
        ids=["zero-maps", "negative-maps", "empty-map-list"],
    )
    def test_evaluate_under_faults_rejects_fewer_than_one_fault_map(
        self, small_env, monkeypatch, maps
    ):
        """A configuration error, raised before the injector is built or any
        generator is spawned."""
        import repro.rl.evaluation as evaluation
        from repro.nn.policies import build_policy

        def refuse(*args, **kwargs):
            raise AssertionError("evaluation started before the map count was checked")

        monkeypatch.setattr(evaluation.BitErrorInjector, "for_network", refuse)
        monkeypatch.setattr(evaluation, "spawn_generators", refuse)
        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        with pytest.raises(ConfigurationError):
            evaluate_under_faults(small_env, network, ber_percent=1.0, **maps)

    def test_one_episode_evaluation_leaves_env_untouched(self, small_env):
        """A one-episode evaluation flies on its own lane like any other, so
        the caller's env keeps its position, clock and RNG state, and the
        episode is the serial reference's."""
        from repro.envs.navigation import NavigationEnv
        from repro.envs.vector import run_episode
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        small_env.reset(seed=5)
        small_env.step(0)
        position, time_s = small_env.position, small_env.time_s
        rng_state = small_env._rng.bit_generator.state
        evaluation = evaluate_policy(small_env, network, num_episodes=1, rng=0)
        assert np.array_equal(small_env.position, position)
        assert small_env.time_s == time_s
        assert small_env._rng.bit_generator.state == rng_state
        reset_base = int(np.random.default_rng(0).integers(0, 2**31 - 2))
        serial = run_episode(
            NavigationEnv(small_env.config, rng=3), GreedyPolicy(network), reset_seed=reset_base
        )
        assert evaluation.success_rate == serial.success
        assert evaluation.collision_rate == serial.collision
        assert evaluation.mean_steps == serial.steps
        assert evaluation.mean_reward == serial.total_reward

    def test_evaluate_under_faults_zero_ber_matches_quantized_policy(self, small_env):
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        point = evaluate_under_faults(
            small_env, network, ber_percent=0.0, num_fault_maps=2, episodes_per_map=2, rng=0
        )
        assert point.num_fault_maps == 2
        assert 0.0 <= point.success_rate <= 1.0
        assert point.success_rate_std >= 0.0

    def test_evaluate_under_faults_with_explicit_maps(self, small_env):
        from repro.faults.fault_map import FaultMap
        from repro.faults.injection import BitErrorInjector
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        injector = BitErrorInjector.for_network(network)
        maps = [FaultMap.random(injector.memory_bits, 0.001, rng=i) for i in range(2)]
        point = evaluate_under_faults(
            small_env, network, ber_percent=0.1, fault_maps=maps, episodes_per_map=1, rng=0
        )
        assert point.num_fault_maps == 2
        assert len(point.per_map_success_rates) == 2

    def test_robustness_curve_keys(self, small_env):
        from repro.nn.policies import build_policy

        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        curve = robustness_curve(
            small_env, network, [0.1, 1.0], num_fault_maps=2, episodes_per_map=1, rng=0
        )
        assert set(curve) == {0.1, 1.0}


def _same_point(merged, reference) -> bool:
    """Field-for-field equality of two ``RobustnessPoint``s, NaN equal to NaN."""
    for field in dataclasses.fields(merged):
        got, want = getattr(merged, field.name), getattr(reference, field.name)
        both_nan = isinstance(got, float) and math.isnan(got) and math.isnan(want)
        if not both_nan and got != want:
            return False
    return True


@pytest.fixture(scope="module")
def fault_policy():
    """The navigation config and a briefly trained FAST policy (~0.3 s):
    under 1% BER some missions survive and some do not."""
    from repro.envs.navigation import NavigationEnv
    from repro.envs.obstacles import ObstacleDensity
    from repro.experiments.profiles import FAST_PROFILE

    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.MEDIUM)
    trainer = DqnTrainer(
        NavigationEnv(config, rng=7),
        policy_spec=FAST_PROFILE.policy_spec,
        config=FAST_PROFILE.dqn,
        rng=0,
    )
    trainer.train(120)
    return config, trainer.q_network


class TestMergedFaultRollout:
    """``evaluate_under_faults`` flies a wave of maps in one rollout; every
    map's episodes must be those of the per-map loop it replaced."""

    @pytest.mark.parametrize(
        "num_maps, episodes_per_map",
        [(1, 1), (1, 4), (8, 1), (8, 4), (256, 1), (256, 4), (2, 65)],
    )
    def test_matches_the_per_map_protocol(
        self, fault_policy, per_map_fault_protocol, num_maps, episodes_per_map
    ):
        from repro.envs.navigation import NavigationEnv

        config, network = fault_policy
        merged = evaluate_under_faults(
            NavigationEnv(config, rng=7),
            network,
            ber_percent=1.0,
            num_fault_maps=num_maps,
            episodes_per_map=episodes_per_map,
            rng=0,
        )
        reference = per_map_fault_protocol(
            NavigationEnv(config, rng=7), network, 1.0, num_maps, episodes_per_map, rng=0
        )
        assert _same_point(merged, reference), (merged, reference)
        if num_maps * episodes_per_map > 1:
            assert 0.0 < merged.success_rate < 1.0

    def test_per_map_policy_acts_as_each_map_alone(self, fault_policy):
        """Rows in any order, maps with different row counts: each row's
        action is its map's greedy action over that map's rows."""
        _, network = fault_policy
        rng = np.random.default_rng(5)
        networks = []
        for _ in range(6):
            networks.append(network.clone())
            networks[-1].load_state_dict(
                {
                    name: values + rng.normal(scale=0.05, size=values.shape)
                    for name, values in network.state_dict().items()
                }
            )
        policy = PerMapGreedyPolicy(networks, episodes_per_map=3)
        for _ in range(20):
            episodes = rng.choice(18, size=int(rng.integers(1, 19)), replace=False)
            observations = rng.normal(size=(episodes.size, network.input_shape[0]))
            actions = policy(observations, episodes)
            for index in np.unique(episodes // 3):
                rows = np.nonzero(episodes // 3 == index)[0]
                expected = GreedyPolicy(networks[index])(observations[rows], episodes[rows])
                assert actions[rows].tolist() == expected.tolist()

    def test_c3f2_on_images_matches_the_per_map_protocol(self, per_map_fault_protocol):
        """A convolutional policy on image observations flies its maps in one
        wave too, with the per-map loop's results."""
        from dataclasses import replace

        from repro.envs.navigation import NavigationEnv
        from repro.envs.sensors import OccupancyImager
        from repro.experiments.profiles import FAST_PROFILE
        from repro.nn.policies import build_policy, c3f2

        config = replace(
            FAST_PROFILE.navigation,
            observation="image",
            imager=OccupancyImager(image_size=16),
            max_steps=12,
        )
        env = NavigationEnv(config, rng=7)
        network = build_policy(
            c3f2(width_multiplier=0.125), env.observation_space.shape, env.action_space.n, rng=0
        )
        merged = evaluate_under_faults(
            env, network, ber_percent=1.0, num_fault_maps=2, episodes_per_map=1, rng=0
        )
        reference = per_map_fault_protocol(
            NavigationEnv(config, rng=7), network, 1.0, 2, 1, rng=0
        )
        assert _same_point(merged, reference), (merged, reference)


@pytest.fixture(scope="module")
def policy_pair(fault_policy):
    """The navigation config and two briefly trained FAST policies (the
    ``fault_policy`` one and a second from another seed)."""
    from repro.envs.navigation import NavigationEnv
    from repro.experiments.profiles import FAST_PROFILE

    config, first = fault_policy
    trainer = DqnTrainer(
        NavigationEnv(config, rng=7),
        policy_spec=FAST_PROFILE.policy_spec,
        config=FAST_PROFILE.dqn,
        rng=1,
    )
    trainer.train(120)
    return config, first, trainer.q_network


def _same_result(got, want) -> bool:
    """Field-for-field equality of two evaluation results, NaN equal to NaN."""
    return type(got) is type(want) and _same_point(got, want)


def _lone(env, request):
    """``request`` flown by the lone call that takes its arguments."""
    from repro.rl.evaluation import PolicyRequest

    if isinstance(request, PolicyRequest):
        return evaluate_policy(env, request.network, request.num_episodes, rng=request.rng)
    return evaluate_under_faults(
        env,
        request.network,
        request.ber_percent,
        num_fault_maps=request.num_fault_maps,
        episodes_per_map=request.episodes_per_map,
        fault_maps=request.fault_maps,
        stuck_at_1_bias=request.stuck_at_1_bias,
        rng=request.rng,
    )


class TestEvaluateMany:
    """``evaluate_many`` flies wave i of every request in one rollout; each
    result must equal its lone call's, whatever else flies beside it."""

    @pytest.fixture(scope="class")
    def mixed_requests(self, policy_pair):
        """Error-free runs at N in {1, 20, 70} (70 refills its lanes), fault
        runs at E in {1, 4, 65} (65 refills), random and explicit maps, two
        waves for E in {1, 4, 65}."""
        from repro.faults.fault_map import FaultMap
        from repro.faults.injection import BitErrorInjector
        from repro.rl.evaluation import FaultRequest, PolicyRequest

        _, first, second = policy_pair
        bits = BitErrorInjector.for_network(first).memory_bits
        explicit = [FaultMap.random(bits, 0.01, rng=seed) for seed in range(3)]
        return [
            PolicyRequest(first, 1, rng=1),
            FaultRequest(first, 1.0, num_fault_maps=70, episodes_per_map=1, rng=2),
            PolicyRequest(second, 20, rng=3),
            FaultRequest(second, 1.0, num_fault_maps=20, episodes_per_map=4, rng=4),
            PolicyRequest(first, 70, rng=5),
            FaultRequest(second, 1.0, num_fault_maps=2, episodes_per_map=65, rng=6),
            FaultRequest(first, 1.0, fault_maps=explicit, episodes_per_map=4, rng=7),
        ]

    @pytest.fixture(scope="class")
    def lone_results(self, policy_pair, mixed_requests):
        from repro.envs.navigation import NavigationEnv

        config = policy_pair[0]
        return [_lone(NavigationEnv(config, rng=7), request) for request in mixed_requests]

    def test_each_result_equals_its_lone_call(self, policy_pair, mixed_requests, lone_results):
        from repro.envs.navigation import NavigationEnv
        from repro.rl.evaluation import evaluate_many

        results = evaluate_many(NavigationEnv(policy_pair[0], rng=7), mixed_requests)
        assert len(results) == len(mixed_requests)
        for got, want in zip(results, lone_results):
            assert _same_result(got, want), (got, want)
        for result in results[1:]:
            assert 0.0 < result.success_rate < 1.0

    def test_random_maps_equal_the_per_map_protocol(
        self, policy_pair, mixed_requests, lone_results, per_map_fault_protocol
    ):
        from repro.envs.navigation import NavigationEnv
        from repro.rl.evaluation import FaultRequest

        config = policy_pair[0]
        for request, lone in zip(mixed_requests, lone_results):
            if isinstance(request, FaultRequest) and request.fault_maps is None:
                reference = per_map_fault_protocol(
                    NavigationEnv(config, rng=7),
                    request.network,
                    request.ber_percent,
                    request.num_fault_maps,
                    request.episodes_per_map,
                    rng=request.rng,
                )
                assert _same_point(lone, reference), (lone, reference)

    def test_request_order_changes_no_result(self, policy_pair, mixed_requests, lone_results):
        from repro.envs.navigation import NavigationEnv
        from repro.rl.evaluation import evaluate_many

        order = np.random.default_rng(3).permutation(len(mixed_requests))
        results = evaluate_many(
            NavigationEnv(policy_pair[0], rng=7), [mixed_requests[index] for index in order]
        )
        for index, got in zip(order, results):
            assert _same_result(got, lone_results[index]), (index, got)

    def test_refilling_requests_fly_in_the_shared_rollout(
        self, policy_pair, mixed_requests, monkeypatch
    ):
        """N = 70 and two maps at E = 65 refill their lanes; they fly beside
        an N = 20 run on one batched env, one rollout per wave, and each
        block's forwards get the rows of its lone call, step by step."""
        import repro.rl.evaluation as evaluation
        from repro.envs.batch import BatchedNavigationEnv
        from repro.envs.navigation import NavigationEnv

        built, rollouts = [], []

        class CountedEnv(BatchedNavigationEnv):
            def __init__(self, env, batch_size):
                built.append(batch_size)
                super().__init__(env, batch_size)

        class RecordedPolicy(evaluation.PerMapGreedyPolicy):
            """Records, per block, the block's own episode of each row of each step."""

            def __init__(self, networks, episodes_per_map):
                super().__init__(networks, episodes_per_map)
                self.firsts = np.searchsorted(self.episode_networks, np.arange(len(networks)))
                self.rows = [[] for _ in networks]
                rollouts.append(self.rows)

            def __call__(self, observations, episodes):
                blocks = self.episode_networks[episodes]
                for block in np.unique(blocks):
                    self.rows[block].append((episodes[blocks == block] - self.firsts[block]).tolist())
                return super().__call__(observations, episodes)

        monkeypatch.setattr(evaluation, "BatchedNavigationEnv", CountedEnv)
        monkeypatch.setattr(evaluation, "PerMapGreedyPolicy", RecordedPolicy)
        config = policy_pair[0]
        lone_results, lone_rollouts = [], []
        requests = [mixed_requests[index] for index in (4, 5, 2)]  # N = 70, 2 maps x E = 65, N = 20
        for request in requests:
            lone_results.append(_lone(NavigationEnv(config, rng=7), request))
            lone_rollouts.append(rollouts[:])
            built.clear()
            rollouts.clear()
        results = evaluation.evaluate_many(NavigationEnv(config, rng=7), requests)
        assert built == [64 + 64 + 20]
        # Wave 0 flies all three requests, wave 1 the second E = 65 map.
        (n70,), (e65_map0, e65_map1), (n20,) = lone_rollouts
        assert rollouts == [n70 + e65_map0 + n20, e65_map1]
        for got, want in zip(results, lone_results):
            assert _same_result(got, want), (got, want)

    def test_requests_sharing_a_generator_draw_as_sequential_calls(self, policy_pair):
        from repro.envs.navigation import NavigationEnv
        from repro.rl.evaluation import FaultRequest, PolicyRequest, evaluate_many

        config, first, second = policy_pair

        def requests(generator):
            return [
                FaultRequest(first, 1.0, num_fault_maps=4, episodes_per_map=4, rng=generator),
                PolicyRequest(second, 8, rng=generator),
                FaultRequest(second, 1.0, num_fault_maps=4, episodes_per_map=4, rng=generator),
                PolicyRequest(first, 8, rng=generator),
            ]

        shared = np.random.default_rng(9)
        merged = evaluate_many(NavigationEnv(config, rng=7), requests(shared))
        sequential = np.random.default_rng(9)
        env = NavigationEnv(config, rng=7)
        lone = [_lone(env, request) for request in requests(sequential)]
        for got, want in zip(merged, lone):
            assert _same_result(got, want), (got, want)
        assert shared.bit_generator.state == sequential.bit_generator.state

    def test_table1_equals_the_per_cell_loop(self, policy_pair):
        """One call for both schemes' error-free and BER cells gives the
        table of one call per cell."""
        from dataclasses import replace
        from types import SimpleNamespace

        from repro.envs.navigation import NavigationEnv
        from repro.experiments.profiles import FAST_PROFILE
        from repro.experiments.table1 import TrainedPolicies, measure_table1_with_training
        from repro.utils.tables import Table

        config, first, second = policy_pair
        env = NavigationEnv(config, rng=7)
        profile = replace(FAST_PROFILE, num_fault_maps=3, episodes_per_map=2, eval_episodes=10)
        ber_levels = (1.0, 0.5, 3.0)
        seed = 4
        policies = TrainedPolicies(
            classical=SimpleNamespace(q_network=first),
            berry=SimpleNamespace(q_network=second),
            environment=env,
        )
        # The per-cell loop: one evaluate_policy / evaluate_under_faults call per cell.
        expected = Table(
            title="Table I (measured, reduced scale): success rate under bit errors",
            columns=["scheme", "error_free_pct"] + [f"p={p:g}%" for p in ber_levels],
        )
        for name, trainer in (("classical", policies.classical), ("berry", policies.berry)):
            error_free = evaluate_policy(env, trainer.q_network, profile.eval_episodes, rng=seed + 1)
            row = {"scheme": name, "error_free_pct": 100.0 * error_free.success_rate}
            for ber in ber_levels:
                point = evaluate_under_faults(
                    env,
                    trainer.q_network,
                    ber_percent=float(ber),
                    num_fault_maps=profile.num_fault_maps,
                    episodes_per_map=profile.episodes_per_map,
                    rng=seed + 2,
                )
                row[f"p={ber:g}%"] = 100.0 * point.success_rate
            expected.add_row(**row)
        table = measure_table1_with_training(ber_levels, profile, seed=seed, policies=policies)
        assert table.to_jsonable() == expected.to_jsonable()

    def test_robustness_curve_fingerprints_the_network_once(self, small_env, monkeypatch):
        """Every level of a curve shares one quantization, so the parameters
        are hashed once per call, not once per level."""
        import repro.faults.injection as injection
        from repro.nn.policies import build_policy

        hashed = []
        fingerprint = injection.state_fingerprint
        monkeypatch.setattr(
            injection, "state_fingerprint", lambda state: hashed.append(1) or fingerprint(state)
        )
        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        curve = robustness_curve(
            small_env, network, [0.1, 1.0, 3.0], num_fault_maps=2, episodes_per_map=1, rng=0
        )
        assert set(curve) == {0.1, 1.0, 3.0}
        assert len(hashed) == 1

    def test_a_bad_request_anywhere_fails_before_any_map_is_drawn(self, small_env, monkeypatch):
        from repro.faults.fault_map import FaultMap
        from repro.faults.injection import BitErrorInjector
        from repro.nn.policies import build_policy
        from repro.rl.evaluation import FaultRequest, PolicyRequest, evaluate_many

        def draw(*args, **kwargs):
            raise AssertionError("a fault map was drawn")

        monkeypatch.setattr(FaultMap, "random", draw)
        network = build_policy(mlp((16,)), small_env.observation_space.shape, small_env.action_space.n, rng=0)
        too_small = FaultMap.empty(BitErrorInjector.for_network(network).memory_bits - 1)
        good = FaultRequest(network, 1.0, num_fault_maps=2, episodes_per_map=1)
        for bad in (
            PolicyRequest(network, 0),
            FaultRequest(network, 1.0, num_fault_maps=0),
            None,
            FaultRequest(network, 150.0),
            FaultRequest(network, 1.0, stuck_at_1_bias=1.5),
            FaultRequest(network, 1.0, fault_maps=[too_small]),
        ):
            with pytest.raises(ConfigurationError):
                evaluate_many(small_env, [good, bad])
        assert evaluate_many(small_env, []) == []

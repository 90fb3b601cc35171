"""Tests for the lockstep batched training core (``repro.rl.collect``).

The load-bearing property mirrors PR 4's rollout contract, now for *training*:
``DqnTrainer.train`` at ``train_lanes=1`` reproduces the pre-refactor scalar
loop (kept as ``train_serial``) bitwise — same RNG stream consumption, same
replay buffer contents, same ``TrainingHistory``, same final Q-network and
target-network weights — for the classical trainer and for BERRY's perturbed
pass.  That equivalence is what makes the batched collector a refactor of the
training stack rather than a second, subtly different trainer.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.berry import BerryConfig, BerryTrainer
from repro.envs.batch import BatchedNavigationEnv, LaneEpisodeFeed
from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.sensors import RaySensor
from repro.errors import ConfigurationError, TrainingError
from repro.nn.policies import build_policy, mlp
from repro.rl.collect import LockstepCollector
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import ConstantSchedule, LinearDecay
from repro.utils.rng import spawn_generators


@pytest.fixture
def train_env_config() -> NavigationConfig:
    """A small scenario with start noise so episodes differ within one world."""
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


TRAIN_CONFIG = DqnConfig(
    batch_size=16,
    buffer_capacity=500,
    learning_starts=32,
    train_frequency=2,
    target_update_interval=50,
    epsilon_schedule=LinearDecay(start=1.0, end=0.1, decay_steps=200),
)


def _dqn_trainer(config, lanes=1, env_seed=3, rng=7):
    return DqnTrainer(
        NavigationEnv(config, rng=env_seed),
        policy_spec=mlp((16,)),
        config=replace(TRAIN_CONFIG, train_lanes=lanes),
        rng=rng,
    )


def _berry_trainer(config, lanes=1, env_seed=3, rng=7):
    return BerryTrainer(
        NavigationEnv(config, rng=env_seed),
        policy_spec=mlp((16,)),
        config=replace(TRAIN_CONFIG, train_lanes=lanes),
        berry=BerryConfig(ber_percent=1.0),
        rng=rng,
    )


def _assert_trainers_identical(a, b):
    """Weights, target weights, replay ring and history must match bitwise."""
    state_a, state_b = a.q_network.state_dict(), b.q_network.state_dict()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name
    target_a, target_b = a.target_network.state_dict(), b.target_network.state_dict()
    for name in target_a:
        assert np.array_equal(target_a[name], target_b[name]), name
    assert len(a.replay) == len(b.replay)
    assert a.replay._cursor == b.replay._cursor
    assert np.array_equal(a.replay._observations, b.replay._observations)
    assert np.array_equal(a.replay._next_observations, b.replay._next_observations)
    assert np.array_equal(a.replay._actions, b.replay._actions)
    assert np.array_equal(a.replay._rewards, b.replay._rewards)
    assert np.array_equal(a.replay._dones, b.replay._dones)
    assert a.history == b.history


class TestSerialEquivalence:
    def test_b1_dqn_matches_serial_reference(self, train_env_config):
        serial = _dqn_trainer(train_env_config)
        serial.train_serial(8)
        batched = _dqn_trainer(train_env_config)
        batched.train(8)
        assert serial.history.gradient_steps > 0
        _assert_trainers_identical(serial, batched)

    def test_b1_berry_matches_serial_reference(self, train_env_config):
        serial = _berry_trainer(train_env_config)
        serial.train_serial(8)
        batched = _berry_trainer(train_env_config)
        batched.train(8)
        assert serial.num_injections > 0
        assert serial.num_injections == batched.num_injections
        _assert_trainers_identical(serial, batched)

    def test_b1_matches_across_repeated_train_calls(self, train_env_config):
        """The on-device pattern: many train(1) calls share one RNG stream."""
        serial = _dqn_trainer(train_env_config)
        batched = _dqn_trainer(train_env_config)
        for _ in range(5):
            serial.train_serial(1)
            batched.train(1)
        _assert_trainers_identical(serial, batched)


class TestMultiLaneTraining:
    @pytest.mark.parametrize("lanes", [4, 16])
    def test_deterministic_in_seed_and_lanes(self, train_env_config, lanes):
        first = _dqn_trainer(train_env_config, lanes=lanes)
        first.train(12)
        second = _dqn_trainer(train_env_config, lanes=lanes)
        second.train(12)
        _assert_trainers_identical(first, second)

    def test_episode_accounting(self, train_env_config):
        trainer = _dqn_trainer(train_env_config, lanes=4)
        history = trainer.train(10)
        assert history.num_episodes == 10
        assert history.total_steps == sum(history.episode_lengths)
        assert len(trainer.replay) == min(history.total_steps, trainer.replay.capacity)
        assert history.gradient_steps > 0

    def test_lanes_capped_at_num_episodes(self, train_env_config):
        trainer = _dqn_trainer(train_env_config, lanes=64)
        history = trainer.train(3)
        assert history.num_episodes == 3

    def test_berry_injections_track_gradient_steps(self, train_env_config):
        trainer = _berry_trainer(train_env_config, lanes=4)
        trainer.train(10)
        assert trainer.num_injections > 0
        assert trainer.num_injections == trainer.history.gradient_steps

    def test_gradient_budget_matches_serial_cadence(self, train_env_config):
        """B lanes keep the serial updates-per-transition budget."""
        config = replace(
            TRAIN_CONFIG, learning_starts=16, epsilon_schedule=ConstantSchedule(0.1)
        )
        serial = DqnTrainer(
            NavigationEnv(train_env_config, rng=3),
            policy_spec=mlp((16,)),
            config=config,
            rng=7,
        )
        serial.train(12)
        batched = DqnTrainer(
            NavigationEnv(train_env_config, rng=3),
            policy_spec=mlp((16,)),
            config=replace(config, train_lanes=4),
            rng=7,
        )
        batched.train(12)
        for trainer in (serial, batched):
            threshold = max(config.learning_starts, config.batch_size)
            expected = (trainer.history.total_steps - threshold) // config.train_frequency
            assert abs(trainer.history.gradient_steps - expected) <= threshold

    def test_train_lanes_validation(self):
        with pytest.raises(TrainingError):
            DqnConfig(train_lanes=0)
        with pytest.raises(TrainingError):
            DqnConfig(train_lanes=-2)

    @pytest.mark.parametrize("evaluate", ["policy", "faults"])
    def test_evaluation_between_train_calls_changes_nothing(self, evaluate):
        """Evaluation resets every lane with an explicit seed, so it must not
        advance the env's SeedSequence that later multi-lane training spawns
        its lane streams from."""
        from repro.experiments.profiles import FAST_PROFILE
        from repro.rl.evaluation import evaluate_policy, evaluate_under_faults

        assert FAST_PROFILE.dqn.train_lanes > 1

        def train(evaluate_between):
            env = NavigationEnv(FAST_PROFILE.navigation, rng=3)
            trainer = DqnTrainer(
                env, policy_spec=FAST_PROFILE.policy_spec, config=FAST_PROFILE.dqn, rng=7
            )
            trainer.train(20)
            if evaluate_between and evaluate == "policy":
                evaluate_policy(env, trainer.q_network, 4)
            elif evaluate_between:
                evaluate_under_faults(
                    env, trainer.q_network, 1.0, num_fault_maps=2, episodes_per_map=2
                )
            trainer.train(20)
            return trainer

        _assert_trainers_identical(train(False), train(True))


class TestLockstepCollector:
    def _collector(self, config, lanes, num_episodes, schedule=None):
        env = NavigationEnv(config, rng=3)
        batch_env = BatchedNavigationEnv(
            env, batch_size=lanes, share_rng=lanes == 1
        )
        network = build_policy(
            mlp((16,)), env.observation_space.shape, env.action_space.n, rng=0
        )
        return LockstepCollector(
            batch_env,
            network,
            schedule or ConstantSchedule(0.0),
            spawn_generators(11, lanes),
            num_episodes,
        )

    def test_epsilon_is_a_function_of_the_global_count(self, train_env_config):
        """B-lane steps index the schedule by global transition count."""
        schedule = LinearDecay(start=1.0, end=0.0, decay_steps=64)
        collector = self._collector(train_env_config, 4, 12, schedule=schedule)
        seen = []
        total = 0
        while collector.collecting:
            step_batch = collector.collect(total)
            seen.extend(step_batch.epsilons.tolist())
            total += step_batch.num_transitions
        assert seen == [schedule(step) for step in range(total)]

    def test_transitions_are_row_aligned(self, train_env_config):
        collector = self._collector(train_env_config, 3, 6)
        step_batch = collector.collect(0)
        k = step_batch.num_transitions
        assert 0 < k <= 3
        assert step_batch.observations.shape[0] == k
        assert step_batch.next_observations.shape == step_batch.observations.shape
        assert step_batch.rewards.shape == (k,)
        assert step_batch.dones.shape == (k,)
        assert set(np.unique(step_batch.dones)).issubset({0.0, 1.0})

    def test_collect_drains_exactly_the_episode_budget(self, train_env_config):
        collector = self._collector(train_env_config, 4, 7)
        episodes = []
        total = 0
        while collector.collecting:
            step_batch = collector.collect(total)
            total += step_batch.num_transitions
            episodes.extend(episode for episode, _ in step_batch.finished)
        assert sorted(episodes) == list(range(7))
        with pytest.raises(TrainingError):
            collector.collect(total)

    def test_stream_count_must_match_lanes(self, train_env_config):
        env = BatchedNavigationEnv(NavigationEnv(train_env_config, rng=3), 4)
        network = build_policy(mlp((16,)), env.observation_space.shape, env.action_space.n, rng=0)
        with pytest.raises(TrainingError):
            LockstepCollector(
                env, network, ConstantSchedule(0.0), spawn_generators(0, 2), 4
            )


class TestLaneEpisodeFeed:
    def test_one_reset_of_several_lanes_equals_one_reset_per_lane(self, train_env_config):
        """A feed restarts every finished lane through one ``reset_lanes``
        call; it must replay the per-lane draws of one reset per lane, for
        seeded resets and for lanes that continue their own streams."""
        lanes = [0, 2, 3]

        def run(seeds, together: bool):
            env = BatchedNavigationEnv(
                NavigationEnv(train_env_config, rng=3), batch_size=4
            )
            env.reset_lanes([0, 1, 2, 3], [80, 81, 82, 83])
            if together:
                observations = env.reset_lanes(lanes, seeds)
            else:
                observations = np.concatenate(
                    [env.reset_lanes([lane], [seed]) for lane, seed in zip(lanes, seeds)]
                )
            following = env.reset_lanes(lanes)
            return observations, following, env._positions.copy()

        for seeds in ([90, 92, 93], [None, None, None]):
            for together, apart in zip(run(seeds, True), run(seeds, False)):
                assert np.array_equal(together, apart)

    def test_drained_feed_reports_each_episode_once_and_leaves_lanes_done(
        self, train_env_config
    ):
        env = BatchedNavigationEnv(
            NavigationEnv(train_env_config, rng=3), batch_size=2
        )
        feed = LaneEpisodeFeed(env, 5, reset_seeds=range(5))
        straight = env.action_space.n // 2
        episodes = []
        while feed.active_lanes.size:
            actions = np.full(feed.active_lanes.size, straight, dtype=np.int64)
            episodes.extend(episode for episode, _ in feed.advance(actions)[1])
        assert sorted(episodes) == list(range(5))
        assert env.done.all()
        assert (feed.lane_episode == -1).all()

    def test_share_rng_validation(self, train_env_config):
        env = NavigationEnv(train_env_config, rng=3)
        with pytest.raises(ConfigurationError):
            BatchedNavigationEnv(env, batch_size=2, share_rng=True)

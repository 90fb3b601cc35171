"""Benchmark: serial vs lockstep-batched episode rollouts.

The batched core executes B episodes in lockstep — one policy forward, one
batched ray query and one batched segment check per step for the whole batch
— where the serial loop pays python/numpy dispatch per episode-step.  Both
paths produce bit-identical ``EpisodeResult`` lists under per-episode reset
seeds, so the two benchmark groups measure the same work.

``test_batched_speedup_at_b64`` is the acceptance gate: >= 5x episodes/sec
on the batched path at B = 64, from the best serial and the best batched
time over three interleaved (serial, batched) pairs (the root conftest's
``time_pairs``).  The fault-protocol group measures the paper's
many-fault-maps evaluation (quantize-once + batched missions vs
single-lane).
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.envs.batch import BatchedNavigationEnv, run_batched_episodes
from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.vector import run_episode
from repro.experiments.profiles import FAST_PROFILE
from repro.nn.policies import build_policy, mlp
from repro.rl.evaluation import evaluate_under_faults, greedy_policy
from repro.worlds.spec import WorldSpec

NUM_EPISODES = 64
RESET_SEED = 100


def _policy_for(env: NavigationEnv):
    network = build_policy(
        mlp((48, 48)), env.observation_space.shape, env.action_space.n, rng=0
    )
    return greedy_policy(network)


@pytest.fixture(scope="module", params=["sparse", "medium", "dense"])
def rollout_setup(request):
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity(request.param))
    serial_env = NavigationEnv(config, rng=7)
    batched_env = BatchedNavigationEnv.from_env(
        NavigationEnv(config, rng=7), batch_size=NUM_EPISODES
    )
    return request.param, serial_env, batched_env, _policy_for(serial_env)


def _run_serial(env, policy):
    return [
        run_episode(env, policy, reset_seed=RESET_SEED + index)
        for index in range(NUM_EPISODES)
    ]


def _run_batched(env, policy):
    return run_batched_episodes(env, policy, NUM_EPISODES, reset_seed=RESET_SEED)


#: Interleaved (serial, batched) pairs timed by the speed-up gates.
SPEEDUP_PAIRS = 3


def _best_seconds(time_pairs, serial_env, batched_env, policy):
    """The best serial and the best batched time over interleaved pairs."""
    return time_pairs(
        lambda: partial(_run_serial, serial_env, policy),
        lambda: partial(_run_batched, batched_env, policy),
        SPEEDUP_PAIRS,
    )


@pytest.mark.benchmark(group="rollout-64-episodes")
def test_bench_rollout_serial(benchmark, rollout_setup):
    density, serial_env, _, policy = rollout_setup
    results = benchmark.pedantic(
        _run_serial, args=(serial_env, policy), rounds=3, iterations=1
    )
    assert len(results) == NUM_EPISODES
    print(f"\n[{density}] serial rollout of {NUM_EPISODES} greedy episodes")


@pytest.mark.benchmark(group="rollout-64-episodes")
def test_bench_rollout_batched(benchmark, rollout_setup):
    density, serial_env, batched_env, policy = rollout_setup
    results = benchmark.pedantic(
        _run_batched, args=(batched_env, policy), rounds=3, iterations=1
    )
    # The batched path is a refactor, not an approximation: bit-identical.
    assert results == _run_serial(serial_env, policy)
    print(f"\n[{density}] batched rollout (B={NUM_EPISODES}) of the same episodes")


def test_batched_speedup_at_b64(time_pairs):
    """Acceptance gate: >= 5x episodes/sec on the batched path at B = 64."""
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    serial_env = NavigationEnv(config, rng=7)
    batched_env = BatchedNavigationEnv.from_env(
        NavigationEnv(config, rng=7), batch_size=NUM_EPISODES
    )
    policy = _policy_for(serial_env)
    assert _run_batched(batched_env, policy) == _run_serial(serial_env, policy)
    serial_s, batched_s = _best_seconds(time_pairs, serial_env, batched_env, policy)
    speedup = serial_s / batched_s
    print(
        f"\nserial {NUM_EPISODES / serial_s:.0f} eps/s, "
        f"batched {NUM_EPISODES / batched_s:.0f} eps/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


def _dynamic_config():
    return replace(
        FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE),
        world_spec=WorldSpec("dynamic", seed=2),
    )


@pytest.fixture(scope="module")
def dynamic_rollout_setup():
    config = _dynamic_config()
    serial_env = NavigationEnv(config, rng=7)
    batched_env = BatchedNavigationEnv.from_env(
        NavigationEnv(config, rng=7), batch_size=NUM_EPISODES
    )
    return serial_env, batched_env, _policy_for(serial_env)


@pytest.mark.benchmark(group="rollout-dynamic-64-episodes")
def test_bench_dynamic_rollout_serial(benchmark, dynamic_rollout_setup):
    serial_env, _, policy = dynamic_rollout_setup
    results = benchmark.pedantic(
        _run_serial, args=(serial_env, policy), rounds=3, iterations=1
    )
    assert len(results) == NUM_EPISODES
    print(f"\n[dynamic] serial rollout: an at_time() snapshot per episode-step")


@pytest.mark.benchmark(group="rollout-dynamic-64-episodes")
def test_bench_dynamic_rollout_batched(benchmark, dynamic_rollout_setup):
    serial_env, batched_env, policy = dynamic_rollout_setup
    results = benchmark.pedantic(
        _run_batched, args=(batched_env, policy), rounds=3, iterations=1
    )
    # Lanes finish at different steps, so the batch carries desynchronised
    # episode clocks through one timed query per step — still bit-identical.
    assert results == _run_serial(serial_env, policy)
    print(f"\n[dynamic] batched rollout (B={NUM_EPISODES}): one timed query per step")


def test_dynamic_batched_speedup_at_b64(time_pairs):
    """Acceptance gate: >= 4x episodes/sec on a moving-obstacle world at
    B = 64, where per-row times (desynchronised lane clocks) previously forced
    one ``at_time`` snapshot per distinct (field, time) group."""
    config = _dynamic_config()
    serial_env = NavigationEnv(config, rng=7)
    batched_env = BatchedNavigationEnv.from_env(
        NavigationEnv(config, rng=7), batch_size=NUM_EPISODES
    )
    policy = _policy_for(serial_env)
    assert _run_batched(batched_env, policy) == _run_serial(serial_env, policy)
    serial_s, batched_s = _best_seconds(time_pairs, serial_env, batched_env, policy)
    speedup = serial_s / batched_s
    print(
        f"\n[dynamic] serial {NUM_EPISODES / serial_s:.0f} eps/s, "
        f"batched {NUM_EPISODES / batched_s:.0f} eps/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 4.0


@pytest.fixture(scope="module")
def fault_setup():
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.MEDIUM)
    env = NavigationEnv(config, rng=7)
    network = build_policy(
        mlp((48, 48)), env.observation_space.shape, env.action_space.n, rng=0
    )
    return env, network


def _fault_protocol(env, network, batch_size):
    return evaluate_under_faults(
        env,
        network,
        ber_percent=1.0,
        num_fault_maps=16,
        episodes_per_map=8,
        rng=0,
        batch_size=batch_size,
    )


@pytest.mark.benchmark(group="fault-map-protocol")
def test_bench_fault_protocol_single_lane(benchmark, fault_setup):
    env, network = fault_setup
    point = benchmark.pedantic(
        _fault_protocol, args=(env, network, 1), rounds=3, iterations=1
    )
    assert 0.0 <= point.success_rate <= 1.0


@pytest.mark.benchmark(group="fault-map-protocol")
def test_bench_fault_protocol_batched(benchmark, fault_setup):
    env, network = fault_setup
    point = benchmark.pedantic(
        _fault_protocol, args=(env, network, None), rounds=3, iterations=1
    )
    reference = _fault_protocol(env, network, 1)
    # Same protocol, same seeds, same lockstep episodes: identical statistics
    # (path means compared NaN-aware — no mission may survive at this BER).
    assert point.per_map_success_rates == reference.per_map_success_rates
    assert point.success_rate == reference.success_rate
    assert point.mean_path_length_m == reference.mean_path_length_m or (
        np.isnan(point.mean_path_length_m) and np.isnan(reference.mean_path_length_m)
    )

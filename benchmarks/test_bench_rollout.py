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
many-fault-maps evaluation: ``evaluate_under_faults`` (quantize once, fly
a wave of maps' missions in one lockstep rollout) against the serial
per-map loop it must reproduce (corrupt the codes under each map, then one
``run_episode`` per mission).  ``test_fault_protocol_speedup`` gates the
merged rollout at >= 4x over the per-map batched loop it replaced (the root
conftest's ``per_map_fault_protocol``) at 64 maps x 1 episode, and
``test_evaluate_many_speedup`` gates one ``evaluate_many`` call over the
reduced-scale Table I's requests at >= 1.5x over one call per request.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.envs.batch import BatchedNavigationEnv, run_batched_episodes
from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.vector import mean_path_length, run_episode, success_rate
from repro.experiments.profiles import FAST_PROFILE
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector
from repro.nn.policies import build_policy, mlp
from repro.rl.dqn import DqnTrainer
from repro.experiments.table1 import train_policies
from repro.rl.evaluation import (
    FaultRequest,
    GreedyPolicy,
    PolicyRequest,
    evaluate_many,
    evaluate_under_faults,
)
from repro.utils.rng import spawn_generators
from repro.worlds.spec import WorldSpec

NUM_EPISODES = 64
RESET_SEED = 100


def _policy_for(env: NavigationEnv):
    network = build_policy(
        mlp((48, 48)), env.observation_space.shape, env.action_space.n, rng=0
    )
    return GreedyPolicy(network)


@pytest.fixture(scope="module", params=["sparse", "medium", "dense"])
def rollout_setup(request):
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity(request.param))
    serial_env = NavigationEnv(config, rng=7)
    batched_env = BatchedNavigationEnv(
        NavigationEnv(config, rng=7), batch_size=NUM_EPISODES
    )
    return request.param, serial_env, batched_env, _policy_for(serial_env)


def _run_serial(env, policy):
    return [
        run_episode(env, policy, reset_seed=RESET_SEED + index)
        for index in range(NUM_EPISODES)
    ]


def _run_batched(env, policy):
    return run_batched_episodes(env, policy, range(RESET_SEED, RESET_SEED + NUM_EPISODES))


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
    batched_env = BatchedNavigationEnv(
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
    batched_env = BatchedNavigationEnv(
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
    batched_env = BatchedNavigationEnv(
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


FAULT_BER_PERCENT = 1.0
FAULT_MAPS = 16
EPISODES_PER_MAP = 8


@pytest.fixture(scope="module")
def fault_setup():
    """A briefly trained policy (~0.3 s), so that some missions survive the
    maps and the per-map success rates differ from map to map."""
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.MEDIUM)
    trainer = DqnTrainer(
        NavigationEnv(config, rng=7), policy_spec=mlp((48, 48)), config=FAST_PROFILE.dqn, rng=0
    )
    trainer.train(120)
    return NavigationEnv(config, rng=7), NavigationEnv(config, rng=7), trainer.q_network


def _fault_protocol(env, network):
    return evaluate_under_faults(
        env,
        network,
        ber_percent=FAULT_BER_PERCENT,
        num_fault_maps=FAULT_MAPS,
        episodes_per_map=EPISODES_PER_MAP,
        rng=0,
    )


def _serial_fault_protocol(env, network):
    """The per-map reference: the maps and reset seeds of
    ``evaluate_under_faults(rng=0)`` (one ``map_rng``/``episode_rng`` split),
    each map's corrupted policy flown one ``run_episode`` at a time.  Returns
    the per-map success rates and the mean over maps of each map's mean
    successful path."""
    injector = BitErrorInjector.for_network(network)
    map_rng, episode_rng = spawn_generators(0, 2)
    memory = injector.quantize_state(network.state_dict())
    deployed = network.clone()
    per_map_success, per_map_paths = [], []
    for _ in range(FAULT_MAPS):
        fault_map = FaultMap.random(
            injector.memory_bits, FAULT_BER_PERCENT / 100.0, rng=map_rng, stuck_at_1_bias=0.5
        )
        deployed.load_state_dict(injector.perturb_quantized_state(memory, fault_map))
        reset_base = int(episode_rng.integers(0, 2**31 - 1 - EPISODES_PER_MAP))
        results = [
            run_episode(env, GreedyPolicy(deployed), reset_seed=reset_base + index)
            for index in range(EPISODES_PER_MAP)
        ]
        per_map_success.append(success_rate(results))
        per_map_paths.append(mean_path_length(results))
    paths = [path for path in per_map_paths if not np.isnan(path)]
    return tuple(per_map_success), float(np.mean(paths))


@pytest.mark.benchmark(group="fault-map-protocol")
def test_bench_fault_protocol_single_lane(benchmark, fault_setup):
    _, serial_env, network = fault_setup
    per_map_success, _ = benchmark.pedantic(
        _serial_fault_protocol, args=(serial_env, network), rounds=3, iterations=1
    )
    assert len(per_map_success) == FAULT_MAPS


@pytest.mark.benchmark(group="fault-map-protocol")
def test_bench_fault_protocol_batched(benchmark, fault_setup):
    env, serial_env, network = fault_setup
    point = benchmark.pedantic(
        _fault_protocol, args=(env, network), rounds=3, iterations=1
    )
    # Same maps, same seeds, the same episodes flown in lockstep: identical
    # per-map statistics.
    per_map_success, mean_path = _serial_fault_protocol(serial_env, network)
    assert 0.0 < point.success_rate < 1.0
    assert point.per_map_success_rates == per_map_success
    assert point.mean_path_length_m == mean_path


#: Maps of the merged-rollout gate, one episode each: the paper's protocol
#: shape (500 maps x 1 episode) at a tier-1 size.
SPEEDUP_MAPS = 64


def test_fault_protocol_speedup(time_pairs, per_map_fault_protocol):
    """Acceptance gate: >= 4x for ``evaluate_under_faults`` at 64 maps x 1
    episode over the per-map loop (each map on its own one-lane rollout), on
    an untrained FAST MLP, with equal results."""
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.MEDIUM)
    env = NavigationEnv(config, rng=7)
    network = build_policy(
        FAST_PROFILE.policy_spec, env.observation_space.shape, env.action_space.n, rng=0
    )

    def merged():
        return evaluate_under_faults(
            env,
            network,
            ber_percent=FAULT_BER_PERCENT,
            num_fault_maps=SPEEDUP_MAPS,
            episodes_per_map=1,
            rng=0,
        )

    def per_map():
        return per_map_fault_protocol(
            env, network, FAULT_BER_PERCENT, SPEEDUP_MAPS, 1, rng=0
        )

    # Float reprs round-trip exactly, and NaN (no successful mission) equals NaN.
    assert repr(merged()) == repr(per_map())
    per_map_s, merged_s = time_pairs(lambda: per_map, lambda: merged, SPEEDUP_PAIRS)
    speedup = per_map_s / merged_s
    print(
        f"\n{SPEEDUP_MAPS} maps x 1 episode: per-map {per_map_s * 1e3:.1f} ms, "
        f"merged {merged_s * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 4.0


#: The reduced-scale Table I of the ``berry-train`` workload: ``FAST_PROFILE``
#: with 40 training episodes and 4 fault maps per operating point.
TABLE1_PROFILE = replace(FAST_PROFILE, training_episodes=40, num_fault_maps=4)
TABLE1_BER_PERCENT = (0.1, 1.0, 3.0)


def test_evaluate_many_speedup(time_pairs):
    """Acceptance gate: >= 1.5x for one ``evaluate_many`` call over Table I's
    requests (2 networks, each 1 error-free run of 20 episodes plus 3 BER
    levels of 4 maps x 4 episodes) over one call per request, with equal
    results."""
    policies = train_policies(TABLE1_PROFILE, seed=0)
    env = policies.environment
    requests = []
    for trainer in (policies.classical, policies.berry):
        requests.append(PolicyRequest(trainer.q_network, TABLE1_PROFILE.eval_episodes, rng=1))
        requests.extend(
            FaultRequest(
                trainer.q_network,
                ber_percent=ber,
                num_fault_maps=TABLE1_PROFILE.num_fault_maps,
                episodes_per_map=TABLE1_PROFILE.episodes_per_map,
                rng=2,
            )
            for ber in TABLE1_BER_PERCENT
        )

    def merged():
        return evaluate_many(env, requests)

    def per_request():
        return [evaluate_many(env, [request])[0] for request in requests]

    # Float reprs round-trip exactly, and NaN (no successful mission) equals NaN.
    assert repr(merged()) == repr(per_request())
    per_request_s, merged_s = time_pairs(lambda: per_request, lambda: merged, SPEEDUP_PAIRS)
    speedup = per_request_s / merged_s
    print(
        f"\nTable I requests: one call each {per_request_s * 1e3:.1f} ms, "
        f"one call {merged_s * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 1.5

"""Benchmark: serial vs lockstep-batched DQN training.

The batched trainer collects B transitions per lockstep step — one batched Q
forward, one batched environment step and one vectorised replay insert for
the whole batch — where the serial loop pays python/numpy dispatch per
transition.  Gradient work is *identical* per transition on both paths (the
cadence is indexed by the global transition counter), so the measured metric
is end-to-end environment-steps per second of the full training loop.

``test_batched_training_speedup`` is the acceptance gate: >= 3x
environment-steps/sec over the serial reference loop at B >= 8 lanes (the
gate runs B = 64, the rollout core's default lane width) on a
collection-bound cadence.  The pytest-benchmark groups additionally record
the serial / B=8 / B=64 shapes for tracking.

``test_berry_perturbed_pass_speedup`` gates BERRY's ``BErr_p`` pass on the
``FAST_PROFILE`` MLP: quantizing, corrupting and dequantizing θ and θ⁻ over
one flat word memory must be >= 3x faster than the per-tensor operator.
"""

from functools import partial

import numpy as np
import pytest

from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.experiments.profiles import FAST_PROFILE
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector
from repro.nn.policies import build_policy, mlp
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import LinearDecay

#: Lane count of the acceptance gate (B >= 8; 64 is the rollout-core default).
GATE_LANES = 64

#: Collection-bound throughput cadence: gradient steps every 8 transitions,
#: so the benchmark measures the experience-collection refactor rather than
#: the (path-independent) gradient arithmetic.
def _config(train_lanes: int) -> DqnConfig:
    return DqnConfig(
        batch_size=16,
        buffer_capacity=8000,
        learning_starts=128,
        train_frequency=8,
        target_update_interval=250,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=1500),
        train_lanes=train_lanes,
    )


def _trainer(train_lanes: int) -> DqnTrainer:
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    return DqnTrainer(
        NavigationEnv(config, rng=5),
        policy_spec=mlp((32, 32)),
        config=_config(train_lanes),
        rng=9,
    )


def _train_serial_48() -> DqnTrainer:
    trainer = _trainer(1)
    trainer.train_serial(48)
    return trainer


def _train_batched(lanes: int, episodes: int) -> DqnTrainer:
    trainer = _trainer(lanes)
    trainer.train(episodes)
    return trainer


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_serial(benchmark):
    trainer = benchmark.pedantic(_train_serial_48, rounds=3, iterations=1)
    assert trainer.history.num_episodes == 48
    print(f"\nserial reference loop: {trainer.history.total_steps} env steps")


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_batched_b8(benchmark):
    trainer = benchmark.pedantic(_train_batched, args=(8, 48), rounds=3, iterations=1)
    assert trainer.history.num_episodes == 48
    print(f"\nbatched B=8: {trainer.history.total_steps} env steps")


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_batched_b64(benchmark):
    trainer = benchmark.pedantic(_train_batched, args=(64, 192), rounds=3, iterations=1)
    assert trainer.history.num_episodes == 192
    print(f"\nbatched B=64: {trainer.history.total_steps} env steps")


def _gradient_bound_config(train_lanes: int) -> DqnConfig:
    # Gradient-bound cadence: one batch-64 gradient step per transition.  The
    # lockstep-collection win largely disappears here because the gradient
    # arithmetic (path-independent) dominates; the complementary backend
    # benchmark (benchmarks/test_bench_backend.py) attacks this regime by
    # swapping the compute backend instead.
    return DqnConfig(
        batch_size=64,
        buffer_capacity=8000,
        learning_starts=128,
        train_frequency=1,
        target_update_interval=250,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=1500),
        train_lanes=train_lanes,
    )


def _train_gradient_bound(train_lanes: int, episodes: int, serial: bool = False) -> DqnTrainer:
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    trainer = DqnTrainer(
        NavigationEnv(config, rng=5),
        policy_spec=mlp((32, 32)),
        config=_gradient_bound_config(train_lanes),
        rng=9,
    )
    if serial:
        trainer.train_serial(episodes)
    else:
        trainer.train(episodes)
    return trainer


@pytest.mark.benchmark(group="dqn-training-gradient-bound")
def test_bench_gradient_bound_serial(benchmark):
    trainer = benchmark.pedantic(_train_gradient_bound, args=(1, 12, True), rounds=3, iterations=1)
    print(f"\ngradient-bound serial: {trainer.history.gradient_steps} gradient steps")


@pytest.mark.benchmark(group="dqn-training-gradient-bound")
def test_bench_gradient_bound_batched_b64(benchmark):
    trainer = benchmark.pedantic(_train_gradient_bound, args=(64, 48), rounds=3, iterations=1)
    print(f"\ngradient-bound B=64: {trainer.history.gradient_steps} gradient steps")


#: Interleaved (serial, batched) pairs timed by the training gate.
TRAINING_PAIRS = 3


def test_batched_training_speedup(time_pairs):
    """Acceptance gate: >= 3x env-steps/sec at B >= 8 over the serial trainer.

    Each timed run trains a fresh trainer, built untimed.  The runs of a
    side all take the same steps, so its fastest run gives its steps/sec.
    """
    serial_runs, batched_runs = [], []

    def prepare(runs, train_lanes, episodes, serial=False):
        trainer = _trainer(train_lanes)
        runs.append((trainer, episodes))
        return partial(trainer.train_serial if serial else trainer.train, episodes)

    serial_s, batched_s = time_pairs(
        lambda: prepare(serial_runs, 1, 48, serial=True),
        lambda: prepare(batched_runs, GATE_LANES, 256),
        TRAINING_PAIRS,
    )
    for runs in (serial_runs, batched_runs):
        assert len({trainer.history.total_steps for trainer, _ in runs}) == 1
        for trainer, episodes in runs:
            assert trainer.history.num_episodes == episodes
            assert trainer.history.gradient_steps > 0
    serial = serial_runs[0][0].history.total_steps / serial_s
    batched = batched_runs[0][0].history.total_steps / batched_s
    speedup = batched / serial
    print(
        f"\nserial {serial:.0f} steps/s vs batched B={GATE_LANES} "
        f"{batched:.0f} steps/s -> {speedup:.2f}x"
    )
    assert speedup >= 3.0


#: Gate of one flat-memory BERRY perturbed pass over the per-tensor operator.
MIN_PERTURBED_PASS_SPEEDUP = 3.0

#: Interleaved (flat, per-tensor) pairs timed by the gate.
PERTURBED_PASS_PAIRS = 200


def test_berry_perturbed_pass_speedup(per_tensor_berr, time_pairs):
    """Acceptance gate: one BERRY perturbed pass >= 3x faster on the flat memory.

    A pass turns θ and θ⁻ into their perturbed networks θ̃ and θ̃⁻ under one
    fresh 1% map, quantizing, corrupting and dequantizing both.  The flat
    pass loads the values into two networks made beforehand, as
    ``BerryTrainer`` does; the reference clones both networks and runs the
    per-tensor operator, as the trainer did before.  Both sides of a pair
    run on the same map, timed through ``time_pairs``, and every pair's two
    results must agree bitwise.
    """
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    env = NavigationEnv(config, rng=5)
    shape, actions = env.observation_space.shape, env.action_space.n
    networks = [
        build_policy(FAST_PROFILE.policy_spec, shape, actions, rng=seed) for seed in (0, 1)
    ]
    injector = BitErrorInjector.for_network(networks[0])
    rng = np.random.default_rng(9)
    fault_maps = [
        FaultMap.random(injector.memory_bits, 0.01, rng=rng) for _ in range(PERTURBED_PASS_PAIRS)
    ]
    perturbed = [network.clone() for network in networks]
    flat, reference = [], []

    def flat_pass(fault_map):
        for network, scratch in zip(networks, perturbed):
            memory = injector.quantize_state(network.state_dict())
            scratch.load_state_dict(injector.perturb_quantized_state(memory, fault_map))

    def per_tensor_pass(fault_map, clones):
        clones.extend(network.clone() for network in networks)
        for network, clone in zip(networks, clones):
            clone.load_state_dict(per_tensor_berr(injector, network.state_dict(), fault_map))

    def snapshot():
        return [network.state_dict() for network in perturbed]

    def make_flat():
        # Keep the previous flat pass's result before the next overwrites it.
        if flat:
            flat[-1] = snapshot()
        flat.append(None)
        return partial(flat_pass, fault_maps[len(flat) - 1])

    def make_reference():
        reference.append([])
        return partial(per_tensor_pass, fault_maps[len(reference) - 1], reference[-1])

    reference_s, flat_s = time_pairs(make_reference, make_flat, PERTURBED_PASS_PAIRS)
    flat[-1] = snapshot()
    for got_pair, expected_pair in zip(flat, reference):
        for got, expected in zip(got_pair, expected_pair):
            for name, values in expected.state_dict().items():
                assert got[name].tobytes() == values.tobytes()
    speedup = reference_s / flat_s
    print(
        f"\nBERRY perturbed pass (θ and θ⁻): per-tensor {reference_s * 1e6:.0f} us "
        f"vs flat memory {flat_s * 1e6:.0f} us -> {speedup:.2f}x"
    )
    assert speedup >= MIN_PERTURBED_PASS_SPEEDUP, (
        f"flat perturbed pass only {speedup:.2f}x faster than the per-tensor operator "
        f"(gate: {MIN_PERTURBED_PASS_SPEEDUP}x over {PERTURBED_PASS_PAIRS} pairs)"
    )

"""Benchmark: the pluggable compute backend on the gradient-bound cadence.

The backend refactor (:mod:`repro.nn.backend`) routes every array operation in
the nn/gradient core through an :class:`~repro.nn.backend.ArrayBackend`.  This
benchmark pins the two performance claims that gate it:

* **numpy is (near-)free** — the default backend is a thin delegation layer,
  so end-to-end training throughput and per-op dispatch must stay within noise
  of calling numpy directly (<1 % overhead on the gradient step).
* **torch pays off where it should** — on a convolutional policy at batch
  >= 256 the torch backend must deliver >= 2x gradient-steps/sec over numpy
  (it replaces im2col-matmul with native conv kernels).  Torch tests skip
  automatically when the wheel is not installed.

Unlike :mod:`benchmarks.test_bench_training` (collection-bound cadence, one
gradient step per 8 transitions), the training groups here run the
**gradient-bound** cadence — ``train_frequency=1`` at ``batch_size=64`` — so
the measured quantity is dominated by the backend's matmul/elementwise work,
not by experience collection.
"""

import time

import numpy as np
import pytest

from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.experiments.profiles import FAST_PROFILE
from repro.nn.backend import backend_available, get_backend
from repro.nn.backend.numpy_backend import NumpyBackend
from repro.nn.loss import HuberLoss
from repro.nn.optim import Adam
from repro.nn.policies import ConvSpec, PolicySpec, build_policy, mlp
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import LinearDecay

requires_torch = pytest.mark.skipif(
    not backend_available("torch"), reason="torch not installed"
)

#: Lane width of the training groups (the rollout core's default).
GATE_LANES = 64


# ---------------------------------------------------------------------------
# Gradient-bound DQN training: serial vs numpy-backend vs torch-backend
# ---------------------------------------------------------------------------

def _config(train_lanes: int, backend: str) -> DqnConfig:
    # Gradient-bound cadence: one batch-64 gradient step per env transition.
    return DqnConfig(
        batch_size=64,
        buffer_capacity=8000,
        learning_starts=128,
        train_frequency=1,
        target_update_interval=250,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=1500),
        train_lanes=train_lanes,
        backend=backend,
    )


def _trainer(train_lanes: int, backend: str) -> DqnTrainer:
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    return DqnTrainer(
        NavigationEnv(config, rng=5),
        policy_spec=mlp((32, 32)),
        config=_config(train_lanes, backend),
        rng=9,
    )


def _gradient_steps_per_second(backend: str, episodes: int, serial: bool = False) -> float:
    trainer = _trainer(1 if serial else GATE_LANES, backend)
    start = time.perf_counter()
    if serial:
        trainer.train_serial(episodes)
    else:
        trainer.train(episodes)
    elapsed = time.perf_counter() - start
    assert trainer.history.num_episodes == episodes
    assert trainer.history.gradient_steps > 0
    return trainer.history.gradient_steps / elapsed


def _train(backend: str, episodes: int, serial: bool = False) -> DqnTrainer:
    trainer = _trainer(1 if serial else GATE_LANES, backend)
    if serial:
        trainer.train_serial(episodes)
    else:
        trainer.train(episodes)
    return trainer


@pytest.mark.benchmark(group="gradient-bound-training")
def test_bench_gradient_bound_serial_numpy(benchmark):
    trainer = benchmark.pedantic(_train, args=("numpy", 12, True), rounds=3, iterations=1)
    print(f"\nserial/numpy: {trainer.history.gradient_steps} gradient steps")


@pytest.mark.benchmark(group="gradient-bound-training")
def test_bench_gradient_bound_batched_numpy(benchmark):
    trainer = benchmark.pedantic(_train, args=("numpy", 48), rounds=3, iterations=1)
    print(f"\nbatched B={GATE_LANES}/numpy: {trainer.history.gradient_steps} gradient steps")


@requires_torch
@pytest.mark.benchmark(group="gradient-bound-training")
def test_bench_gradient_bound_batched_torch(benchmark):
    trainer = benchmark.pedantic(_train, args=("torch", 48), rounds=3, iterations=1)
    print(f"\nbatched B={GATE_LANES}/torch: {trainer.history.gradient_steps} gradient steps")


# ---------------------------------------------------------------------------
# Acceptance gate 1: the numpy backend adds <1 % over direct numpy calls
# ---------------------------------------------------------------------------

class _CountingNumpyBackend(NumpyBackend):
    """NumpyBackend proxy that counts every dispatched backend call.

    Used to turn "the dispatch tax is small" into an exact statement: run one
    real gradient step through this backend, read off the op count, multiply
    by the measured per-call indirection delta.
    """

    def __init__(self) -> None:
        self.calls = 0
        for attr in dir(NumpyBackend):
            if attr.startswith("_") or attr == "name":
                continue
            method = getattr(NumpyBackend, attr)
            if callable(method):
                setattr(self, attr, self._counted(method))

    def _counted(self, method):
        def wrapped(*args, **kwargs):
            self.calls += 1
            return method(self, *args, **kwargs)

        return wrapped


def _dispatch_delta_ns(time_pairs) -> float:
    """Per-call cost of routing ``np.add`` through the backend method.

    Times direct/routed blocks in interleaved pairs (the root ``time_pairs``
    protocol) and takes the fastest block of each, so CPU frequency drift
    cancels; tiny operands make the delta pure python-call indirection
    rather than array arithmetic.
    """
    be = get_backend("numpy")
    x, y, out = np.zeros(8), np.ones(8), np.empty(8)
    calls = 20000

    def block(fn):
        def run():
            for _ in range(calls):
                fn(x, y, out=out)

        return run

    direct_s, routed_s = time_pairs(lambda: block(np.add), lambda: block(be.add), 9)
    return max(0.0, routed_s - direct_s) / calls * 1e9


def _conv_step_op_count() -> int:
    """Exact backend ops in one conv-policy gradient step at batch 256."""
    counting = _CountingNumpyBackend()
    network = build_policy(_CONV_SPEC, _OBS_SHAPE, num_actions=5, rng=3, backend=counting)
    loss_fn = HuberLoss(backend=counting)
    optimizer = Adam(network.parameters(), lr=1e-3, grad_clip=1.0)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(_CONV_BATCH,) + _OBS_SHAPE)
    targets = rng.normal(size=(_CONV_BATCH, 5))
    counting.calls = 0
    predictions = network.forward(batch)
    _, grad = loss_fn(predictions, targets)
    network.zero_grad()
    network.backward(grad)
    optimizer.step()
    return counting.calls


def test_numpy_backend_indirection_overhead_under_one_percent(time_pairs):
    """Acceptance gate: backend dispatch costs <1 % of the gradient step.

    The numpy backend is a one-line delegation layer, so the *only* cost the
    refactor can add to the hot path is python call indirection.  The gate is
    exact rather than hand-wavy: a counting proxy backend records how many
    backend calls one real conv-policy gradient step makes (the workload the
    torch gate below targets), and that count times the measured per-call
    indirection delta must stay under 1 % of the measured step time.
    """
    delta_ns = _dispatch_delta_ns(time_pairs)
    ops = _conv_step_op_count()
    step_time = 1.0 / _conv_gradient_step_rate("numpy", steps=3)
    overhead_fraction = (ops * delta_ns * 1e-9) / step_time
    print(
        f"\nper-call indirection {delta_ns:.0f} ns x {ops} backend ops/step, "
        f"conv step {step_time * 1e3:.0f} ms -> overhead {overhead_fraction * 100:.4f}%"
    )
    assert overhead_fraction < 0.01


# ---------------------------------------------------------------------------
# Acceptance gate 2: torch >= 2x gradient-steps/sec on a conv policy, B >= 256
# ---------------------------------------------------------------------------

#: Small two-conv policy; torch replaces im2col-matmul with native conv kernels.
_CONV_SPEC = PolicySpec(
    name="bench-conv",
    conv_layers=(
        ConvSpec(out_channels=16, kernel_size=4, stride=2),
        ConvSpec(out_channels=32, kernel_size=3, stride=1),
    ),
    hidden_units=(128,),
)
_OBS_SHAPE = (2, 20, 20)
_CONV_BATCH = 256


def _conv_gradient_step_rate(backend_name: str, steps: int = 12) -> float:
    """Full supervised gradient-step rate on the conv policy at batch 256."""
    network = build_policy(_CONV_SPEC, _OBS_SHAPE, num_actions=5, rng=3, backend=backend_name)
    loss_fn = HuberLoss(backend=backend_name)
    optimizer = Adam(network.parameters(), lr=1e-3, grad_clip=1.0)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(_CONV_BATCH,) + _OBS_SHAPE)
    targets = rng.normal(size=(_CONV_BATCH, 5))

    def one_step():
        predictions = network.forward(batch)
        _, grad = loss_fn(predictions, targets)
        network.zero_grad()
        network.backward(grad)
        optimizer.step()

    one_step()  # warm-up (buffer allocation, torch autotune, caches)
    start = time.perf_counter()
    for _ in range(steps):
        one_step()
    return steps / (time.perf_counter() - start)


@pytest.mark.benchmark(group="conv-gradient-step")
def test_bench_conv_gradient_step_numpy(benchmark):
    rate = benchmark.pedantic(_conv_gradient_step_rate, args=("numpy", 6), rounds=3, iterations=1)
    print(f"\nconv B={_CONV_BATCH} numpy: {rate:.2f} gradient steps/s")


@requires_torch
@pytest.mark.benchmark(group="conv-gradient-step")
def test_bench_conv_gradient_step_torch(benchmark):
    rate = benchmark.pedantic(_conv_gradient_step_rate, args=("torch", 6), rounds=3, iterations=1)
    print(f"\nconv B={_CONV_BATCH} torch: {rate:.2f} gradient steps/s")


@requires_torch
def test_torch_beats_numpy_on_conv_gradient_steps():
    """Acceptance gate: torch >= 2x gradient-steps/sec at batch >= 256."""
    numpy_rate = max(_conv_gradient_step_rate("numpy") for _ in range(2))
    torch_rate = max(_conv_gradient_step_rate("torch") for _ in range(2))
    speedup = torch_rate / numpy_rate
    print(
        f"\nconv B={_CONV_BATCH}: numpy {numpy_rate:.2f} vs torch {torch_rate:.2f} "
        f"gradient steps/s -> {speedup:.2f}x"
    )
    assert speedup >= 2.0


@requires_torch
def test_torch_training_matches_numpy_qualitatively():
    """The torch-backed trainer runs the same cadence and still learns."""
    trainer = _train("torch", 12)
    assert trainer.history.gradient_steps > 0
    assert trainer.backend.name == "torch"

"""Micro-benchmark: preallocated in-place optimizer buffers vs naive allocation.

The optimizers in :mod:`repro.nn.optim` preallocate every buffer a step needs
(momentum/moment state, gradient-clip output, arithmetic scratch) so the
steady-state ``step()`` allocates no arrays at all.  This benchmark pins both
halves of that claim against a naive reference Adam that computes the same
update with fresh out-of-place arrays (the pre-backend implementation shape):

* the two implementations agree **bitwise** (the in-place rewrite is a pure
  reorganisation of the same IEEE operation sequence), and
* the in-place step performs no per-step array allocations where the naive
  step allocates several times the parameter memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import Adam

#: C3F2-scale parameter shapes (two conv blocks plus the dense head) — the
#: regime the backend refactor targets; at this size the naive step's fresh
#: arrays cost real time where tiny MLP parameters would hide it.
PARAM_SHAPES = ((16, 4, 3, 3), (16,), (32, 16, 3, 3), (32,), (256, 1152), (256,), (5, 256), (5,))

STEPS = 60


class NaiveAdam:
    """Reference Adam allocating fresh arrays per step (pre-backend shape)."""

    def __init__(self, parameters, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8,
                 grad_clip=None):
        self.parameters = list(parameters)
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.grad_clip = grad_clip
        self._step_count = 0
        self._moment1 = [np.zeros_like(p.data) for p in self.parameters]
        self._moment2 = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for i, parameter in enumerate(self.parameters):
            grad = parameter.grad
            if self.grad_clip is not None:
                grad = np.clip(grad, -self.grad_clip, self.grad_clip)
            self._moment1[i] = self.beta1 * self._moment1[i] + grad * (1.0 - self.beta1)
            self._moment2[i] = self.beta2 * self._moment2[i] + (grad * grad) * (1.0 - self.beta2)
            update = ((self._moment1[i] / correction1) * self.lr) / (
                np.sqrt(self._moment2[i] / correction2) + self.epsilon
            )
            parameter.data = parameter.data - update


def _make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [
        Parameter(rng.normal(size=shape), name=f"p{i}", backend="numpy")
        for i, shape in enumerate(PARAM_SHAPES)
    ], rng


def _grad_stream(rng, steps=STEPS):
    return [[rng.normal(size=shape) for shape in PARAM_SHAPES] for _ in range(steps)]


def _run(optimizer, params, grads):
    for step_grads in grads:
        for param, grad in zip(params, step_grads):
            param.zero_grad()
            param.grad += grad
        optimizer.step()


def test_inplace_adam_matches_naive_reference_bitwise():
    params_a, rng_a = _make_params(1)
    params_b, _ = _make_params(1)
    grads = _grad_stream(rng_a)
    _run(Adam(params_a, lr=1e-3, grad_clip=1.0), params_a, grads)
    _run(NaiveAdam(params_b, lr=1e-3, grad_clip=1.0), params_b, grads)
    for a, b in zip(params_a, params_b):
        assert np.array_equal(a.data, np.asarray(b.data)), a.name


def test_inplace_step_allocates_nothing_in_steady_state():
    params, rng = _make_params(2)
    grads = _grad_stream(rng, steps=20)
    optimizer = Adam(params, lr=1e-3, grad_clip=1.0)
    _run(optimizer, params, grads)  # warm-up: buffers exist, caches primed

    param_bytes = sum(p.data.nbytes for p in params)

    tracemalloc.start()
    _run(optimizer, params, grads)
    _, inplace_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    naive_params, naive_rng = _make_params(2)
    naive = NaiveAdam(naive_params, lr=1e-3, grad_clip=1.0)
    naive_grads = _grad_stream(naive_rng, steps=20)
    _run(naive, naive_params, naive_grads)
    tracemalloc.start()
    _run(naive, naive_params, naive_grads)
    _, naive_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(
        f"\nsteady-state peak allocations over 20 steps: "
        f"in-place {inplace_peak} B vs naive {naive_peak} B "
        f"(parameters occupy {param_bytes} B)"
    )
    # The naive step allocates several fresh parameter-sized arrays; the
    # in-place step must stay below one parameter copy's worth in total.
    assert naive_peak > param_bytes
    assert inplace_peak < param_bytes


@pytest.mark.benchmark(group="optimizer-step")
def test_bench_adam_inplace(benchmark):
    params, rng = _make_params(3)
    grads = _grad_stream(rng)
    optimizer = Adam(params, lr=1e-3, grad_clip=1.0)
    benchmark.pedantic(lambda: _run(optimizer, params, grads), rounds=3, iterations=1)


@pytest.mark.benchmark(group="optimizer-step")
def test_bench_adam_naive_reference(benchmark):
    params, rng = _make_params(3)
    grads = _grad_stream(rng)
    optimizer = NaiveAdam(params, lr=1e-3, grad_clip=1.0)
    benchmark.pedantic(lambda: _run(optimizer, params, grads), rounds=3, iterations=1)


#: Interleaved (naive, in-place) pairs timed by the wall-clock gate.
ADAM_PAIRS = 5


def test_inplace_adam_is_not_slower_than_naive(time_pairs):
    """The allocation-free step should win (or at worst tie) on wall clock."""

    def prepare(optimizer_class):
        params, rng = _make_params(4)
        grads = _grad_stream(rng)
        optimizer = optimizer_class(params, lr=1e-3, grad_clip=1.0)
        return lambda: _run(optimizer, params, grads)

    naive, inplace = time_pairs(
        lambda: prepare(NaiveAdam), lambda: prepare(Adam), ADAM_PAIRS
    )
    print(f"\n{STEPS} Adam steps: in-place {inplace * 1e3:.2f} ms vs naive {naive * 1e3:.2f} ms "
          f"({naive / inplace:.2f}x)")
    # Measured ~1.2x at these sizes; a small slack absorbs shared-runner noise
    # while still catching a regression back to per-step allocation.
    assert inplace <= naive * 1.05

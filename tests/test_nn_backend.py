"""Backend registry, numpy bitwise parity, and optional torch numerical parity.

The numpy backend is the contract that the backend refactor was a pure
reorganisation: every layer/optimizer/loss operation routed through
:class:`~repro.nn.backend.numpy_backend.NumpyBackend` must be **bitwise**
identical to the plain-numpy expressions the pre-backend stack used (pinned
inline here), and full DQN/BERRY training with an explicit ``backend="numpy"``
must reproduce the serial reference loop bitwise.

The torch backend is optional: its tests auto-skip when torch is not
installed.  Floating-point results agree numerically (not bitwise — BLAS
reduction order differs), while the integer bit-manipulation path of the
fault model must agree *exactly* whatever the backend.
"""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.berry import BerryConfig, BerryTrainer
from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.sensors import RaySensor
from repro.errors import BackendError, TrainingError
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector, MemoryLayout, _encode
from repro.nn.backend import (
    BACKEND_ENV_VAR,
    NUMPY_BACKEND,
    backend_available,
    default_backend_name,
    get_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
)
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, Parameter, ReLU
from repro.nn.loss import HuberLoss, MSELoss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam, RMSProp
from repro.nn.policies import build_policy, mlp
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import LinearDecay

requires_torch = pytest.mark.skipif(
    not backend_available("torch"), reason="torch is not installed"
)


@pytest.fixture(autouse=True)
def _restore_default_backend():
    yield
    set_default_backend(None)


# ---------------------------------------------------------------------- registry
class TestRegistry:
    def test_both_backends_registered(self):
        names = registered_backends()
        assert "numpy" in names
        assert "torch" in names

    def test_numpy_backend_is_a_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("numpy") is NUMPY_BACKEND
        assert NUMPY_BACKEND.name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError):
            get_backend("bogus")
        with pytest.raises(BackendError):
            set_default_backend("bogus")
        assert not backend_available("bogus")

    def test_numpy_always_available(self):
        assert backend_available("numpy")

    def test_resolve_accepts_instance_name_and_none(self):
        assert resolve_backend(NUMPY_BACKEND) is NUMPY_BACKEND
        assert resolve_backend("numpy") is NUMPY_BACKEND
        assert resolve_backend(None) is get_backend(default_backend_name())

    def test_env_var_sets_the_default_name(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        assert default_backend_name() == "torch"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert default_backend_name() == "numpy"

    def test_set_default_backend_wins_over_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        set_default_backend("numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend(None) is NUMPY_BACKEND
        set_default_backend(None)
        assert default_backend_name() == "torch"

    def test_backends_survive_copy_deepcopy_and_pickle(self):
        backend = get_backend("numpy")
        assert copy.copy(backend) is backend
        assert copy.deepcopy(backend) is backend
        assert pickle.loads(pickle.dumps(backend)) is backend

    def test_torch_unavailable_raises_with_install_hint(self):
        if backend_available("torch"):
            pytest.skip("torch is installed")
        with pytest.raises(BackendError, match="torch"):
            get_backend("torch")

    def test_dqn_config_validates_backend_name(self):
        assert DqnConfig(backend="numpy").backend == "numpy"
        with pytest.raises(TrainingError):
            DqnConfig(backend="bogus")


# ---------------------------------------------------------------------- numpy bitwise parity
def _rng(seed=0):
    return np.random.default_rng(seed)


class TestNumpyLayerParity:
    """Each layer op must equal the pre-backend inline numpy expression bitwise."""

    def test_parameter_holds_float64_numpy_arrays(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32), backend="numpy")
        assert isinstance(p.data, np.ndarray)
        assert p.data.dtype == np.float64
        assert isinstance(p.grad, np.ndarray)
        assert p.size == 6

    def test_linear_forward_backward_bitwise(self):
        rng = _rng(1)
        layer = Linear(5, 3, rng=_rng(1), backend="numpy")
        x = rng.normal(size=(7, 5))
        out = layer.forward(x)
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.array_equal(out, expected)

        g = rng.normal(size=(7, 3))
        grad_in = layer.backward(g)
        assert np.array_equal(grad_in, g @ layer.weight.data)
        assert np.array_equal(layer.weight.grad, g.T @ x)
        assert np.array_equal(layer.bias.grad, g.sum(axis=0))

    def test_relu_bitwise(self):
        rng = _rng(2)
        layer = ReLU(backend="numpy")
        x = rng.normal(size=(4, 6))
        assert np.array_equal(layer.forward(x), np.where(x > 0.0, x, 0.0))
        g = rng.normal(size=(4, 6))
        assert np.array_equal(layer.backward(g), np.where(x > 0.0, g, 0.0))

    def test_flatten_bitwise(self):
        rng = _rng(4)
        layer = Flatten(backend="numpy")
        x = rng.normal(size=(3, 2, 4, 4))
        assert np.array_equal(layer.forward(x), x.reshape(3, -1))
        g = rng.normal(size=(3, 32))
        assert np.array_equal(layer.backward(g), g.reshape(x.shape))

    def test_im2col_extracts_exact_patches(self):
        rng = _rng(5)
        be = NUMPY_BACKEND
        images = rng.normal(size=(2, 3, 6, 6))
        cols, (out_h, out_w) = be.im2col(images, (3, 3), stride=2, padding=1)
        padded = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)))
        assert (out_h, out_w) == (3, 3)
        assert cols.shape == (2, 9, 27)
        for n in range(2):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    assert np.array_equal(cols[n, i * out_w + j], patch.ravel())

    def test_col2im_is_the_adjoint_of_im2col(self):
        rng = _rng(6)
        be = NUMPY_BACKEND
        images = rng.normal(size=(2, 2, 5, 5))
        cols, out_hw = be.im2col(images, (3, 3), stride=1, padding=1)
        grad_cols = rng.normal(size=cols.shape)
        grad_images = be.col2im(grad_cols, images.shape, (3, 3), 1, 1, out_hw)
        # <cols, grad_cols> == <images, col2im(grad_cols)> defines the adjoint.
        assert float(np.sum(cols * grad_cols)) == pytest.approx(
            float(np.sum(images * grad_images)), rel=1e-12
        )

    def test_maxpool_forward_backward_bitwise(self):
        rng = _rng(7)
        layer = MaxPool2d(2, backend="numpy")
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        windows = x.reshape(2, 3, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 2, 2, 4)
        assert np.array_equal(out, windows.max(axis=-1))
        g = rng.normal(size=out.shape)
        grad = layer.backward(g)
        expected = np.zeros_like(windows)
        np.put_along_axis(expected, windows.argmax(axis=-1)[..., None], g[..., None], axis=-1)
        expected = expected.reshape(2, 3, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
        assert np.array_equal(grad, expected)


class TestNumpyLossParity:
    def test_mse_bitwise(self):
        rng = _rng(8)
        pred, target = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        value, grad = MSELoss(backend="numpy")(pred, target)
        diff = pred - target
        assert value == float(np.mean(diff * diff))
        assert np.array_equal(grad, diff * (2.0 / diff.size))

    def test_huber_bitwise(self):
        rng = _rng(9)
        pred, target = rng.normal(size=(6, 4)), rng.normal(size=(6, 4)) * 3.0
        delta = 1.0
        value, grad = HuberLoss(delta, backend="numpy")(pred, target)
        diff = pred - target
        abs_diff = np.abs(diff)
        quadratic = abs_diff <= delta
        values = np.where(quadratic, diff * diff * 0.5, (abs_diff - 0.5 * delta) * delta)
        grads = np.where(quadratic, diff, np.sign(diff) * delta)
        assert value == float(np.mean(values))
        assert np.array_equal(grad, grads / diff.size)


def _synthetic_params(seed, with_clip=None):
    rng = _rng(seed)
    params = [
        Parameter(rng.normal(size=(4, 3)), name="w", backend="numpy"),
        Parameter(rng.normal(size=(4,)), name="b", backend="numpy"),
    ]
    grads = [rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 4))]
    return params, grads


class TestNumpyOptimizerParity:
    """Three in-place steps must equal the original out-of-place expressions bitwise."""

    def _run(self, optimizer, params, grads):
        for step in range(3):
            for param, grad_stream in zip(params, grads):
                param.zero_grad()
                param.grad += grad_stream[step]
            optimizer.step()

    def test_sgd_with_momentum_bitwise(self):
        params, grads = _synthetic_params(10)
        reference = [p.data.copy() for p in params]
        self._run(SGD(params, lr=0.05, momentum=0.9), params, grads)
        velocity = [np.zeros_like(r) for r in reference]
        for step in range(3):
            for i in range(len(reference)):
                velocity[i] = 0.9 * velocity[i] + grads[i][step]
                reference[i] = reference[i] - 0.05 * velocity[i]
        for param, expected in zip(params, reference):
            assert np.array_equal(param.data, expected)

    def test_rmsprop_bitwise(self):
        params, grads = _synthetic_params(11)
        reference = [p.data.copy() for p in params]
        self._run(RMSProp(params, lr=0.01, decay=0.95, epsilon=1e-8), params, grads)
        square_avg = [np.zeros_like(r) for r in reference]
        for step in range(3):
            for i in range(len(reference)):
                g = grads[i][step]
                square_avg[i] = 0.95 * square_avg[i] + (g * g) * (1.0 - 0.95)
                reference[i] = reference[i] - (g * 0.01) / (np.sqrt(square_avg[i]) + 1e-8)
        for param, expected in zip(params, reference):
            assert np.array_equal(param.data, expected)

    def test_adam_with_grad_clip_bitwise(self):
        params, grads = _synthetic_params(12)
        reference = [p.data.copy() for p in params]
        self._run(Adam(params, lr=0.01, grad_clip=0.5), params, grads)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = [np.zeros_like(r) for r in reference]
        v = [np.zeros_like(r) for r in reference]
        for step in range(3):
            c1 = 1.0 - beta1 ** (step + 1)
            c2 = 1.0 - beta2 ** (step + 1)
            for i in range(len(reference)):
                g = np.clip(grads[i][step], -0.5, 0.5)
                m[i] = beta1 * m[i] + g * (1.0 - beta1)
                v[i] = beta2 * v[i] + (g * g) * (1.0 - beta2)
                reference[i] = reference[i] - ((m[i] / c1) * 0.01) / (np.sqrt(v[i] / c2) + eps)
        for param, expected in zip(params, reference):
            assert np.array_equal(param.data, expected)

    def test_steady_state_step_reuses_buffers(self):
        params, grads = _synthetic_params(13)
        optimizer = Adam(params, lr=0.01, grad_clip=0.5)
        self._run(optimizer, params, grads)
        buffers = [id(b) for b in optimizer._scratch1 + optimizer._scratch2 + optimizer._clip_buffers]
        self._run(optimizer, params, grads)
        assert buffers == [
            id(b) for b in optimizer._scratch1 + optimizer._scratch2 + optimizer._clip_buffers
        ]


class TestNumpyQuantFaultParity:
    def test_quantize_backend_kwarg_is_bitwise_identical(self):
        rng = _rng(14)
        state = {"w": rng.normal(size=(8, 8))}
        layout = MemoryLayout.from_state_dict(state)
        default = BitErrorInjector(layout).quantize_state(state)
        explicit = BitErrorInjector(layout, backend=NUMPY_BACKEND).quantize_state(state)
        assert np.array_equal(default.scales, explicit.scales)
        assert np.array_equal(default.words, explicit.words)
        assert default.words.dtype == np.uint8

    def test_injector_inherits_network_backend(self):
        network = Sequential([Linear(4, 2, rng=0, backend="numpy")])
        injector = BitErrorInjector.for_network(network)
        assert injector.backend is network.backend is NUMPY_BACKEND

    def test_count_flipped_bits_matches_python_reference(self):
        rng = _rng(15)
        network = Sequential([Linear(6, 4, rng=1, backend="numpy")])
        injector = BitErrorInjector.for_network(network)
        fault_map = FaultMap.random(injector.memory_bits, 0.05, rng=rng)
        state = network.state_dict()
        measured = injector.count_flipped_bits(state, fault_map)

        reference = 0
        for name, values in state.items():
            segment = injector.layout.segment(name)
            scale = np.abs(values).max() / 127.0 or 1.0 / 127.0  # its own max-abs scale
            codes = _encode(values, scale, 8, NUMPY_BACKEND)
            words = np.mod(codes, 256).ravel()
            corrupted = np.asarray(fault_map.apply_to_words(words, 8, segment.bit_offset))
            for before, after in zip(words, corrupted):
                reference += bin(int(before) ^ int(after)).count("1")
        assert measured == reference > 0

    def test_apply_to_words_backend_kwarg_is_bitwise_identical(self):
        rng = _rng(16)
        words = rng.integers(0, 256, size=64)
        fault_map = FaultMap.random(64 * 8, 0.1, rng=rng)
        default = np.asarray(fault_map.apply_to_words(words, 8))
        explicit = NUMPY_BACKEND.to_numpy(
            fault_map.apply_to_words(words, 8, backend=NUMPY_BACKEND)
        )
        assert np.array_equal(default, explicit)

    def test_popcount_matches_python_reference(self):
        rng = _rng(17)
        words = rng.integers(0, 2**16, size=257)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert NUMPY_BACKEND.popcount(words) == expected


# ---------------------------------------------------------------------- full-run equivalence
_TRAIN_NAV = NavigationConfig(
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

_TRAIN_CONFIG = DqnConfig(
    batch_size=16,
    buffer_capacity=500,
    learning_starts=32,
    train_frequency=2,
    target_update_interval=50,
    epsilon_schedule=LinearDecay(start=1.0, end=0.1, decay_steps=200),
    backend="numpy",
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
    assert np.array_equal(a.replay._observations, b.replay._observations)
    assert a.history == b.history


class TestTrainingEquivalence:
    """The explicit-numpy-backend trainer reproduces the serial reference bitwise."""

    def _trainer(self, kind, lanes):
        env = NavigationEnv(_TRAIN_NAV, rng=3)
        config = replace(_TRAIN_CONFIG, train_lanes=lanes)
        if kind == "berry":
            return BerryTrainer(
                env, policy_spec=mlp((16,)), config=config,
                berry=BerryConfig(ber_percent=1.0), rng=7,
            )
        return DqnTrainer(env, policy_spec=mlp((16,)), config=config, rng=7)

    def test_dqn_numpy_backend_matches_serial_reference(self):
        serial = self._trainer("dqn", lanes=1)
        serial.train_serial(6)
        batched = self._trainer("dqn", lanes=1)
        batched.train(6)
        assert batched.backend is NUMPY_BACKEND
        _assert_trainers_identical(serial, batched)

    def test_berry_numpy_backend_matches_serial_reference(self):
        serial = self._trainer("berry", lanes=1)
        serial.train_serial(6)
        batched = self._trainer("berry", lanes=1)
        batched.train(6)
        assert batched.injector.backend is NUMPY_BACKEND
        _assert_trainers_identical(serial, batched)

    def test_trainer_backend_threads_to_network_and_loss(self):
        trainer = self._trainer("dqn", lanes=1)
        assert trainer.backend is NUMPY_BACKEND
        assert trainer.q_network.backend is NUMPY_BACKEND
        assert trainer.target_network.backend is NUMPY_BACKEND
        assert trainer.loss_fn.backend is NUMPY_BACKEND


# ---------------------------------------------------------------------- torch parity
def _paired_layers(factory):
    """The same layer twice — numpy and torch — with identical initial weights."""
    numpy_layer = factory("numpy")
    torch_layer = factory("torch")
    for p_np, p_t in zip(numpy_layer.parameters(), torch_layer.parameters()):
        np.testing.assert_array_equal(p_np.data, get_backend("torch").to_numpy(p_t.data))
    return numpy_layer, torch_layer


@requires_torch
class TestTorchParity:
    def test_backend_loads_and_identifies(self):
        backend = get_backend("torch")
        assert backend.name == "torch"
        assert backend is get_backend("torch")

    def test_roundtrip_conversion(self):
        backend = get_backend("torch")
        values = _rng(20).normal(size=(3, 4))
        again = backend.to_numpy(backend.asarray(values, "float64"))
        np.testing.assert_array_equal(values, again)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda b: Linear(5, 3, rng=_rng(21), backend=b),
            lambda b: Conv2d(2, 4, kernel_size=3, stride=1, padding=1, rng=_rng(22), backend=b),
            lambda b: Conv2d(1, 2, kernel_size=2, stride=2, rng=_rng(23), backend=b),
            lambda b: ReLU(backend=b),
            lambda b: Flatten(backend=b),
            lambda b: MaxPool2d(2, backend=b),
        ],
        ids=["linear", "conv", "conv-strided", "relu", "flatten", "maxpool"],
    )
    def test_layer_forward_backward_parity(self, factory):
        torch_backend = get_backend("torch")
        numpy_layer, torch_layer = _paired_layers(factory)
        rng = _rng(24)
        if isinstance(numpy_layer, Linear):
            x = rng.normal(size=(6, numpy_layer.in_features))
        elif isinstance(numpy_layer, Conv2d):
            x = rng.normal(size=(2, numpy_layer.in_channels, 6, 6))
        elif isinstance(numpy_layer, MaxPool2d):
            x = rng.permutation(2 * 3 * 4 * 4).astype(np.float64).reshape(2, 3, 4, 4)
        else:
            x = rng.normal(size=(2, 3, 4, 4))
        out_np = numpy_layer.forward(x)
        out_t = torch_backend.to_numpy(torch_layer.forward(torch_backend.asarray(x, "float64")))
        np.testing.assert_allclose(out_t, out_np, rtol=1e-10, atol=1e-12)

        g = rng.normal(size=out_np.shape)
        gin_np = numpy_layer.backward(g)
        gin_t = torch_backend.to_numpy(torch_layer.backward(torch_backend.asarray(g, "float64")))
        np.testing.assert_allclose(gin_t, np.asarray(gin_np), rtol=1e-10, atol=1e-12)
        for p_np, p_t in zip(numpy_layer.parameters(), torch_layer.parameters()):
            np.testing.assert_allclose(
                torch_backend.to_numpy(p_t.grad), p_np.grad, rtol=1e-10, atol=1e-12
            )

    def test_sequential_policy_parity(self):
        def build(backend):
            return build_policy(
                mlp((16, 16)), observation_shape=(8,), num_actions=4,
                rng=_rng(25), backend=backend,
            )

        numpy_net, torch_net = build("numpy"), build("torch")
        x = _rng(26).normal(size=(5, 8))
        np.testing.assert_allclose(
            torch_net.forward(x), numpy_net.forward(x), rtol=1e-10, atol=1e-12
        )
        state = torch_net.state_dict()
        assert all(isinstance(v, np.ndarray) for v in state.values())

    def test_optimizer_parity(self):
        def run(backend):
            rng = _rng(27)
            params = [Parameter(rng.normal(size=(4, 3)), name="w", backend=backend)]
            optimizer = Adam(params, lr=0.01, grad_clip=0.5)
            be = params[0].backend
            for _ in range(5):
                params[0].zero_grad()
                be.add(params[0].grad, be.asarray(rng.normal(size=(4, 3)), "float64"),
                       out=params[0].grad)
                optimizer.step()
            return be.to_numpy(params[0].data)

        np.testing.assert_allclose(run("torch"), run("numpy"), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("loss_factory", [
        lambda backend: MSELoss(backend=backend),
        lambda backend: HuberLoss(1.0, backend=backend),
    ], ids=["mse", "huber"])
    def test_loss_parity(self, loss_factory):
        rng = _rng(28)
        pred, target = rng.normal(size=(6, 4)), rng.normal(size=(6, 4)) * 2.0
        value_np, grad_np = loss_factory("numpy")(pred, target)
        value_t, grad_t = loss_factory("torch")(pred, target)
        assert value_t == pytest.approx(value_np, rel=1e-12)
        np.testing.assert_allclose(grad_t, grad_np, rtol=1e-10, atol=1e-12)

    def test_quantize_round_trip_parity(self):
        rng = _rng(29)
        state = {"w": rng.normal(size=(16, 16))}
        layout = MemoryLayout.from_state_dict(state)
        q_np = BitErrorInjector(layout, backend="numpy").quantize_state(state)
        q_t = BitErrorInjector(layout, backend=get_backend("torch")).quantize_state(state)
        assert q_t.words.dtype == np.uint8  # words contract holds on every backend
        assert q_t.scales[0] == pytest.approx(q_np.scales[0], rel=1e-12)

        def codes(memory):
            return (memory.words.astype(np.int64) ^ 128) - 128

        # Scale agreement to float tolerance can still move a value across a
        # rounding boundary: allow at most one code step of disagreement.
        assert np.max(np.abs(codes(q_t) - codes(q_np))) <= 1

    def test_fault_corruption_is_exact_across_backends(self):
        rng = _rng(30)
        words = rng.integers(0, 256, size=128)
        fault_map = FaultMap.random(128 * 8, 0.08, rng=rng)
        via_numpy = np.asarray(fault_map.apply_to_words(words, 8))
        torch_backend = get_backend("torch")
        via_torch = torch_backend.to_numpy(
            fault_map.apply_to_words(words, 8, backend=torch_backend)
        )
        np.testing.assert_array_equal(via_torch, via_numpy)

    def test_popcount_is_exact(self):
        words = _rng(31).integers(0, 2**16, size=300)
        assert get_backend("torch").popcount(
            get_backend("torch").from_numpy(words)
        ) == NUMPY_BACKEND.popcount(words)

    def test_short_dqn_training_runs_on_torch(self):
        env = NavigationEnv(_TRAIN_NAV, rng=3)
        trainer = DqnTrainer(
            env, policy_spec=mlp((16,)),
            config=replace(_TRAIN_CONFIG, backend="torch"), rng=7,
        )
        history = trainer.train(4)
        assert trainer.backend.name == "torch"
        assert history.total_steps > 0
        state = trainer.q_network.state_dict()
        assert all(isinstance(v, np.ndarray) for v in state.values())
        assert all(np.all(np.isfinite(v)) for v in state.values())

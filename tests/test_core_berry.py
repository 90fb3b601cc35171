"""Tests for the BERRY error-aware trainer (Algorithm 1) and learning modes."""

import numpy as np
import pytest

from repro.core.berry import BerryConfig, BerryTrainer
from repro.core.modes import OnDeviceSession, train_classical, train_offline_berry
from repro.errors import TrainingError
from repro.faults.chips import CHIP_RANDOM
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector
from repro.nn.policies import build_policy, mlp
from repro.rl.dqn import DqnConfig
from repro.rl.replay_buffer import Transition
from repro.rl.schedules import LinearDecay


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


def make_batch(env, size=16, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    shape = env.observation_space.shape
    return Transition(
        observations=rng.normal(size=(size,) + shape),
        actions=rng.integers(0, env.action_space.n, size=size),
        rewards=rng.normal(size=size),
        next_observations=rng.normal(size=(size,) + shape),
        dones=(rng.random(size) < 0.2).astype(np.float64),
    )


def gradients(network) -> dict:
    """Every parameter's gradient, as a numpy copy."""
    return {
        parameter.name: network.backend.to_numpy(parameter.grad, copy=True)
        for parameter in network.parameters()
    }


class TestBerryConfig:
    def test_defaults_are_offline(self):
        config = BerryConfig()
        assert config.injection_mode == "offline"
        assert config.ber_fraction == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(TrainingError):
            BerryConfig(ber_percent=-1.0)
        with pytest.raises(TrainingError):
            BerryConfig(injection_mode="hybrid")
        with pytest.raises(TrainingError):
            BerryConfig(gradient_combination="max")
        with pytest.raises(TrainingError):
            BerryConfig(weight_clip=0.0)
        with pytest.raises(TrainingError):
            BerryConfig(stuck_at_1_bias=1.5)


class TestBerryTrainer:
    def test_offline_mode_samples_fresh_maps(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        a = trainer.sample_fault_map()
        b = trainer.sample_fault_map()
        assert not np.array_equal(a.indices, b.indices)

    def test_on_device_mode_uses_fixed_map(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0, injection_mode="on_device"), rng=0,
        )
        assert trainer.device_fault_map is not None
        assert trainer.sample_fault_map() is trainer.sample_fault_map()

    def test_device_map_rejected_in_offline_mode(self, small_env, fast_config):
        fault_map = FaultMap.empty(10_000_000)
        with pytest.raises(TrainingError):
            BerryTrainer(
                small_env, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(ber_percent=1.0), device_fault_map=fault_map, rng=0,
            )

    def test_too_small_device_map_rejected(self, small_env, fast_config):
        fault_map = FaultMap.empty(8)
        with pytest.raises(TrainingError):
            BerryTrainer(
                small_env, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(ber_percent=1.0, injection_mode="on_device"),
                device_fault_map=fault_map, rng=0,
            )

    def test_zero_ber_degenerates_to_classical_gradient(self, small_env, fast_config):
        berry = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=0.0, weight_clip=None), rng=0,
        )
        batch = make_batch(small_env)
        berry.q_network.zero_grad()
        berry.accumulate_gradients(batch)
        berry_grads = gradients(berry.q_network)

        from repro.rl.dqn import DqnTrainer

        reference = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        reference.q_network.load_state_dict(berry.q_network.state_dict())
        reference.target_network.load_state_dict(berry.target_network.state_dict())
        reference.q_network.zero_grad()
        reference.accumulate_gradients(batch)
        for name, grad in gradients(reference.q_network).items():
            assert np.allclose(grad, berry_grads[name])

    def test_perturbed_pass_contributes_gradient(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=5.0), rng=0,
        )
        batch = make_batch(small_env)
        trainer.q_network.zero_grad()
        loss = trainer.accumulate_gradients(batch)
        assert np.isfinite(loss)
        assert trainer.num_injections == 1

    def test_weight_clip_enforced_after_update(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0, weight_clip=0.05), rng=0,
        )
        # Blow up the weights, then apply one learning step: clipping must bound them.
        for parameter in trainer.q_network.parameters():
            parameter.data += 1.0
        trainer.learn_on_batch(make_batch(small_env))
        for parameter in trainer.q_network.parameters():
            assert np.all(np.abs(parameter.data) <= 0.05 + 1e-12)

    def test_deployed_network_is_quantized_view(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        deployed = trainer.deployed_network()
        for name, values in deployed.state_dict().items():
            original = trainer.q_network.state_dict()[name]
            max_abs = np.abs(original).max()
            step = max_abs / 127.0 if max_abs > 0 else 1.0
            assert np.allclose(values, original, atol=step)

    def test_deployed_network_with_fault_map_differs(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        fault_map = FaultMap.random(trainer.injector.memory_bits, 0.05, rng=0)
        corrupted = trainer.deployed_network(fault_map)
        clean = trainer.deployed_network()
        differences = sum(
            int(np.count_nonzero(~np.isclose(corrupted.state_dict()[n], clean.state_dict()[n])))
            for n in clean.state_dict()
        )
        assert differences > 0

    def test_short_training_run(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        history = trainer.train(4)
        assert history.num_episodes == 4
        if history.gradient_steps > 0:
            assert trainer.num_injections == history.gradient_steps


#: Share of faulty cells that invert their bit, so all three fault kinds occur.
FLIP_FRACTION = 0.3


class FlipMaps:
    """Offline fault maps with inverting cells as well as stuck-at cells."""

    def sample_fault_map(self) -> FaultMap:
        if self.berry.injection_mode == "on_device":
            return self.device_fault_map
        return FaultMap.random(
            self.injector.memory_bits,
            self.berry.ber_fraction,
            rng=self._fault_rng,
            stuck_at_1_bias=self.berry.stuck_at_1_bias,
            flip_fraction=FLIP_FRACTION,
        )


class FlatBerryTrainer(FlipMaps, BerryTrainer):
    """The trainer under test: BERRY's own perturbed pass, on maps with flips."""


class PerTensorBerryTrainer(FlipMaps, BerryTrainer):
    """The reference perturbed pass: clone θ and θ⁻ at every step and run the
    per-tensor operator on both, re-quantizing θ⁻ every time."""

    def __init__(self, *args, perturb, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.perturb = perturb

    def _perturbed(self, network, fault_map):
        clone = network.clone()
        clone.load_state_dict(self.perturb(self.injector, network.state_dict(), fault_map))
        return clone

    def accumulate_gradients(self, batch: Transition) -> float:
        clean_targets = self.compute_td_targets(batch, self.target_network)
        clean_loss = self.td_loss_and_backward(self.q_network, batch, clean_targets)
        fault_map = self.sample_fault_map()
        perturbed_q = self._perturbed(self.q_network, fault_map)
        if self.berry.perturb_target:
            perturbed_target = self._perturbed(self.target_network, fault_map)
        else:
            perturbed_target = self.target_network
        perturbed_targets = self.compute_td_targets(batch, perturbed_target)
        perturbed_q.zero_grad()
        perturbed_loss = self.td_loss_and_backward(perturbed_q, batch, perturbed_targets)
        self.num_injections += 1
        scale = 0.5 if self.berry.gradient_combination == "mean" else 1.0
        for parameter in self.q_network.parameters():
            self.backend.multiply(parameter.grad, scale, out=parameter.grad)
        for parameter, perturbed in zip(self.q_network.parameters(), perturbed_q.parameters()):
            self.backend.add(
                parameter.grad, self.backend.multiply(perturbed.grad, scale), out=parameter.grad
            )
        return 0.5 * (clean_loss + perturbed_loss)


def berry_pair(env, config, berry, per_tensor_berr):
    """A trainer under test and its per-tensor reference, from the same seeds."""
    device_fault_map = None
    if berry.injection_mode == "on_device":
        network = build_policy(mlp((16,)), env.observation_space.shape, env.action_space.n)
        device_fault_map = FaultMap.random(
            BitErrorInjector.for_network(network).memory_bits,
            berry.ber_fraction,
            rng=11,
            flip_fraction=FLIP_FRACTION,
        )
    common = dict(
        policy_spec=mlp((16,)), config=config, berry=berry,
        device_fault_map=device_fault_map, rng=0,
    )
    flat = FlatBerryTrainer(env, **common)
    reference = PerTensorBerryTrainer(env, perturb=per_tensor_berr, **common)
    return flat, reference


def drive(trainer, steps: int, sync_every: int, first_batch: int = 0) -> list:
    """``steps`` gradient steps on fixed batches, syncing θ⁻ every ``sync_every``."""
    losses = []
    for step in range(steps):
        losses.append(trainer.learn_on_batch(make_batch(trainer.env, rng_seed=first_batch + step)))
        if (step + 1) % sync_every == 0:
            trainer.sync_target_network()
    return losses


def assert_same_weights(trainer, reference) -> None:
    for network in ("q_network", "target_network"):
        state = getattr(trainer, network).state_dict()
        expected = getattr(reference, network).state_dict()
        assert list(state) == list(expected)
        for name, values in expected.items():
            assert state[name].tobytes() == values.tobytes(), (network, name)


class TestFlatPerturbedPass:
    """BERRY's perturbed pass on the flat word memory trains bitwise like the
    per-tensor operator: same losses, same θ and θ⁻ after every step."""

    @pytest.mark.parametrize("ber_percent", [1.0, 30.0])
    @pytest.mark.parametrize("perturb_target", [True, False])
    @pytest.mark.parametrize("mode", ["offline", "on_device"])
    def test_weights_match_the_per_tensor_reference(
        self, small_env, fast_config, per_tensor_berr, mode, perturb_target, ber_percent
    ):
        berry = BerryConfig(
            ber_percent=ber_percent, injection_mode=mode, perturb_target=perturb_target
        )
        flat, reference = berry_pair(small_env, fast_config, berry, per_tensor_berr)
        losses = drive(flat, steps=40, sync_every=10)
        expected = drive(reference, steps=40, sync_every=10)
        assert losses == expected
        assert flat.num_injections == reference.num_injections == 40
        assert_same_weights(flat, reference)

    def test_training_loop_matches_the_per_tensor_reference(
        self, small_env, fast_config, per_tensor_berr
    ):
        flat, reference = berry_pair(
            small_env, fast_config, BerryConfig(ber_percent=1.0), per_tensor_berr
        )
        flat.train(20)
        reference.train(20)
        assert flat.history.gradient_steps == reference.history.gradient_steps >= 30
        assert flat.history.losses == reference.history.losses
        assert_same_weights(flat, reference)

    def test_target_written_without_sync_reaches_the_next_pass(
        self, small_env, fast_config, per_tensor_berr
    ):
        flat, reference = berry_pair(
            small_env, fast_config, BerryConfig(ber_percent=5.0), per_tensor_berr
        )
        for trainer in (flat, reference):
            drive(trainer, steps=5, sync_every=100)
        rng = np.random.default_rng(5)
        rewritten = {
            name: values + rng.normal(scale=0.05, size=values.shape)
            for name, values in flat.target_network.state_dict().items()
        }
        for trainer in (flat, reference):
            trainer.target_network.load_state_dict(rewritten)
            drive(trainer, steps=3, sync_every=100, first_batch=5)
        assert_same_weights(flat, reference)


class TestModes:
    def test_train_classical_returns_trainer(self, small_env, fast_config):
        trainer = train_classical(small_env, 3, policy_spec=mlp((16,)), config=fast_config, rng=0)
        assert trainer.history.num_episodes == 3

    def test_train_offline_berry_returns_berry_trainer(self, small_env, fast_config):
        trainer = train_offline_berry(
            small_env, 3, ber_percent=1.0, policy_spec=mlp((16,)), config=fast_config, rng=0
        )
        assert isinstance(trainer, BerryTrainer)
        assert trainer.berry.injection_mode == "offline"

    def test_train_offline_berry_rejects_on_device_config(self, small_env, fast_config):
        with pytest.raises(TrainingError):
            train_offline_berry(
                small_env, 1, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(injection_mode="on_device"), rng=0,
            )

    def test_on_device_session_runs_and_accounts_energy(self, small_env, fast_config):
        session = OnDeviceSession(
            small_env, CHIP_RANDOM, normalized_voltage=0.73,
            policy_spec=mlp((16,)), config=fast_config, rng=0,
        )
        result = session.run(num_learning_steps=60, max_episodes=20)
        assert result.num_learning_steps >= 60 or result.trainer.history.num_episodes == 20
        assert result.normalized_voltage == pytest.approx(0.73)
        assert result.learning_energy_j == 0.0  # no accelerator model attached
        assert result.device_fault_map.num_faults >= 0

    def test_on_device_session_warm_start(self, small_env, fast_config):
        pretrained = train_classical(small_env, 2, policy_spec=mlp((16,)), config=fast_config, rng=0)
        session = OnDeviceSession(
            small_env, CHIP_RANDOM, normalized_voltage=0.75,
            policy_spec=mlp((16,)), config=fast_config, rng=1,
        )
        session.warm_start(pretrained.q_network.state_dict())
        state = session.trainer.q_network.state_dict()
        for name, values in pretrained.q_network.state_dict().items():
            assert np.array_equal(state[name], values)

    def test_on_device_invalid_voltage(self, small_env, fast_config):
        with pytest.raises(TrainingError):
            OnDeviceSession(small_env, CHIP_RANDOM, normalized_voltage=0.0, config=fast_config)

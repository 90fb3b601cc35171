"""Tests for the Sequential network container."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Linear, ReLU
from repro.nn.network import Sequential
from repro.nn.policies import build_policy, mlp


@pytest.fixture
def network() -> Sequential:
    return build_policy(mlp((8, 8)), observation_shape=(5,), num_actions=3, rng=0)


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_duplicate_layer_names_are_disambiguated(self):
        net = Sequential([Linear(3, 3, rng=0, name="fc"), ReLU(), Linear(3, 2, rng=1, name="fc")])
        names = list(net.named_parameters())
        assert "fc.weight" in names and "fc_1.weight" in names

    def test_num_parameters(self, network):
        expected = 5 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3
        assert network.num_parameters() == expected


class TestForwardBackward:
    def test_forward_shape(self, network):
        out = network.forward(np.zeros((7, 5)))
        assert out.shape == (7, 3)

    def test_backward_returns_input_gradient(self, network):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out = network.forward(x)
        grad = network.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_zero_grad(self, network):
        x = np.random.default_rng(0).normal(size=(4, 5))
        network.backward(np.ones_like(network.forward(x)))
        network.zero_grad()
        assert all(np.all(p.grad == 0) for p in network.parameters())


class TestStateManagement:
    def test_state_dict_round_trip(self, network):
        state = network.state_dict()
        clone = build_policy(mlp((8, 8)), observation_shape=(5,), num_actions=3, rng=99)
        clone.load_state_dict(state)
        x = np.random.default_rng(1).normal(size=(3, 5))
        assert np.allclose(network.forward(x), clone.forward(x))

    def test_load_rejects_missing_keys(self, network):
        state = network.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ConfigurationError):
            network.load_state_dict(state)

    def test_load_rejects_wrong_shape(self, network):
        state = network.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ShapeError):
            network.load_state_dict(state)

    def test_clone_is_independent(self, network):
        clone = network.clone()
        clone.parameters()[0].data += 1.0
        assert not np.allclose(clone.parameters()[0].data, network.parameters()[0].data)

    def test_copy_from(self, network):
        other = build_policy(mlp((8, 8)), observation_shape=(5,), num_actions=3, rng=7)
        other.copy_from(network)
        x = np.random.default_rng(2).normal(size=(2, 5))
        assert np.allclose(other.forward(x), network.forward(x))


class TestIntrospection:
    def test_layer_shapes_and_output_dim(self, network):
        shapes = network.layer_shapes()
        assert shapes[-1][1] == (3,)
        assert network.output_dim() == 3

    def test_layer_shapes_requires_input_shape(self):
        net = Sequential([Linear(4, 2, rng=0)])
        with pytest.raises(ConfigurationError):
            net.layer_shapes()

    def test_summary_mentions_layers(self, network):
        text = network.summary()
        assert "Linear" in text and "parameters" in text

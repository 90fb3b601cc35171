"""Tests for the policy architecture builders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Conv2d, Linear
from repro.nn.policies import (
    build_policy,
    c3f2,
    c5f4,
    get_policy_spec,
    mlp,
    parameter_footprint_bytes,
)


class TestSpecs:
    def test_c3f2_structure(self):
        spec = c3f2()
        assert spec.num_conv == 3
        assert spec.num_fc == 2

    def test_c5f4_structure(self):
        spec = c5f4()
        assert spec.num_conv == 5
        assert spec.num_fc == 4

    def test_c5f4_has_more_parameters_than_c3f2(self):
        shape, actions = (3, 20, 20), 25
        small = build_policy(c3f2(), shape, actions, rng=0)
        large = build_policy(c5f4(), shape, actions, rng=0)
        assert large.num_parameters() > 1.5 * small.num_parameters()

    def test_width_multiplier_scales_parameters(self):
        shape, actions = (3, 20, 20), 25
        narrow = build_policy(c3f2(0.25), shape, actions, rng=0)
        wide = build_policy(c3f2(1.0), shape, actions, rng=0)
        assert wide.num_parameters() > narrow.num_parameters()

    def test_invalid_width_multiplier(self):
        with pytest.raises(ConfigurationError):
            c3f2(0.0)

    def test_mlp_validation(self):
        with pytest.raises(ConfigurationError):
            mlp(())
        with pytest.raises(ConfigurationError):
            mlp((0,))

    def test_describe_mentions_layers(self):
        assert "conv1" in c3f2().describe()
        assert "fc" in mlp((32,)).describe()

    def test_registry_lookup(self):
        assert get_policy_spec("c3f2").name == "C3F2"
        assert get_policy_spec("C5F4").name == "C5F4"
        with pytest.raises(ConfigurationError):
            get_policy_spec("resnet")


class TestBuildPolicy:
    def test_mlp_forward_shape(self):
        net = build_policy(mlp((16,)), (7,), 4, rng=0)
        assert net.forward(np.zeros((3, 7))).shape == (3, 4)

    def test_conv_forward_shape(self):
        net = build_policy(c3f2(0.25), (3, 20, 20), 25, rng=0)
        assert net.forward(np.zeros((2, 3, 20, 20))).shape == (2, 25)

    def test_mlp_flattens_multidimensional_observation(self):
        net = build_policy(mlp((8,)), (2, 3, 3), 4, rng=0)
        assert net.forward(np.zeros((2, 2, 3, 3))).shape == (2, 4)

    def test_conv_requires_image_observation(self):
        with pytest.raises(ConfigurationError):
            build_policy(c3f2(), (10,), 4, rng=0)

    def test_invalid_num_actions(self):
        with pytest.raises(ConfigurationError):
            build_policy(mlp(), (4,), 0, rng=0)

    def test_invalid_observation_shape(self):
        with pytest.raises(ConfigurationError):
            build_policy(mlp(), (0,), 3, rng=0)

    def test_deterministic_given_seed(self):
        a = build_policy(mlp((8,)), (4,), 3, rng=5)
        b = build_policy(mlp((8,)), (4,), 3, rng=5)
        x = np.random.default_rng(0).normal(size=(2, 4))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_layer_naming_is_sequential(self):
        net = build_policy(c3f2(0.25), (1, 16, 16), 5, rng=0)
        conv_names = [l.name for l in net.layers if isinstance(l, Conv2d)]
        fc_names = [l.name for l in net.layers if isinstance(l, Linear)]
        assert conv_names == ["conv1", "conv2", "conv3"]
        assert fc_names == ["fc1", "q_head"]


class TestFootprint:
    def test_8bit_footprint_equals_parameter_count(self):
        net = build_policy(mlp((8,)), (4,), 3, rng=0)
        assert parameter_footprint_bytes(net, bits_per_weight=8) == net.num_parameters()

    def test_4bit_footprint_halves(self):
        net = build_policy(mlp((8,)), (4,), 3, rng=0)
        assert parameter_footprint_bytes(net, 4) == (net.num_parameters() + 1) // 2

    def test_invalid_bits(self):
        net = build_policy(mlp((8,)), (4,), 3, rng=0)
        with pytest.raises(ConfigurationError):
            parameter_footprint_bytes(net, 0)

    def test_paper_scale_c3f2_is_megabyte_class(self):
        """The full-resolution C3F2 policy should be ~1 MB of 8-bit weights (paper: 1.1 MB)."""
        net = build_policy(c3f2(), (3, 36, 36), 25, rng=0)
        footprint = parameter_footprint_bytes(net, 8)
        assert 0.5e6 < footprint < 2.5e6

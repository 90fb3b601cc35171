"""Tests for neural-network layers, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, Parameter, ReLU


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar function with respect to ``array``."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = array[index]
        array[index] = original + epsilon
        upper = function()
        array[index] = original - epsilon
        lower = function()
        array[index] = original
        grad[index] = (upper - lower) / (2 * epsilon)
        it.iternext()
    return grad


def check_layer_gradients(layer, inputs, atol=1e-5):
    """Compare analytical input/parameter gradients against finite differences."""
    def scalar_loss():
        return float(np.sum(layer.forward(inputs) ** 2))

    outputs = layer.forward(inputs)
    for parameter in layer.parameters():
        parameter.zero_grad()
    grad_inputs = layer.backward(2.0 * outputs)

    numeric_input_grad = numerical_gradient(scalar_loss, inputs)
    assert np.allclose(grad_inputs, numeric_input_grad, atol=atol), "input gradient mismatch"

    for parameter in layer.parameters():
        numeric = numerical_gradient(scalar_loss, parameter.data)
        # Re-run forward/backward because numerical_gradient perturbed the weights.
        layer.forward(inputs)
        assert np.allclose(parameter.grad, numeric, atol=atol), f"{parameter.name} gradient mismatch"


class TestParameter:
    def test_copy_requires_matching_shape(self):
        a = Parameter(np.zeros((2, 3)))
        b = Parameter(np.ones((2, 3)))
        a.copy_(b)
        assert np.array_equal(a.data, b.data)
        with pytest.raises(ShapeError):
            a.copy_(Parameter(np.zeros((3, 2))))

    def test_zero_grad(self):
        p = Parameter(np.ones(4))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(3, 2, rng=0)
        layer.weight.data = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out, [[1.5, 3.5]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, rng=rng)
        inputs = rng.normal(size=(5, 4))
        check_layer_gradients(layer, inputs)

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_shape_rejected(self):
        layer = Linear(3, 2, rng=0)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            Linear(3, 2, rng=0).backward(np.zeros((1, 2)))

    def test_output_shape(self):
        assert Linear(3, 7, rng=0).output_shape((3,)) == (7,)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            Linear(0, 2)


class TestConv2d:
    def test_output_shape_formula(self):
        layer = Conv2d(2, 4, kernel_size=3, stride=2, padding=1, rng=0)
        assert layer.output_shape((2, 9, 9)) == (4, 5, 5)

    def test_forward_matches_manual_convolution(self):
        layer = Conv2d(1, 1, kernel_size=2, rng=0, bias=False)
        layer.weight.data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        image = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = layer.forward(image)
        # Top-left window: [[0,1],[3,4]] -> 0*1 + 1*2 + 3*3 + 4*4 = 27
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx(27.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        inputs = rng.normal(size=(2, 2, 5, 5))
        check_layer_gradients(layer, inputs, atol=1e-4)

    def test_strided_gradients(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(1, 2, kernel_size=2, stride=2, rng=rng)
        inputs = rng.normal(size=(2, 1, 6, 6))
        check_layer_gradients(layer, inputs, atol=1e-4)

    def test_too_small_input_rejected(self):
        layer = Conv2d(1, 1, kernel_size=5, rng=0)
        with pytest.raises(ShapeError):
            layer.output_shape((1, 3, 3))

    def test_wrong_channel_count_rejected(self):
        layer = Conv2d(3, 4, kernel_size=3, rng=0)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 8, 8)))


class TestActivations:
    def test_relu_forward_backward(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.5], [2.0, -3.0]])
        out = layer.forward(x)
        assert np.allclose(out, [[0.0, 0.5], [2.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        assert np.allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_activation_shape_preserved(self):
        assert ReLU().output_shape((3, 4, 5)) == (3, 4, 5)


class TestFlattenAndPool:
    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.random.default_rng(0).normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        assert layer.backward(out).shape == x.shape

    def test_flatten_output_shape(self):
        assert Flatten().output_shape((2, 4, 4)) == (32,)

    def test_maxpool_forward(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert layer.forward(x)[0, 0, 0, 0] == 4.0

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        grad = layer.backward(np.array([[[[5.0]]]]))
        assert grad[0, 0, 1, 1] == 5.0
        assert grad.sum() == 5.0

    def test_maxpool_requires_divisible_dims(self):
        layer = MaxPool2d(2)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 3, 3)))

    def test_maxpool_gradcheck(self):
        rng = np.random.default_rng(3)
        layer = MaxPool2d(2)
        # Use well-separated values to avoid ties that break finite differences.
        inputs = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        check_layer_gradients(layer, inputs, atol=1e-4)

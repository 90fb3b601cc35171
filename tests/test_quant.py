"""Tests for fixed-point quantization, including property-based round trips."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuantizationError
from repro.quant.fixed_point import (
    QuantizationConfig,
    dequantize,
    dequantize_state_dict,
    quantization_round_trip,
    quantization_step,
    quantize,
    quantize_state_dict,
)
from repro.quant.qtensor import QuantizedTensor


finite_arrays = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
).map(lambda values: np.array(values, dtype=np.float64))


class TestQuantizationConfig:
    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            QuantizationConfig(bits=1)
        with pytest.raises(QuantizationError):
            QuantizationConfig(bits=32)

    def test_invalid_quantile(self):
        with pytest.raises(QuantizationError):
            QuantizationConfig(clip_quantile=0.0)


class TestQuantize:
    @given(values=finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_error_bounded_by_half_step(self, values):
        config = QuantizationConfig(bits=8)
        tensor = quantize(values, config)
        step = quantization_step(values, config)
        assert tensor.quantization_error(values) <= 0.5 * step + 1e-12

    @given(values=finite_arrays, bits=st.integers(min_value=4, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_codes_within_representable_range(self, values, bits):
        tensor = quantize(values, QuantizationConfig(bits=bits))
        low, high = tensor.code_range
        assert tensor.codes.min() >= low and tensor.codes.max() <= high

    def test_higher_precision_reduces_error(self):
        values = np.random.default_rng(0).normal(size=200)
        err8 = quantize(values, QuantizationConfig(bits=8)).quantization_error(values)
        err4 = quantize(values, QuantizationConfig(bits=4)).quantization_error(values)
        assert err8 < err4

    def test_all_zero_array(self):
        tensor = quantize(np.zeros(10))
        assert np.all(tensor.codes == 0)
        assert np.all(tensor.dequantize() == 0.0)

    def test_nan_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([1.0, np.nan]))

    def test_clip_quantile_reduces_scale(self):
        values = np.concatenate([np.full(99, 0.1), [10.0]])
        full = quantize(values, QuantizationConfig(clip_quantile=1.0))
        clipped = quantize(values, QuantizationConfig(clip_quantile=0.95))
        assert clipped.scale < full.scale

    def test_dequantize_helper(self):
        values = np.array([0.5, -0.25])
        assert np.allclose(dequantize(quantize(values)), values, atol=0.01)


class TestStateDict:
    def make_state(self):
        rng = np.random.default_rng(1)
        return {"a.weight": rng.normal(size=(4, 3)), "b.weight": 10.0 * rng.normal(size=(2,))}

    def test_per_layer_scales_differ(self):
        quantized = quantize_state_dict(self.make_state(), QuantizationConfig(per_layer=True))
        assert quantized["a.weight"].scale != quantized["b.weight"].scale

    def test_global_scale_shared(self):
        quantized = quantize_state_dict(self.make_state(), QuantizationConfig(per_layer=False))
        assert quantized["a.weight"].scale == quantized["b.weight"].scale

    def test_global_scale_rejects_nan_before_encoding(self):
        state = self.make_state()
        state["b.weight"][0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN reaches the integer cast
            with pytest.raises(QuantizationError):
                quantize_state_dict(state, QuantizationConfig(per_layer=False))

    def test_round_trip_preserves_shapes(self):
        state = self.make_state()
        restored = quantization_round_trip(state)
        assert set(restored) == set(state)
        for name in state:
            assert restored[name].shape == state[name].shape
            assert np.allclose(restored[name], state[name], atol=quantization_step(state[name]))

    def test_dequantize_state_dict(self):
        state = self.make_state()
        quantized = quantize_state_dict(state)
        restored = dequantize_state_dict(quantized)
        assert all(isinstance(v, np.ndarray) for v in restored.values())


class TestQuantizedTensor:
    def test_unsigned_round_trip(self):
        tensor = quantize(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
        rebuilt = QuantizedTensor.from_unsigned(tensor.to_unsigned(), tensor.scale, tensor.bits)
        assert np.array_equal(rebuilt.codes, tensor.codes)

    @given(values=finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_bitplane_round_trip(self, values):
        tensor = quantize(values)
        rebuilt = QuantizedTensor.from_bitplanes(tensor.to_bitplanes(), tensor.scale, tensor.bits)
        assert np.array_equal(rebuilt.codes, tensor.codes)

    def test_unsigned_range_validation(self):
        with pytest.raises(QuantizationError):
            QuantizedTensor.from_unsigned(np.array([256]), scale=0.1, bits=8)

    def test_invalid_scale(self):
        with pytest.raises(QuantizationError):
            QuantizedTensor(codes=np.array([0]), scale=0.0, bits=8)

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(QuantizationError):
            QuantizedTensor(codes=np.array([300]), scale=0.1, bits=8)

    def test_num_bits_total(self):
        tensor = quantize(np.zeros((3, 5)))
        assert tensor.num_bits_total == 15 * 8

    def test_copy_is_independent(self):
        tensor = quantize(np.array([1.0, 2.0]))
        copy = tensor.copy()
        copy.codes[0] = 0
        assert tensor.codes[0] != 0

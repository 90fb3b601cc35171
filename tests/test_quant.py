"""Tests for the injector's fixed-point quantizer, including property-based round trips.

Every network is quantized by :meth:`BitErrorInjector.quantize_state` into one
flat word memory; these tests check that memory tensor by tensor.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultModelError, QuantizationError
from repro.faults.injection import BitErrorInjector, MemoryLayout


finite_arrays = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
).map(lambda values: np.array(values, dtype=np.float64))


def _injector(state, bits: int = 8) -> BitErrorInjector:
    return BitErrorInjector(MemoryLayout.from_state_dict(state, bits))


def _quantize(values, bits: int = 8):
    """One tensor's flat word memory."""
    state = {"w": values}
    return _injector(state, bits).quantize_state(state)


def _round_trip_error(values, bits: int = 8) -> float:
    memory = _quantize(values, bits)
    return float(np.max(np.abs(memory.dequantize(memory.words) - values)))


class TestWordWidth:
    def test_invalid_bits(self):
        for bits in (1, 17, 32):
            with pytest.raises(FaultModelError):
                MemoryLayout({"w": (3,)}, bits_per_value=bits)


class TestQuantize:
    @given(values=finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_error_bounded_by_half_step(self, values):
        step = _quantize(values).scales[0]
        assert _round_trip_error(values) <= 0.5 * step + 1e-12

    @given(values=finite_arrays, bits=st.integers(min_value=4, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_codes_within_representable_range(self, values, bits):
        words = _quantize(values, bits).words
        assert words.min() >= 0 and words.max() < 1 << bits

    def test_higher_precision_reduces_error(self):
        values = np.random.default_rng(0).normal(size=200)
        assert _round_trip_error(values, bits=8) < _round_trip_error(values, bits=4)

    def test_all_zero_array(self):
        memory = _quantize(np.zeros(10))
        assert np.all(memory.words == 0)
        assert np.all(memory.dequantize(memory.words) == 0.0)

    def test_nan_rejected(self):
        state = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, np.nan])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN reaches the integer cast
            with pytest.raises(QuantizationError):
                _injector(state).quantize_state(state)

    def test_subnormal_scale_falls_back(self):
        values = np.array([5e-324, -5e-324, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero scale
            memory = _quantize(values)
            restored = memory.dequantize(memory.words)
        scale = memory.scales[0]
        assert np.isfinite(scale) and scale > 0.0
        assert np.all(restored == 0.0)

    def test_dequantize_helper(self):
        values = np.array([0.5, -0.25])
        memory = _quantize(values)
        assert np.allclose(memory.dequantize(memory.words), values, atol=0.01)


class TestStateDict:
    def make_state(self):
        rng = np.random.default_rng(1)
        return {"a.weight": rng.normal(size=(4, 3)), "b.weight": 10.0 * rng.normal(size=(2,))}

    def test_each_tensor_gets_its_own_scale(self):
        state = self.make_state()
        scales = _injector(state).quantize_state(state).scales
        assert scales[0] != scales[1]
        for scale, values in zip(scales, state.values()):
            assert scale == np.abs(values).max() / 127.0

    @given(
        tensors=st.lists(
            st.one_of(
                finite_arrays,
                st.integers(1, 8).map(np.zeros),
                st.sampled_from([5e-324, -1e-310, 2.2e-308]).map(lambda v: np.array([v, 0.0])),
            ),
            min_size=1,
            max_size=6,
        ),
        bits=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_scales_match_a_per_tensor_search(self, tensors, bits):
        state = {f"t{index}": values for index, values in enumerate(tensors)}
        scales = _injector(state, bits).quantize_state(state).scales
        max_code = float(2 ** (bits - 1) - 1)
        for scale, values in zip(scales, tensors):
            assert scale == (float(np.abs(values).max()) / max_code or 1.0 / max_code)

    def test_empty_tensor_rejected(self):
        state = {"a": np.ones(3), "b": np.zeros((0, 4))}
        with pytest.raises(QuantizationError, match="empty"):
            _injector(state).quantize_state(state)

    def test_round_trip_preserves_shapes(self):
        state = self.make_state()
        restored = _injector(state).quantize_only(state)
        assert list(restored) == list(state)
        for name in state:
            assert isinstance(restored[name], np.ndarray)
            assert restored[name].shape == state[name].shape
            step = np.abs(state[name]).max() / 127.0
            assert np.allclose(restored[name], state[name], atol=step)

    def test_global_scale_rejects_nan_before_encoding(self):
        # A NaN in a later tensor of the state is caught before any tensor is encoded.
        state = self.make_state()
        state["b.weight"][0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN reaches the integer cast
            with pytest.raises(QuantizationError):
                _injector(state).quantize_state(state)

    def test_dequantize_state_dict(self):
        state = self.make_state()
        injector = _injector(state)
        memory = injector.quantize_state(state)
        restored = injector.layout.unflatten(memory.dequantize(memory.words))
        assert list(restored) == list(state)
        assert all(isinstance(v, np.ndarray) for v in restored.values())


class TestWords:
    def test_unsigned_round_trip(self):
        memory = _quantize(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
        codes = np.array([-127, -64, 0, 64, 127])
        assert memory.words.tolist() == np.mod(codes, 256).tolist()
        assert np.array_equal(memory.dequantize(memory.words), codes * memory.scales[0])

    def test_num_bits_total(self):
        memory = _quantize(np.zeros((3, 5)))
        assert memory.words.size == 15
        assert memory.layout.total_bits == 15 * 8

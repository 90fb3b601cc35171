"""Tests for fault maps, the BErr_p injection operator and chip profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultModelError
from repro.faults.chips import CHIP_COLUMN_ALIGNED, CHIP_RANDOM, ChipProfile, get_chip
from repro.faults.fault_map import FaultKind, FaultMap
from repro.faults.injection import BitErrorInjector, MemoryLayout
from repro.faults.sram import SramGeometry
from repro.nn.policies import build_policy, mlp
from repro.obs import collecting_metrics
from repro.utils.warmcache import clear_warm_caches


class TestFaultMap:
    def test_empty_map_has_no_faults(self):
        fault_map = FaultMap.empty(1000)
        assert fault_map.num_faults == 0
        assert fault_map.ber_fraction == 0.0

    @given(
        memory_bits=st.integers(min_value=100, max_value=50_000),
        ber=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_map_hits_target_ber(self, memory_bits, ber):
        fault_map = FaultMap.random(memory_bits, ber, rng=0)
        assert fault_map.num_faults == int(round(ber * memory_bits))
        assert len(np.unique(fault_map.indices)) == fault_map.num_faults
        if fault_map.num_faults:
            assert fault_map.indices.max() < memory_bits

    def test_stuck_at_1_bias_controls_kinds(self):
        all_ones = FaultMap.random(20_000, 0.05, rng=0, stuck_at_1_bias=1.0)
        counts = all_ones.kind_counts()
        assert counts[FaultKind.STUCK_AT_1] == all_ones.num_faults
        all_zeros = FaultMap.random(20_000, 0.05, rng=0, stuck_at_1_bias=0.0)
        assert all_zeros.kind_counts()[FaultKind.STUCK_AT_0] == all_zeros.num_faults

    def test_flip_fraction(self):
        fault_map = FaultMap.random(20_000, 0.05, rng=0, flip_fraction=1.0)
        assert fault_map.kind_counts()[FaultKind.FLIP] == fault_map.num_faults

    def test_invalid_ber_rejected(self):
        with pytest.raises(FaultModelError):
            FaultMap.random(100, 1.5, rng=0)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(FaultModelError):
            FaultMap(memory_bits=10, indices=np.array([1, 1]), kinds=np.array([1, 1]))
        with pytest.raises(FaultModelError, match="unique"):
            FaultMap(memory_bits=10, indices=np.array([7, 2, 9, 2]), kinds=np.zeros(4))

    @pytest.mark.parametrize("indices", [[3, -1], [0, 10], [12, 4]])
    def test_indices_outside_the_memory_rejected(self, indices):
        with pytest.raises(FaultModelError, match="inside the memory"):
            FaultMap(memory_bits=10, indices=np.array(indices), kinds=np.zeros(2))

    @pytest.mark.parametrize("bad_kind", [3, -1, 127])
    def test_invalid_kinds_rejected(self, bad_kind):
        with pytest.raises(FaultModelError, match="FaultKind"):
            FaultMap(memory_bits=10, indices=np.array([4, 1, 8]), kinds=np.array([0, bad_kind, 2]))

    def test_valid_map_keeps_its_index_order(self):
        fault_map = FaultMap(
            memory_bits=10, indices=np.array([9, 0, 4]), kinds=np.array([2, 0, 1])
        )
        assert fault_map.indices.tolist() == [9, 0, 4]
        assert fault_map.kinds.tolist() == [2, 0, 1]

    def test_apply_stuck_at_1_sets_bit(self):
        fault_map = FaultMap(
            memory_bits=8, indices=np.array([0]), kinds=np.array([int(FaultKind.STUCK_AT_1)])
        )
        corrupted = fault_map.apply_to_words(np.array([0]), bits_per_word=8)
        assert corrupted[0] == 1

    def test_apply_stuck_at_0_clears_bit(self):
        fault_map = FaultMap(
            memory_bits=8, indices=np.array([3]), kinds=np.array([int(FaultKind.STUCK_AT_0)])
        )
        corrupted = fault_map.apply_to_words(np.array([0xFF]), bits_per_word=8)
        assert corrupted[0] == 0xFF & ~0x08

    def test_apply_flip_inverts_bit(self):
        fault_map = FaultMap(
            memory_bits=8, indices=np.array([7]), kinds=np.array([int(FaultKind.FLIP)])
        )
        assert fault_map.apply_to_words(np.array([0]), 8)[0] == 0x80
        assert fault_map.apply_to_words(np.array([0x80]), 8)[0] == 0

    def test_apply_respects_bit_offset(self):
        fault_map = FaultMap(
            memory_bits=32, indices=np.array([17]), kinds=np.array([int(FaultKind.STUCK_AT_1)])
        )
        words = np.zeros(2, dtype=np.int64)
        corrupted = fault_map.apply_to_words(words, bits_per_word=8, bit_offset=16)
        assert corrupted[0] == 2 and corrupted[1] == 0

    def test_apply_out_of_range_rejected(self):
        fault_map = FaultMap.empty(16)
        with pytest.raises(FaultModelError):
            fault_map.apply_to_words(np.zeros(4, dtype=np.int64), bits_per_word=8)

    def test_apply_does_not_modify_input(self):
        fault_map = FaultMap(
            memory_bits=8, indices=np.array([0]), kinds=np.array([int(FaultKind.STUCK_AT_1)])
        )
        words = np.zeros(1, dtype=np.int64)
        fault_map.apply_to_words(words, 8)
        assert words[0] == 0

    def test_restrict(self):
        fault_map = FaultMap(
            memory_bits=100,
            indices=np.array([5, 50, 95]),
            kinds=np.array([1, 2, 1]),
        )
        sub = fault_map.restrict(40, 30)
        assert sub.num_faults == 1
        assert sub.indices[0] == 10

    def test_column_aligned_pattern_clusters_in_columns(self):
        geometry = SramGeometry(rows=64, columns=32, banks=4)
        fault_map = FaultMap.column_aligned(geometry, 0.02, rng=0)
        _, _, columns = geometry.decompose(fault_map.indices)
        bank, _, col = geometry.decompose(fault_map.indices)
        distinct_columns = len(set(zip(bank.tolist(), col.tolist())))
        # Faults should concentrate in far fewer columns than a uniform pattern would use.
        assert distinct_columns <= fault_map.num_faults / 10
        assert fault_map.num_faults > 0


class TestMemoryLayoutAndInjector:
    @pytest.fixture
    def network(self):
        return build_policy(mlp((12,)), (5,), 4, rng=0)

    def test_layout_is_contiguous(self, network):
        layout = MemoryLayout.from_network(network, bits_per_value=8)
        segments = sorted(layout.segments().values(), key=lambda s: s.bit_offset)
        offset = 0
        for segment in segments:
            assert segment.bit_offset == offset
            offset += segment.num_values * 8
        assert layout.total_bits == offset == network.num_parameters() * 8

    def test_unknown_segment_rejected(self, network):
        layout = MemoryLayout.from_network(network)
        with pytest.raises(KeyError):
            layout.segment("nope")

    def test_zero_ber_only_quantizes(self, network):
        injector = BitErrorInjector.for_network(network)
        state = network.state_dict()
        perturbed = injector.perturb_state_dict(state, FaultMap.empty(injector.memory_bits))
        for name in state:
            step = np.abs(state[name]).max() / 127.0 if np.abs(state[name]).max() > 0 else 1.0
            assert np.allclose(perturbed[name], state[name], atol=step)

    def test_injection_changes_some_weights(self, network):
        injector = BitErrorInjector.for_network(network)
        fault_map = FaultMap.random(injector.memory_bits, 0.02, rng=0)
        perturbed = injector.perturb_state_dict(network.state_dict(), fault_map)
        clean = injector.quantize_only(network.state_dict())
        total_changed = sum(
            int(np.count_nonzero(~np.isclose(perturbed[name], clean[name])))
            for name in clean
        )
        assert 0 < total_changed <= fault_map.num_faults

    def test_same_fault_map_is_persistent(self, network):
        injector = BitErrorInjector.for_network(network)
        fault_map = FaultMap.random(injector.memory_bits, 0.01, rng=0)
        a = injector.perturb_state_dict(network.state_dict(), fault_map)
        b = injector.perturb_state_dict(network.state_dict(), fault_map)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_perturb_network_preserves_original(self, network):
        injector = BitErrorInjector.for_network(network)
        fault_map = FaultMap.random(injector.memory_bits, 0.05, rng=0)
        original_state = network.state_dict()
        injector.perturb_network(network, fault_map)
        for name, values in network.state_dict().items():
            assert np.array_equal(values, original_state[name])

    def test_too_small_fault_map_rejected(self, network):
        injector = BitErrorInjector.for_network(network)
        with pytest.raises(FaultModelError):
            injector.perturb_state_dict(network.state_dict(), FaultMap.empty(8))

    def test_count_flipped_bits_at_most_num_faults(self, network):
        injector = BitErrorInjector.for_network(network)
        fault_map = FaultMap.random(injector.memory_bits, 0.02, rng=0)
        flipped = injector.count_flipped_bits(network.state_dict(), fault_map)
        assert 0 <= flipped <= fault_map.num_faults

    def test_quantize_only_applies_no_fault_map(self, network):
        injector = BitErrorInjector.for_network(network)
        state = network.state_dict()
        with collecting_metrics() as metrics:
            clean = injector.quantize_only(state)
        recorded = [name for kind in metrics.snapshot().values() for name in kind]
        assert not [name for name in recorded if name.startswith("faults.")]
        expected = injector.perturb_state_dict(state, FaultMap.empty(injector.memory_bits))
        assert list(clean) == list(expected)
        for name, values in expected.items():
            assert clean[name].tobytes() == values.tobytes()


def _small_state(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}


class TestFlatMemory:
    """The operator over one flat word memory, against the per-tensor operator."""

    @pytest.fixture
    def injector(self):
        return BitErrorInjector(MemoryLayout({"a": (4, 3), "b": (5,)}))

    def test_matches_the_per_tensor_operator(self, per_tensor_berr):
        for trial in range(60):
            rng = np.random.default_rng(trial)
            state = {
                f"t{index}": rng.normal(size=tuple(rng.integers(1, 7, size=rng.integers(1, 3))))
                * rng.uniform(0.01, 10.0)
                for index in range(rng.integers(1, 6))
            }
            if trial % 5 == 0:
                state["t0"][...] = 0.0
            bits = int(rng.choice([4, 8, 16]))
            injector = BitErrorInjector(MemoryLayout.from_state_dict(state, bits))
            fault_map = FaultMap.random(
                injector.memory_bits,
                float(rng.uniform(0.0, 0.5)),
                rng=trial,
                flip_fraction=float(rng.uniform()),
            )
            flat = injector.perturb_state_dict(state, fault_map)
            expected = per_tensor_berr(injector, state, fault_map)
            assert list(flat) == list(expected)
            for name, values in expected.items():
                assert flat[name].shape == values.shape
                assert flat[name].tobytes() == values.tobytes(), (trial, name)

    @pytest.mark.parametrize(
        "shapes",
        [
            {"a": (4, 3)},
            {"a": (4, 3), "b": (5,), "c": (1,)},
            {"a": (3, 4), "b": (5,)},
            {"a": (2,), "b": (5,)},
            {"a": (13,), "b": (5,)},
        ],
        ids=["missing", "unknown", "reshaped", "two-values", "thirteen-values"],
    )
    def test_state_must_match_the_layout(self, injector, shapes):
        state = {name: np.full(shape, 0.3) for name, shape in shapes.items()}
        fault_map = FaultMap.random(injector.memory_bits, 0.1, rng=0)
        with pytest.raises(FaultModelError):
            injector.quantize_state(state)
        with pytest.raises(FaultModelError):
            injector.count_flipped_bits(state, fault_map)
        with pytest.raises(FaultModelError):
            injector.perturb_state_dict(state, fault_map)

    def test_cached_memory_is_keyed_by_layout_order(self):
        clear_warm_caches()
        state = _small_state()
        forward = BitErrorInjector(MemoryLayout({"a": (4, 3), "b": (5,)}))
        backward = BitErrorInjector(MemoryLayout({"b": (5,), "a": (4, 3)}))
        first = forward.quantize_state_cached(state)
        second = backward.quantize_state_cached(state)
        assert second is not first
        assert forward.quantize_state_cached(state) is first
        assert backward.quantize_state_cached(state) is second
        fault_map = FaultMap.random(forward.memory_bits, 0.2, rng=1)
        for injector, memory in ((forward, first), (backward, second)):
            expected = injector.perturb_state_dict(state, fault_map)
            cached = injector.perturb_quantized_state(memory, fault_map)
            for name in state:
                assert np.array_equal(cached[name], expected[name])
        clear_warm_caches()

    def test_memory_of_another_layout_rejected(self):
        state = _small_state()
        forward = BitErrorInjector(MemoryLayout({"a": (4, 3), "b": (5,)}))
        backward = BitErrorInjector(MemoryLayout({"b": (5,), "a": (4, 3)}))
        fault_map = FaultMap.random(forward.memory_bits, 0.2, rng=1)
        with pytest.raises(FaultModelError):
            backward.perturb_quantized_state(forward.quantize_state(state), fault_map)

    def test_quantized_memory_is_read_only(self, injector):
        memory = injector.quantize_state(_small_state())
        with pytest.raises(ValueError):
            memory.words[0] = 0
        with pytest.raises(ValueError):
            memory.scales[0] = 1.0

    def test_bits_flipped_counter_equals_count_flipped_bits(self, injector):
        state = _small_state()
        fault_map = FaultMap.random(injector.memory_bits, 0.2, rng=2, flip_fraction=0.3)
        memory = injector.quantize_state(state)
        with collecting_metrics() as metrics:
            injector.perturb_quantized_state(memory, fault_map)
        flipped = metrics.counter("faults.bits_flipped").value
        assert flipped == injector.count_flipped_bits(state, fault_map) > 0


class TestChips:
    def test_lookup(self):
        assert get_chip("chip1") is CHIP_RANDOM
        assert get_chip("CHIP2") is CHIP_COLUMN_ALIGNED
        with pytest.raises(FaultModelError):
            get_chip("chip9")

    def test_ber_scaling(self):
        base = CHIP_RANDOM.ber_percent_at_voltage(0.77)
        scaled = CHIP_COLUMN_ALIGNED.ber_percent_at_voltage(0.77)
        assert scaled == pytest.approx(base * CHIP_COLUMN_ALIGNED.ber_scale / CHIP_RANDOM.ber_scale)

    def test_fault_map_by_ber(self):
        fault_map = CHIP_RANDOM.fault_map(100_000, ber_percent=0.5, rng=0)
        assert fault_map.memory_bits == 100_000
        assert fault_map.num_faults == pytest.approx(500, abs=1)

    def test_fault_map_by_voltage(self):
        fault_map = CHIP_RANDOM.fault_map(1_000_000, normalized_voltage=0.73, rng=0)
        expected = CHIP_RANDOM.ber_fraction_at_voltage(0.73) * 1_000_000
        assert fault_map.num_faults == pytest.approx(expected, rel=0.01)

    def test_column_aligned_chip_biased_to_stuck_at_1(self):
        fault_map = CHIP_COLUMN_ALIGNED.fault_map(200_000, ber_percent=0.3, rng=0)
        counts = fault_map.kind_counts()
        assert counts[FaultKind.STUCK_AT_1] > counts[FaultKind.STUCK_AT_0]

    @pytest.mark.parametrize("memory_bits", [33_608, 200_000])
    @pytest.mark.parametrize("ber_percent", CHIP_COLUMN_ALIGNED.reference_ber_percent)
    def test_column_aligned_chip_carries_the_requested_ber(self, memory_bits, ber_percent):
        """Column-aligned maps are drawn over whole banks and cut to the weight
        memory (33,608 bits is the FAST_PROFILE policy, in one bank), so the
        realised rate over the memory must still be the requested one."""
        maps = [
            CHIP_COLUMN_ALIGNED.fault_map(memory_bits, ber_percent=ber_percent, rng=seed)
            for seed in range(40)
        ]
        realised = np.mean([fault_map.num_faults for fault_map in maps]) / memory_bits
        assert realised == pytest.approx(ber_percent / 100.0, rel=0.15)

    def test_requires_exactly_one_operating_point(self):
        with pytest.raises(FaultModelError):
            CHIP_RANDOM.fault_map(1000)
        with pytest.raises(FaultModelError):
            CHIP_RANDOM.fault_map(1000, ber_percent=0.1, normalized_voltage=0.8)

    def test_invalid_profile(self):
        with pytest.raises(FaultModelError):
            ChipProfile(name="bad", pattern="diagonal")

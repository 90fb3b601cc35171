"""Fixtures shared by the test suite and the benchmarks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest


@pytest.fixture
def store_lines():
    """Read a result store root's record lines, keyed by each record's ``job``.

    The raw bytes of each stored line, so two stores can be compared bitwise.
    """

    def read(root) -> dict:
        lines = {}
        for segment in sorted(Path(root).glob("*/seg-*.jsonl")):
            for line in segment.read_bytes().splitlines():
                lines[json.loads(line)["job"]] = line
        return lines

    return read


@pytest.fixture
def per_tensor_berr():
    """The per-tensor ``BErr_p`` reference the flat word memory must reproduce.

    ``perturb(injector, state, fault_map)`` quantizes each tensor alone (the
    injector's ``_scale_for`` and ``_encode``), checks its codes against the
    word width, takes them mod 2^bits into words and corrupts those at the
    tensor's bit offset, checks the corrupted words, turns them back into
    two's-complement codes and multiplies by the scale: what
    ``injector.perturb_state_dict(state, fault_map)`` returns, bitwise, one
    tensor at a time.
    """
    import numpy as np

    from repro.faults.injection import _encode, _scale_for
    from repro.nn.backend import NUMPY_BACKEND as np_be

    def check_range(array, low, high):
        if array.size and (array.min() < low or array.max() > high):
            raise AssertionError(f"values outside [{low}, {high}]")

    def checked_codes(codes, bits):
        codes = np.asarray(codes, dtype=np.int32)
        check_range(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        return codes

    def perturb(injector, state, fault_map) -> dict:
        be = injector.backend
        bits = injector.layout.bits_per_value
        modulus, half = 1 << bits, 1 << (bits - 1)
        perturbed = {}
        for name, values in state.items():
            values = be.asarray(values, "float64")
            assert be.all_finite(values)
            scale = _scale_for(values, bits, be)
            codes = checked_codes(_encode(values, scale, bits, be), bits)
            words = np_be.astype(np_be.mod(codes, modulus), "int64").ravel()
            offset = injector.layout.segment(name).bit_offset
            corrupted = np.asarray(fault_map.apply_to_words(words, bits, offset))
            corrupted = np_be.asarray(corrupted.reshape(codes.shape), "int64")
            check_range(corrupted, 0, modulus - 1)
            signed = np_be.where(corrupted >= half, np_be.subtract(corrupted, modulus), corrupted)
            codes = checked_codes(np_be.astype(signed, "int32"), bits)
            perturbed[name] = np_be.multiply(np_be.astype(codes, "float64"), scale)
        return perturbed

    return perturb

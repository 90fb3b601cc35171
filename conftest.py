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

    ``perturb(injector, state, fault_map)`` quantizes each tensor alone
    (``quantize_state_dict``), corrupts its words at the tensor's bit offset
    and dequantizes it: what ``injector.perturb_state_dict(state, fault_map)``
    returns, bitwise, one tensor at a time.
    """
    import numpy as np

    from repro.quant.fixed_point import quantize_state_dict
    from repro.quant.qtensor import QuantizedTensor

    def perturb(injector, state, fault_map) -> dict:
        perturbed = {}
        for name, tensor in quantize_state_dict(state, injector.quantization).items():
            words = tensor.to_unsigned().ravel()
            offset = injector.layout.segment(name).bit_offset
            corrupted = np.asarray(fault_map.apply_to_words(words, tensor.bits, offset))
            perturbed[name] = QuantizedTensor.from_unsigned(
                corrupted.reshape(tensor.shape), scale=tensor.scale, bits=tensor.bits
            ).dequantize()
        return perturbed

    return perturb

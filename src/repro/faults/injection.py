"""The ``BErr_p`` operator: bit-error injection into quantized policy parameters.

Algorithm 1 (line 15) perturbs the Q-network and target-network parameters by
(i) quantizing each layer to 8-bit fixed point with rounding, (ii) flipping
the bits selected by the fault map in the stored integer codes, and
(iii) dequantizing back to floating point for the perturbed forward/backward
pass.  :class:`BitErrorInjector` implements exactly that pipeline; the memory
layout of the parameters (which bit cell holds which weight bit) is fixed by
:class:`MemoryLayout` so that a *persistent* fault map hits the same weights
every time, as it does on real silicon.

The quantization scale search and the word-level corruption — the two profiled
hot paths of the operator — run on a pluggable
:class:`~repro.nn.backend.ArrayBackend` (``backend=`` on the injector, default
the process-wide selection); flipped-bit accounting uses the backend's
vectorised ``popcount`` instead of a per-word python loop.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import FaultModelError
from repro.faults.fault_map import FaultMap
from repro.nn.backend import ArrayBackend, resolve_backend
from repro.nn.network import Sequential
from repro.obs import get_metrics, span
from repro.quant.fixed_point import QuantizationConfig, quantize_state_dict
from repro.quant.qtensor import QuantizedTensor
from repro.utils.rng import SeedLike, as_generator
from repro.utils.warmcache import warm_cache


def state_fingerprint(state: Mapping[str, np.ndarray]) -> str:
    """Content hash of a parameter state dict (names, shapes, raw values)."""
    digest = hashlib.sha256()
    for name in sorted(state):
        values = np.ascontiguousarray(np.asarray(state[name], dtype=np.float64))
        digest.update(name.encode("utf-8"))
        digest.update(str(values.shape).encode("utf-8"))
        digest.update(values.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class _Segment:
    """Placement of one parameter tensor in the weight memory."""

    name: str
    bit_offset: int
    num_values: int
    shape: Tuple[int, ...]


class MemoryLayout:
    """Sequential placement of named parameter tensors in a flat weight memory."""

    def __init__(self, shapes: Mapping[str, Tuple[int, ...]], bits_per_value: int = 8) -> None:
        if bits_per_value <= 0:
            raise FaultModelError(f"bits_per_value must be positive, got {bits_per_value}")
        self.bits_per_value = bits_per_value
        self._segments: Dict[str, _Segment] = {}
        offset = 0
        for name, shape in shapes.items():
            num_values = int(np.prod(shape)) if shape else 1
            self._segments[name] = _Segment(
                name=name, bit_offset=offset, num_values=num_values, shape=tuple(shape)
            )
            offset += num_values * bits_per_value
        self.total_bits = offset
        if self.total_bits == 0:
            raise FaultModelError("memory layout contains no parameters")

    @classmethod
    def from_network(cls, network: Sequential, bits_per_value: int = 8) -> "MemoryLayout":
        shapes = {name: param.shape for name, param in network.named_parameters().items()}
        return cls(shapes, bits_per_value=bits_per_value)

    @classmethod
    def from_state_dict(
        cls, state: Mapping[str, np.ndarray], bits_per_value: int = 8
    ) -> "MemoryLayout":
        return cls({name: np.asarray(v).shape for name, v in state.items()}, bits_per_value)

    def segment(self, name: str) -> _Segment:
        if name not in self._segments:
            raise KeyError(f"parameter {name!r} not present in the memory layout")
        return self._segments[name]

    def segments(self) -> Dict[str, _Segment]:
        return dict(self._segments)

    @property
    def total_bytes(self) -> int:
        return (self.total_bits + 7) // 8


class BitErrorInjector:
    """Applies a persistent fault map to a network's quantized parameters."""

    def __init__(
        self,
        layout: MemoryLayout,
        quantization: QuantizationConfig = QuantizationConfig(),
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        if layout.bits_per_value != quantization.bits:
            raise FaultModelError(
                f"memory layout uses {layout.bits_per_value}-bit words but quantization "
                f"is configured for {quantization.bits} bits"
            )
        self.layout = layout
        self.quantization = quantization
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------ construction helpers
    @classmethod
    def for_network(
        cls,
        network: Sequential,
        quantization: QuantizationConfig = QuantizationConfig(),
        backend: "ArrayBackend | str | None" = None,
    ) -> "BitErrorInjector":
        """Injector for ``network``, sharing its compute backend unless overridden."""
        compute = network.backend if backend is None else resolve_backend(backend)
        return cls(MemoryLayout.from_network(network, quantization.bits), quantization, compute)

    @property
    def memory_bits(self) -> int:
        return self.layout.total_bits

    # ------------------------------------------------------------------ core operator
    def quantize_state(
        self, state: Mapping[str, np.ndarray]
    ) -> Dict[str, QuantizedTensor]:
        """Quantize every tensor of ``state`` once, for repeated corruption.

        The fault-map evaluation protocol corrupts the *same* deployed
        parameters under hundreds of maps; quantization (scale search plus
        rounding) is by far the most expensive part of the ``BErr_p``
        operator, so it is hoisted here and :meth:`perturb_quantized_state`
        then corrupts per-map views of the stored integer codes.  Scales
        follow the quantization config exactly as
        :func:`~repro.quant.fixed_point.quantize_state_dict` does: one per
        tensor, or one for the whole state under ``per_layer=False``.
        """
        for name in state:
            self.layout.segment(name)  # validate the tensor has a placement
        return quantize_state_dict(state, self.quantization, backend=self.backend)

    def quantize_state_cached(
        self, state: Mapping[str, np.ndarray]
    ) -> Dict[str, QuantizedTensor]:
        """Like :meth:`quantize_state`, but warm-cached by parameter content.

        Fused sweep jobs and warm pool workers evaluate the *same* trained
        policy at several BER levels (one :func:`evaluate_under_faults` call
        each); keying the quantized codes by a content hash of the raw
        parameters + quantization config + backend lets every call after the
        first skip the per-tensor scale search entirely.  Safe because
        :meth:`perturb_quantized_state` never mutates its input — a single
        quantized state legitimately serves any number of fault maps, and by
        the same invariant, any number of callers.
        """
        key = (
            state_fingerprint(state),
            self.quantization,
            self.backend.metric_tag,
        )
        return warm_cache("quantized_states", capacity=16).get_or_build(
            key, lambda: self.quantize_state(state)
        )

    def perturb_quantized_state(
        self, quantized: Mapping[str, QuantizedTensor], fault_map: FaultMap
    ) -> Dict[str, np.ndarray]:
        """Corrupt an already-quantized state under one fault map and dequantize.

        ``quantized`` is never modified; each call produces an independent
        dequantized view, so one :meth:`quantize_state` result serves any
        number of fault maps.
        """
        if fault_map.memory_bits < self.layout.total_bits:
            raise FaultModelError(
                f"fault map covers {fault_map.memory_bits} bits but the parameters occupy "
                f"{self.layout.total_bits} bits"
            )
        be = self.backend
        metrics = get_metrics()
        started = time.perf_counter() if metrics.enabled else 0.0
        flipped = 0
        perturbed: Dict[str, np.ndarray] = {}
        with span("faults.corrupt"):
            for name, tensor in quantized.items():
                segment = self.layout.segment(name)
                corrupted = self._corrupt_tensor(tensor, fault_map, segment.bit_offset)
                if metrics.enabled:
                    flipped += be.popcount(
                        be.bitwise_xor(
                            be.from_numpy(tensor.to_unsigned().ravel()),
                            be.from_numpy(corrupted.to_unsigned().ravel()),
                        )
                    )
                perturbed[name] = corrupted.dequantize().reshape(segment.shape)
        if metrics.enabled:
            metrics.counter("faults.maps_applied").inc()
            metrics.counter("faults.bits_flipped").inc(flipped)
            metrics.histogram("faults.corrupt_s").observe(time.perf_counter() - started)
        return perturbed

    def perturb_state_dict(
        self, state: Mapping[str, np.ndarray], fault_map: FaultMap
    ) -> Dict[str, np.ndarray]:
        """Return the dequantized view of ``state`` after bit errors are applied.

        Every tensor is quantized (so even fault-free parameters go through the
        8-bit rounding the deployed accelerator imposes), corrupted according
        to the fault map at its memory location, and dequantized.
        """
        return self.perturb_quantized_state(self.quantize_state(state), fault_map)

    def perturb_network(self, network: Sequential, fault_map: FaultMap) -> Sequential:
        """Clone ``network`` and load the bit-error-perturbed parameters into the clone."""
        clone = network.clone()
        clone.load_state_dict(self.perturb_state_dict(network.state_dict(), fault_map))
        return clone

    def quantize_only(self, state: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The error-free deployment view: quantize and dequantize without faults."""
        empty = FaultMap.empty(self.layout.total_bits)
        return self.perturb_state_dict(state, empty)

    def _corrupt_tensor(
        self, tensor: QuantizedTensor, fault_map: FaultMap, bit_offset: int
    ) -> QuantizedTensor:
        words = tensor.to_unsigned().ravel()
        corrupted = fault_map.apply_to_words(
            words, tensor.bits, bit_offset, backend=self.backend
        )
        return QuantizedTensor.from_unsigned(
            self.backend.to_numpy(corrupted).reshape(tensor.shape),
            scale=tensor.scale,
            bits=tensor.bits,
        )

    # ------------------------------------------------------------------ measurement helpers
    def count_flipped_bits(
        self, state: Mapping[str, np.ndarray], fault_map: FaultMap
    ) -> int:
        """Number of stored bits that actually change value under the fault map.

        Stuck-at faults only corrupt a bit when the stored value differs from
        the stuck value, so this is typically about half of ``num_faults``.
        """
        be = self.backend
        flipped = 0
        for name, tensor in self.quantize_state(state).items():
            words = tensor.to_unsigned().ravel()
            corrupted = fault_map.apply_to_words(
                words, tensor.bits, self.layout.segment(name).bit_offset, backend=be
            )
            difference = be.bitwise_xor(be.from_numpy(words), corrupted)
            flipped += be.popcount(difference)
        return flipped


def inject_bit_errors(
    network: Sequential,
    ber_fraction: float,
    rng: SeedLike = None,
    quantization: QuantizationConfig = QuantizationConfig(),
    stuck_at_1_bias: float = 0.5,
) -> Dict[str, np.ndarray]:
    """One-shot ``BErr_p``: sample a fresh random fault map and perturb ``network``.

    This is the operator used during *offline* BERRY training, where a new
    random fault realisation is drawn at every injection so the learned policy
    generalises across chips rather than memorising one map.
    """
    injector = BitErrorInjector.for_network(network, quantization)
    fault_map = FaultMap.random(
        injector.memory_bits,
        ber_fraction,
        rng=as_generator(rng),
        stuck_at_1_bias=stuck_at_1_bias,
        label="offline-injection",
    )
    return injector.perturb_state_dict(network.state_dict(), fault_map)

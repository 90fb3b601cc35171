"""The ``BErr_p`` operator: bit-error injection into quantized policy parameters.

Algorithm 1 (line 15) perturbs the Q-network and target-network parameters by
(i) quantizing each layer to 8-bit fixed point with rounding, (ii) flipping
the bits selected by the fault map in the stored integer codes, and
(iii) dequantizing back to floating point for the perturbed forward/backward
pass.  :class:`BitErrorInjector` implements exactly that pipeline; the memory
layout of the parameters (which bit cell holds which weight bit) is fixed by
:class:`MemoryLayout` so that a *persistent* fault map hits the same weights
every time, as it does on real silicon.

The layout places the tensors back to back, so a network's parameters are one
flat word memory (:class:`QuantizedMemory`), the only quantized form of a
network in this package: each tensor gets the symmetric max-abs scale of its
own values, and the word width is the layout's ``bits_per_value`` (8 in the
paper).  Each step of the operator is one pass over that memory — one
scale search (``np.maximum.reduceat`` at the tensors' offsets), one encode,
one ``apply_to_words``, one signed conversion and one per-value ``× scale``
— whatever the number of tensors.  The encoding and the word-level
corruption run on a pluggable :class:`~repro.nn.backend.ArrayBackend`
(``backend=`` on the injector, default the process-wide selection);
flipped-bit accounting is one XOR and one vectorised ``popcount`` over the
memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import FaultModelError, QuantizationError
from repro.faults.fault_map import FaultMap
from repro.nn.backend import ArrayBackend, resolve_backend
from repro.nn.network import Sequential
from repro.obs import get_metrics, span
from repro.utils.warmcache import warm_cache


def _encode(values, scale, bits: int, backend: ArrayBackend) -> np.ndarray:
    """Round ``values / scale`` into clipped signed codes as a numpy int32 array.

    ``scale`` is one float or a backend array holding one scale per value.
    """
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    codes = backend.astype(
        backend.clip(backend.round(backend.divide(values, scale)), low, high), "int32"
    )
    return backend.to_numpy(codes)


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
    value_offset: int

    @cached_property
    def value_slice(self) -> slice:
        """This tensor's slice of the flat value (or word) memory."""
        return slice(self.value_offset, self.value_offset + self.num_values)


class MemoryLayout:
    """Sequential placement of named parameter tensors in a flat weight memory."""

    def __init__(self, shapes: Mapping[str, Tuple[int, ...]], bits_per_value: int = 8) -> None:
        if not 2 <= bits_per_value <= 16:
            raise FaultModelError(f"bits_per_value must be in [2, 16], got {bits_per_value}")
        self.bits_per_value = bits_per_value
        self._segments: Dict[str, _Segment] = {}
        offset = 0
        for name, shape in shapes.items():
            shape = tuple(int(size) for size in shape)
            num_values = int(np.prod(shape)) if shape else 1
            self._segments[name] = _Segment(
                name=name,
                bit_offset=offset * bits_per_value,
                num_values=num_values,
                shape=shape,
                value_offset=offset,
            )
            offset += num_values
        self.num_values = offset
        self.total_bits = offset * bits_per_value
        if self.total_bits == 0:
            raise FaultModelError("memory layout contains no parameters")
        #: Word width, then names and shapes in memory order: everything the
        #: order of a flat memory's words depends on.
        self.key = (bits_per_value, tuple((s.name, s.shape) for s in self._segments.values()))
        #: Values per segment, in memory order (for per-value scales).
        self.counts = np.array([s.num_values for s in self._segments.values()], dtype=np.int64)
        self.counts.flags.writeable = False

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

    def flatten(self, state: Mapping[str, np.ndarray]) -> np.ndarray:
        """``state``'s values in memory order, as one float64 array.

        ``state`` must hold exactly this layout's tensors, each in its placed
        shape; anything else raises :class:`FaultModelError`, since a tensor
        of another shape would be read into another tensor's cells.
        """
        if state.keys() != self._segments.keys():
            missing = sorted(set(self._segments) - set(state))
            unknown = sorted(set(state) - set(self._segments))
            raise FaultModelError(
                f"state does not match the memory layout: missing={missing}, unknown={unknown}"
            )
        flat = np.empty(self.num_values, dtype=np.float64)
        for name, segment in self._segments.items():
            values = np.asarray(state[name])
            if values.shape != segment.shape:
                raise FaultModelError(
                    f"tensor {name!r} has shape {values.shape}, but the memory layout "
                    f"places {segment.shape}"
                )
            flat[segment.value_slice] = values.ravel()
        return flat

    def unflatten(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-name views of a flat value memory, in their placed shapes."""
        return {
            name: flat[segment.value_slice].reshape(segment.shape)
            for name, segment in self._segments.items()
        }


@dataclass(frozen=True, eq=False)
class QuantizedMemory:
    """One state's quantized parameters as a flat word memory.

    ``words[i]`` is the unsigned two's-complement code of value ``i`` of
    ``layout``, stored in bit cells ``[i * bits, (i + 1) * bits)``;
    ``scales`` holds one dequantization scale per segment, in memory order.
    Both arrays are read-only: one memory serves any number of fault maps
    and, through the warm cache, any number of callers.
    """

    layout: MemoryLayout
    words: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        self.words.flags.writeable = False
        self.scales.flags.writeable = False

    def dequantize(self, words) -> np.ndarray:
        """Flat float values of ``words`` (this memory's words, maybe corrupted)."""
        words = np.asarray(words, dtype=np.int64)
        half = 1 << (self.layout.bits_per_value - 1)
        signed = np.subtract(np.bitwise_xor(words, half), half)
        return np.multiply(signed, np.repeat(self.scales, self.layout.counts))


class BitErrorInjector:
    """Applies a persistent fault map to a network's quantized parameters."""

    def __init__(self, layout: MemoryLayout, backend: "ArrayBackend | str | None" = None) -> None:
        self.layout = layout
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------ construction helpers
    @classmethod
    def for_network(
        cls, network: Sequential, backend: "ArrayBackend | str | None" = None
    ) -> "BitErrorInjector":
        """8-bit injector for ``network``, sharing its compute backend unless overridden."""
        compute = network.backend if backend is None else resolve_backend(backend)
        return cls(MemoryLayout.from_network(network), compute)

    @property
    def memory_bits(self) -> int:
        return self.layout.total_bits

    # ------------------------------------------------------------------ core operator
    def quantize_state(self, state: Mapping[str, np.ndarray]) -> QuantizedMemory:
        """Quantize ``state`` into one flat word memory, for repeated corruption.

        The fault-map evaluation protocol corrupts the *same* deployed
        parameters under hundreds of maps, and BERRY's target network keeps
        its parameters between syncs; quantization (scale search plus
        rounding) is hoisted here so :meth:`perturb_quantized_state` only
        corrupts and dequantizes.  Each tensor gets the max-abs scale of its
        own values, found for every tensor in one ``np.maximum.reduceat``
        over the flat memory; every value is then encoded in one pass.
        ``state`` must hold exactly the layout's tensors in their placed
        shapes (:meth:`MemoryLayout.flatten`), every tensor at least one
        value, and every value must be finite.
        """
        be = self.backend
        layout = self.layout
        bits = layout.bits_per_value
        flat = layout.flatten(state)
        values = be.asarray(flat, "float64")
        if not be.all_finite(values):
            raise QuantizationError("cannot quantize an array containing NaN or infinity")
        if not layout.counts.all():
            raise QuantizationError("cannot quantize an empty array")
        max_code = float(2 ** (bits - 1) - 1)
        offsets = np.cumsum(layout.counts) - layout.counts
        scales = np.maximum.reduceat(np.abs(flat), offsets) / max_code
        # An all-zero tensor (or one whose subnormal max-abs underflows the
        # division) still needs a valid scale; its codes are all zero anyway.
        scales[scales == 0.0] = 1.0 / max_code
        per_value = be.asarray(np.repeat(scales, layout.counts), "float64")
        codes = _encode(values, per_value, bits, be)
        modulus = 1 << bits
        words = np.bitwise_and(codes, modulus - 1).astype(np.min_scalar_type(modulus - 1))
        return QuantizedMemory(layout=layout, words=words, scales=scales)

    def quantize_state_cached(self, state: Mapping[str, np.ndarray]) -> QuantizedMemory:
        """Like :meth:`quantize_state`, but warm-cached by layout and parameter content.

        Warm pool workers and separate evaluation calls evaluate the *same*
        trained policy again and again (one
        :func:`~repro.rl.evaluation.evaluate_many` call quantizes each
        distinct network once); keying the quantized memory by the layout
        (word width included), a content hash of the raw parameters and the
        backend lets every call after the first skip the scale search
        entirely.  The key
        names the layout because a memory's words are in layout order.  Safe
        because a :class:`QuantizedMemory` is read-only.
        """
        key = (self.layout.key, state_fingerprint(state), self.backend.metric_tag)
        return warm_cache("quantized_states", capacity=16).get_or_build(
            key, lambda: self.quantize_state(state)
        )

    def perturb_quantized_state(
        self, quantized: QuantizedMemory, fault_map: FaultMap
    ) -> Dict[str, np.ndarray]:
        """Corrupt an already-quantized memory under one fault map and dequantize.

        Returns one array per tensor, in its placed shape (views of one flat
        array).  ``quantized`` is never modified, so one
        :meth:`quantize_state` result serves any number of fault maps.
        """
        with span("faults.corrupt"):
            corrupted = self._corrupt(quantized, fault_map)
            values = quantized.dequantize(self.backend.to_numpy(corrupted))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("faults.maps_applied").inc()
            metrics.counter("faults.bits_flipped").inc(self._flipped_bits(quantized, corrupted))
        return self.layout.unflatten(values)

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
        """The error-free deployment view: quantize and dequantize without faults.

        No fault map is applied, so no ``faults.*`` metric moves.
        """
        memory = self.quantize_state(state)
        return self.layout.unflatten(memory.dequantize(memory.words))

    def _corrupt(self, quantized: QuantizedMemory, fault_map: FaultMap):
        """The memory's words after ``fault_map``'s faults (a backend int64 array)."""
        if quantized.layout.key != self.layout.key:
            raise FaultModelError("the quantized memory belongs to another memory layout")
        if fault_map.memory_bits < self.layout.total_bits:
            raise FaultModelError(
                f"fault map covers {fault_map.memory_bits} bits but the parameters occupy "
                f"{self.layout.total_bits} bits"
            )
        return fault_map.apply_to_words(
            quantized.words, self.layout.bits_per_value, backend=self.backend
        )

    def _flipped_bits(self, quantized: QuantizedMemory, corrupted) -> int:
        """Stored bits that ``corrupted`` changes: one XOR and one popcount."""
        be = self.backend
        return be.popcount(be.bitwise_xor(be.from_numpy(quantized.words), corrupted))

    # ------------------------------------------------------------------ measurement helpers
    def count_flipped_bits(
        self, state: Mapping[str, np.ndarray], fault_map: FaultMap
    ) -> int:
        """Number of stored bits that actually change value under the fault map.

        Stuck-at faults only corrupt a bit when the stored value differs from
        the stuck value, so this is typically about half of ``num_faults``.
        """
        quantized = self.quantize_state(state)
        return self._flipped_bits(quantized, self._corrupt(quantized, fault_map))

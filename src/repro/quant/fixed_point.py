"""Per-layer symmetric fixed-point quantization with rounding.

The paper (Sec. IV, "Fault injection") quantizes each layer's parameters to
8-bit fixed point with rounding before injecting bit errors, mirroring how the
accelerator stores weights in its on-chip SRAM.  The scale of each layer is
chosen from the maximum absolute value in that layer (symmetric, zero-point
free), matching the scheme used by Stutz et al. (MLSys'21) whose profiled
chips are reused here.

The scale search and rounding run on a pluggable
:class:`~repro.nn.backend.ArrayBackend` (this is the dominant cost of the
``BErr_p`` operator); the emitted :class:`~repro.quant.qtensor.QuantizedTensor`
always stores numpy ``int32`` codes regardless of backend, and the default
numpy backend is bitwise identical to the direct-numpy implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import QuantizationError
from repro.nn.backend import ArrayBackend, resolve_backend
from repro.quant.qtensor import QuantizedTensor


@dataclass(frozen=True)
class QuantizationConfig:
    """Quantization settings shared by training-time injection and deployment.

    ``bits``       — word width of the stored codes (8 in the paper).
    ``per_layer``  — one scale per parameter tensor (True) or one global scale.
    ``clip_quantile`` — optional robust clipping: the scale is taken from this
    quantile of ``|w|`` instead of the maximum, which limits the damage a
    single outlier weight can do to the resolution of a whole layer.
    """

    bits: int = 8
    per_layer: bool = True
    clip_quantile: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 16:
            raise QuantizationError(f"bits must be in [2, 16], got {self.bits}")
        if not 0.0 < self.clip_quantile <= 1.0:
            raise QuantizationError(
                f"clip_quantile must be in (0, 1], got {self.clip_quantile}"
            )


def _scale_for(values, config: QuantizationConfig, backend: ArrayBackend) -> float:
    """Choose the quantization scale for one tensor (``values`` is a backend array)."""
    magnitudes = backend.abs(values)
    if backend.numel(magnitudes) == 0:
        raise QuantizationError("cannot quantize an empty array")
    if config.clip_quantile >= 1.0:
        max_abs = float(backend.max(magnitudes))
    else:
        max_abs = backend.quantile(magnitudes, config.clip_quantile)
    max_code = float(2 ** (config.bits - 1) - 1)
    if max_abs == 0.0 or not math.isfinite(max_abs) or max_abs / max_code == 0.0:
        # All-zero (or degenerate) tensors still need a valid scale; the codes
        # will all be zero so the actual value does not matter.  A subnormal
        # max_abs whose division underflows to 0.0 lands here too.
        max_abs = 1.0
    return max_abs / max_code


def _encode(values, scale, bits: int, backend: ArrayBackend) -> np.ndarray:
    """Round ``values / scale`` into clipped signed codes as a numpy int32 array.

    ``scale`` is one float or a backend array holding one scale per value.
    """
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    codes = backend.astype(
        backend.clip(backend.round(backend.divide(values, scale)), low, high), "int32"
    )
    return backend.to_numpy(codes)


def quantize(
    values: np.ndarray,
    config: QuantizationConfig = QuantizationConfig(),
    backend: "ArrayBackend | str | None" = None,
) -> QuantizedTensor:
    """Quantize a floating-point array to signed fixed-point codes."""
    compute = resolve_backend(backend)
    values = compute.asarray(values, "float64")
    if not compute.all_finite(values):
        raise QuantizationError("cannot quantize an array containing NaN or infinity")
    scale = _scale_for(values, config, compute)
    codes = _encode(values, scale, config.bits, compute)
    return QuantizedTensor(codes=codes, scale=scale, bits=config.bits)


def dequantize(tensor: QuantizedTensor) -> np.ndarray:
    """Reconstruct floating-point values from a quantized tensor."""
    return tensor.dequantize()


def quantization_step(
    values: np.ndarray,
    config: QuantizationConfig = QuantizationConfig(),
    backend: "ArrayBackend | str | None" = None,
) -> float:
    """The value of one least-significant bit for the given tensor."""
    compute = resolve_backend(backend)
    return _scale_for(compute.asarray(values, "float64"), config, compute)


def quantize_state_dict(
    state: Mapping[str, np.ndarray],
    config: QuantizationConfig = QuantizationConfig(),
    backend: "ArrayBackend | str | None" = None,
) -> Dict[str, QuantizedTensor]:
    """Quantize every parameter tensor of a network state dict.

    With ``per_layer=False`` a single scale derived from the concatenation of
    all parameters is used for every tensor.
    """
    compute = resolve_backend(backend)
    if config.per_layer:
        return {name: quantize(values, config, backend=compute) for name, values in state.items()}
    flat = compute.asarray(
        np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in state.values()]),
        "float64",
    )
    if not compute.all_finite(flat):
        raise QuantizationError("cannot quantize an array containing NaN or infinity")
    scale = _scale_for(flat, config, compute)
    quantized: Dict[str, QuantizedTensor] = {}
    for name, values in state.items():
        codes = _encode(compute.asarray(values, "float64"), scale, config.bits, compute)
        quantized[name] = QuantizedTensor(codes=codes, scale=scale, bits=config.bits)
    return quantized


def dequantize_state_dict(quantized: Mapping[str, QuantizedTensor]) -> Dict[str, np.ndarray]:
    """Reconstruct a float state dict from quantized tensors."""
    return {name: tensor.dequantize() for name, tensor in quantized.items()}


def quantization_round_trip(
    state: Mapping[str, np.ndarray],
    config: QuantizationConfig = QuantizationConfig(),
    backend: "ArrayBackend | str | None" = None,
) -> Dict[str, np.ndarray]:
    """Quantize then dequantize a state dict (the error-free deployment view)."""
    return dequantize_state_dict(quantize_state_dict(state, config, backend=backend))

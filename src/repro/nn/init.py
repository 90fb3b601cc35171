"""Weight initialization schemes.

Kaiming (He) initialization is the default for ReLU networks.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear ``(out, in)`` or conv ``(out, in, kh, kw)`` weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_channels, in_channels, kernel_h, kernel_w = shape
        receptive = kernel_h * kernel_w
        return in_channels * receptive, out_channels * receptive
    raise ConfigurationError(f"unsupported weight shape for initialization: {shape}")


def kaiming_uniform(shape: Tuple[int, ...], rng: SeedLike = None, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-uniform initialization, appropriate for ReLU activations."""
    generator = as_generator(rng)
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return generator.uniform(-bound, bound, size=shape).astype(np.float64)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)


def uniform_bias(shape: Tuple[int, ...], fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """PyTorch-style bias initialization: uniform in ``±1/sqrt(fan_in)``."""
    if fan_in <= 0:
        raise ConfigurationError(f"fan_in must be positive, got {fan_in}")
    generator = as_generator(rng)
    bound = 1.0 / math.sqrt(fan_in)
    return generator.uniform(-bound, bound, size=shape).astype(np.float64)

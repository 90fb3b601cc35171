"""Policy network architectures used in the paper.

The paper evaluates two convolutional Q-network architectures:

* **C3F2** — 3 convolutional + 2 fully-connected layers, ~1.1 MB of 8-bit
  parameters, the default autonomy policy (from Wan et al., DAC'21).
* **C5F4** — 5 convolutional + 4 fully-connected layers with ~1.98x the
  parameters of C3F2, used in the Fig. 7 model-architecture study.

Both are expressed here as :class:`PolicySpec` descriptions that scale to any
observation shape; an ``mlp`` spec is provided for the vector observations
used by the fast test/benchmark profile (training a full convolutional policy
inside a unit test would be needlessly slow without changing any conclusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.nn.layers import BackendLike, Conv2d, Flatten, Linear, ReLU, _resolve_backend
from repro.nn.network import Sequential
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class ConvSpec:
    """One convolutional layer: output channels, kernel size and stride."""

    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class PolicySpec:
    """Architecture description decoupled from the observation shape.

    ``conv_layers`` may be empty, in which case the policy is a plain MLP on a
    flattened observation.  ``hidden_units`` lists the widths of the fully
    connected layers before the Q-value head.
    """

    name: str
    conv_layers: Tuple[ConvSpec, ...] = ()
    hidden_units: Tuple[int, ...] = (64, 64)

    @property
    def num_conv(self) -> int:
        return len(self.conv_layers)

    @property
    def num_fc(self) -> int:
        return len(self.hidden_units) + 1  # hidden layers plus the Q-value head

    def describe(self) -> str:
        conv = ", ".join(
            f"conv{i+1}({c.out_channels}ch,k{c.kernel_size},s{c.stride})"
            for i, c in enumerate(self.conv_layers)
        )
        fc = ", ".join(f"fc({h})" for h in self.hidden_units)
        parts = [part for part in (conv, fc, "fc(num_actions)") if part]
        return f"{self.name}: " + " -> ".join(parts)


def c3f2(width_multiplier: float = 1.0) -> PolicySpec:
    """The paper's default C3F2 autonomy policy (3 conv + 2 FC layers)."""
    if width_multiplier <= 0:
        raise ConfigurationError(f"width_multiplier must be positive, got {width_multiplier}")
    scale = lambda channels: max(4, int(round(channels * width_multiplier)))
    return PolicySpec(
        name="C3F2",
        conv_layers=(
            ConvSpec(out_channels=scale(32), kernel_size=4, stride=2),
            ConvSpec(out_channels=scale(64), kernel_size=3, stride=2),
            ConvSpec(out_channels=scale(64), kernel_size=3, stride=1),
        ),
        hidden_units=(scale(256),),
    )


def c5f4(width_multiplier: float = 1.0) -> PolicySpec:
    """The larger C5F4 policy (5 conv + 4 FC layers, ~2x C3F2 parameters)."""
    if width_multiplier <= 0:
        raise ConfigurationError(f"width_multiplier must be positive, got {width_multiplier}")
    scale = lambda channels: max(4, int(round(channels * width_multiplier)))
    return PolicySpec(
        name="C5F4",
        conv_layers=(
            ConvSpec(out_channels=scale(32), kernel_size=4, stride=2),
            ConvSpec(out_channels=scale(64), kernel_size=3, stride=2),
            ConvSpec(out_channels=scale(64), kernel_size=3, stride=1),
            ConvSpec(out_channels=scale(96), kernel_size=3, stride=1, padding=1),
            ConvSpec(out_channels=scale(96), kernel_size=3, stride=1, padding=1),
        ),
        hidden_units=(scale(384), scale(256), scale(128)),
    )


def mlp(hidden_units: Sequence[int] = (64, 64), name: str = "MLP") -> PolicySpec:
    """A fully-connected Q-network for vector observations (fast profile)."""
    units = tuple(int(h) for h in hidden_units)
    if not units or any(h <= 0 for h in units):
        raise ConfigurationError(f"hidden_units must be positive, got {hidden_units}")
    return PolicySpec(name=name, conv_layers=(), hidden_units=units)


_REGISTRY = {
    "c3f2": c3f2,
    "c5f4": c5f4,
    "mlp": mlp,
}


def get_policy_spec(name: str) -> PolicySpec:
    """Look up a policy spec by name (``"c3f2"``, ``"c5f4"``, ``"mlp"``)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ConfigurationError(f"unknown policy {name!r}; expected one of {sorted(_REGISTRY)}")
    return _REGISTRY[key]()


def build_policy(
    spec: PolicySpec,
    observation_shape: Sequence[int],
    num_actions: int,
    rng: SeedLike = None,
    backend: BackendLike = None,
) -> Sequential:
    """Instantiate a Q-network from a spec for a given observation shape.

    Convolutional specs require a ``(C, H, W)`` observation; MLP specs accept
    any shape (it is flattened).  The output layer has ``num_actions`` units,
    one Q-value per discrete action.  ``backend`` selects the compute backend
    for every layer (default: the process-wide selection); initial weights are
    drawn from the same numpy RNG stream regardless of backend.
    """
    if num_actions <= 0:
        raise ConfigurationError(f"num_actions must be positive, got {num_actions}")
    observation_shape = tuple(int(dim) for dim in observation_shape)
    if any(dim <= 0 for dim in observation_shape):
        raise ConfigurationError(f"observation dimensions must be positive, got {observation_shape}")
    generator = as_generator(rng)
    compute = _resolve_backend(backend)
    layers: List = []

    current_shape = observation_shape
    if spec.conv_layers:
        if len(observation_shape) != 3:
            raise ConfigurationError(
                f"{spec.name} requires a (C, H, W) observation, got shape {observation_shape}"
            )
        for index, conv in enumerate(spec.conv_layers):
            layer = Conv2d(
                in_channels=current_shape[0],
                out_channels=conv.out_channels,
                kernel_size=conv.kernel_size,
                stride=conv.stride,
                padding=conv.padding,
                rng=generator,
                name=f"conv{index + 1}",
                backend=compute,
            )
            layers.append(layer)
            layers.append(ReLU(backend=compute))
            current_shape = layer.output_shape(current_shape)
        layers.append(Flatten(backend=compute))
        feature_dim = int(math.prod(current_shape))
    else:
        if len(observation_shape) != 1:
            layers.append(Flatten(backend=compute))
        feature_dim = int(math.prod(observation_shape))

    for index, hidden in enumerate(spec.hidden_units):
        layers.append(
            Linear(feature_dim, hidden, rng=generator, name=f"fc{index + 1}", backend=compute)
        )
        layers.append(ReLU(backend=compute))
        feature_dim = hidden
    layers.append(Linear(feature_dim, num_actions, rng=generator, name="q_head", backend=compute))

    return Sequential(layers, input_shape=observation_shape)


def parameter_footprint_bytes(network: Sequential, bits_per_weight: int = 8) -> int:
    """On-chip memory footprint of the policy parameters at a given precision."""
    if bits_per_weight <= 0:
        raise ConfigurationError(f"bits_per_weight must be positive, got {bits_per_weight}")
    return (network.num_parameters() * bits_per_weight + 7) // 8

"""Sequential network container with backpropagation and state management.

:class:`Sequential` is the only container the reproduction needs: every policy
in the paper (C3F2, C5F4 and the MLP variants used for fast tests) is a simple
feed-forward stack.  Besides forward/backward it provides the operations the
BERRY training loop relies on:

* ``state_dict`` / ``load_state_dict`` for target-network synchronisation,
* ``clone`` to create the perturbed copy used for the error-injected pass,
* ``parameters`` exposing named :class:`~repro.nn.layers.Parameter` objects so
  quantization and fault injection can operate per layer.

The container is backend-aware: layers hold their tensors on whichever
:class:`~repro.nn.backend.ArrayBackend` they were built with (all layers must
share one), while ``forward``/``backward``/``state_dict`` accept
and return numpy arrays at the API boundary so every consumer (trainers,
quantization, fault injection, evaluation) stays backend-agnostic.  For the
numpy backend those boundary conversions are identity operations.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Layer, Parameter


class Sequential:
    """An ordered stack of layers applied one after another."""

    def __init__(self, layers: Sequence[Layer], input_shape: Optional[Tuple[int, ...]] = None) -> None:
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)
        backends = {layer.backend for layer in self.layers}
        if len(backends) > 1:
            names = sorted(backend.name for backend in backends)
            raise ConfigurationError(f"all layers must share one backend, got {names}")
        self.backend = next(iter(backends))
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self._rename_duplicate_layers()

    def _rename_duplicate_layers(self) -> None:
        """Give each parameterised layer a unique name so state dicts are unambiguous."""
        counts: Dict[str, int] = {}
        for layer in self.layers:
            if not layer.parameters():
                continue
            base = layer.name
            index = counts.get(base, 0)
            counts[base] = index + 1
            if index > 0:
                layer.name = f"{base}_{index}"
                for parameter in layer.parameters():
                    suffix = parameter.name.rsplit(".", 1)[-1]
                    parameter.name = f"{layer.name}.{suffix}"

    # ------------------------------------------------------------------ forward/backward
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        outputs = self.backend.asarray(inputs, "float64")
        for layer in self.layers:
            outputs = layer.forward(outputs)
        return self.backend.to_numpy(outputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.backend.asarray(grad_output, "float64")
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return self.backend.to_numpy(grad)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------------ parameters
    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def named_parameters(self) -> Dict[str, Parameter]:
        named: Dict[str, Parameter] = {}
        for parameter in self.parameters():
            if parameter.name in named:
                raise ConfigurationError(f"duplicate parameter name {parameter.name!r}")
            named[parameter.name] = parameter
        return named

    def num_parameters(self) -> int:
        return sum(parameter.size for parameter in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ state management
    def state_dict(self) -> Dict[str, np.ndarray]:
        backend = self.backend
        return {
            parameter.name: backend.to_numpy(parameter.data, copy=True)
            for parameter in self.parameters()
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        missing = set(named) - set(state)
        unexpected = set(state) - set(named)
        if missing or unexpected:
            raise ConfigurationError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        backend = self.backend
        for name, parameter in named.items():
            values = np.asarray(state[name], dtype=np.float64)
            if values.shape != parameter.shape:
                raise ShapeError(
                    f"state for {name!r} has shape {values.shape}, expected {parameter.shape}"
                )
            backend.copyto_(parameter.data, backend.asarray(values, "float64"))

    def copy_from(self, other: "Sequential") -> None:
        """Copy parameter values from another network with the same architecture."""
        self.load_state_dict(other.state_dict())

    def clone(self) -> "Sequential":
        """Deep copy of the network (architecture and parameter values).

        Backends are stateless singletons whose ``__deepcopy__`` returns the
        same object, so the clone shares the backend but owns its arrays.
        """
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ introspection
    def layer_shapes(self, input_shape: Optional[Tuple[int, ...]] = None) -> List[Tuple[str, Tuple[int, ...]]]:
        """Per-layer output shapes for a single sample, used by the accelerator model."""
        shape = tuple(input_shape) if input_shape is not None else self.input_shape
        if shape is None:
            raise ConfigurationError("input_shape must be provided (not set at construction)")
        shapes: List[Tuple[str, Tuple[int, ...]]] = []
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append((layer.name, tuple(shape)))
        return shapes

    def output_dim(self, input_shape: Optional[Tuple[int, ...]] = None) -> int:
        """Number of scalar outputs per sample (the Q-value head width)."""
        shapes = self.layer_shapes(input_shape)
        final = shapes[-1][1]
        return int(math.prod(final))

    def summary(self) -> str:
        """Human-readable architecture summary."""
        lines = [f"Sequential ({self.num_parameters()} parameters)"]
        for index, layer in enumerate(self.layers):
            lines.append(f"  [{index}] {layer!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Sequential(num_layers={len(self.layers)}, num_parameters={self.num_parameters()})"

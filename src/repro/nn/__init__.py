"""Minimal neural-network library (numpy forward/backward) used for DQN policies.

The paper trains convolutional Q-networks (C3F2, C5F4) with PyTorch; this
package provides the equivalent building blocks implemented directly on
numpy arrays so the whole reproduction runs without external ML frameworks:

* :mod:`repro.nn.layers` — Linear, Conv2d, ReLU, Flatten, MaxPool2d
* :mod:`repro.nn.network` — :class:`Sequential` container with backprop
* :mod:`repro.nn.loss` — MSE and Huber losses
* :mod:`repro.nn.optim` — SGD, Momentum, RMSProp, Adam
* :mod:`repro.nn.policies` — the paper's C3F2 / C5F4 policy architectures
* :mod:`repro.nn.backend` — pluggable compute backends (numpy default,
  optional lazily-imported torch) the whole stack routes its arithmetic
  through
"""

from repro.nn.backend import (
    ArrayBackend,
    backend_available,
    default_backend_name,
    get_backend,
    registered_backends,
    set_default_backend,
)
from repro.nn.layers import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Parameter,
    ReLU,
)
from repro.nn.network import Sequential
from repro.nn.loss import HuberLoss, MSELoss
from repro.nn.optim import SGD, Adam, RMSProp
from repro.nn.policies import PolicySpec, build_policy, c3f2, c5f4, mlp

__all__ = [
    "ArrayBackend",
    "backend_available",
    "default_backend_name",
    "get_backend",
    "registered_backends",
    "set_default_backend",
    "Parameter",
    "Linear",
    "Conv2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
    "Sequential",
    "MSELoss",
    "HuberLoss",
    "SGD",
    "RMSProp",
    "Adam",
    "PolicySpec",
    "build_policy",
    "c3f2",
    "c5f4",
    "mlp",
]

"""Neural-network layers with explicit forward and backward passes.

Each layer caches whatever it needs from the forward pass and exposes
``backward(grad_output)`` returning the gradient with respect to its input
while accumulating parameter gradients into :class:`Parameter.grad`.

All array arithmetic goes through a pluggable
:class:`~repro.nn.backend.ArrayBackend` (``backend=`` on every constructor,
defaulting to the process-wide selection).  The numpy backend reproduces the
direct-numpy implementation bitwise; the torch backend trades that for faster
gradient-bound training.  The convolution is implemented with the backend's
im2col/col2im, which keeps the code readable while letting each backend bring
its fastest patch-extraction kernel (numpy strided windows, torch unfold).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

from repro.errors import ConfigurationError, ShapeError
from repro.nn import init as initializers
from repro.nn.backend import ArrayBackend, resolve_backend as _resolve_backend
from repro.utils.rng import SeedLike, as_generator

BackendLike = Union[ArrayBackend, str, None]


class Parameter:
    """A trainable array together with its accumulated gradient."""

    def __init__(self, data, name: str = "", backend: BackendLike = None) -> None:
        self.backend = _resolve_backend(backend)
        self.data = self.backend.asarray(data, "float64")
        self.grad = self.backend.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return self.backend.numel(self.data)

    def zero_grad(self) -> None:
        self.backend.fill_(self.grad, 0.0)

    def copy_(self, other: "Parameter") -> None:
        """In-place copy of another parameter's values (used for target-network sync)."""
        if tuple(other.data.shape) != tuple(self.data.shape):
            raise ShapeError(
                f"cannot copy parameter of shape {tuple(other.data.shape)} "
                f"into {tuple(self.data.shape)}"
            )
        self.backend.copyto_(self.data, other.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Layer:
    """Base class for all layers."""

    #: Human-readable layer kind used by the accelerator cost model.
    kind: str = "generic"

    def __init__(self, backend: BackendLike = None) -> None:
        self.name = self.__class__.__name__
        self.backend = _resolve_backend(backend)

    def forward(self, inputs):
        raise NotImplementedError

    def backward(self, grad_output):
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the per-sample output given a per-sample input shape."""
        raise NotImplementedError

    def __call__(self, inputs):
        return self.forward(inputs)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


class Linear(Layer):
    """Fully-connected layer ``y = x @ W.T + b``."""

    kind = "linear"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
        name: str = "linear",
        backend: BackendLike = None,
    ) -> None:
        super().__init__(backend)
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Linear features must be positive, got in={in_features}, out={out_features}"
            )
        generator = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.weight = Parameter(
            initializers.kaiming_uniform((out_features, in_features), generator),
            name=f"{name}.weight",
            backend=self.backend,
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(
                initializers.uniform_bias((out_features,), in_features, generator),
                name=f"{name}.bias",
                backend=self.backend,
            )
        self._input = None

    def forward(self, inputs):
        be = self.backend
        inputs = be.asarray(inputs, "float64")
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected input of shape (N, {self.in_features}), "
                f"got {tuple(inputs.shape)}"
            )
        self._input = inputs
        output = be.matmul(inputs, be.transpose(self.weight.data))
        if self.bias is not None:
            output = be.add(output, self.bias.data)
        return output

    def backward(self, grad_output):
        if self._input is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        be = self.backend
        grad_output = be.asarray(grad_output, "float64")
        be.add(
            self.weight.grad,
            be.matmul(be.transpose(grad_output), self._input),
            out=self.weight.grad,
        )
        if self.bias is not None:
            be.add(self.bias.grad, be.sum(grad_output, axis=0), out=self.bias.grad)
        return be.matmul(grad_output, self.weight.data)

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1 or input_shape[0] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected per-sample input shape ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Layer):
    """2-D convolution over ``(N, C, H, W)`` inputs (cross-correlation, as in PyTorch)."""

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: SeedLike = None,
        name: str = "conv",
        backend: BackendLike = None,
    ) -> None:
        super().__init__(backend)
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ConfigurationError(
                "Conv2d parameters must be positive (padding non-negative): "
                f"in={in_channels}, out={out_channels}, k={kernel_size}, stride={stride}, pad={padding}"
            )
        generator = as_generator(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(
            initializers.kaiming_uniform(weight_shape, generator),
            name=f"{name}.weight",
            backend=self.backend,
        )
        self.bias: Optional[Parameter] = None
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(
                initializers.uniform_bias((out_channels,), fan_in, generator),
                name=f"{name}.bias",
                backend=self.backend,
            )
        self._cols = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, inputs):
        be = self.backend
        inputs = be.asarray(inputs, "float64")
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected input of shape (N, {self.in_channels}, H, W), "
                f"got {tuple(inputs.shape)}"
            )
        cols, out_hw = be.im2col(
            inputs, (self.kernel_size, self.kernel_size), self.stride, self.padding
        )
        self._cols = cols
        self._input_shape = tuple(inputs.shape)
        self._out_hw = out_hw
        weight_matrix = be.reshape(self.weight.data, (self.out_channels, -1))
        output = be.matmul(cols, be.transpose(weight_matrix))
        if self.bias is not None:
            output = be.add(output, self.bias.data)
        batch = inputs.shape[0]
        out_h, out_w = out_hw
        output = be.reshape(output, (batch, out_h, out_w, self.out_channels))
        return be.transpose(output, (0, 3, 1, 2))

    def backward(self, grad_output):
        if self._cols is None or self._input_shape is None or self._out_hw is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        be = self.backend
        grad_output = be.asarray(grad_output, "float64")
        batch = self._input_shape[0]
        out_h, out_w = self._out_hw
        grad_flat = be.reshape(
            be.transpose(grad_output, (0, 2, 3, 1)), (batch, out_h * out_w, self.out_channels)
        )
        weight_matrix = be.reshape(self.weight.data, (self.out_channels, -1))
        grad_weight = be.einsum("npo,npk->ok", grad_flat, self._cols)
        be.add(
            self.weight.grad,
            be.reshape(grad_weight, self.weight.shape),
            out=self.weight.grad,
        )
        if self.bias is not None:
            be.add(self.bias.grad, be.sum(grad_flat, axis=(0, 1)), out=self.bias.grad)
        grad_cols = be.matmul(grad_flat, weight_matrix)
        return be.col2im(
            grad_cols,
            self._input_shape,
            (self.kernel_size, self.kernel_size),
            self.stride,
            self.padding,
            self._out_hw,
        )

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected per-sample input shape ({self.in_channels}, H, W), got {input_shape}"
            )
        _, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ShapeError(
                f"{self.name}: kernel {self.kernel_size} does not fit input {input_shape}"
            )
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class ReLU(Layer):
    """Rectified linear unit."""

    kind = "activation"

    def __init__(self, backend: BackendLike = None) -> None:
        super().__init__(backend)
        self._mask = None

    def forward(self, inputs):
        be = self.backend
        inputs = be.asarray(inputs, "float64")
        self._mask = inputs > 0.0
        return be.where(self._mask, inputs, 0.0)

    def backward(self, grad_output):
        if self._mask is None:
            raise ShapeError("ReLU: backward called before forward")
        return self.backend.where(self._mask, grad_output, 0.0)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)


class Flatten(Layer):
    """Flatten all per-sample dimensions into one feature vector."""

    kind = "reshape"

    def __init__(self, backend: BackendLike = None) -> None:
        super().__init__(backend)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs):
        be = self.backend
        inputs = be.asarray(inputs, "float64")
        self._input_shape = tuple(inputs.shape)
        return be.reshape(inputs, (inputs.shape[0], -1))

    def backward(self, grad_output):
        if self._input_shape is None:
            raise ShapeError("Flatten: backward called before forward")
        be = self.backend
        return be.reshape(be.asarray(grad_output, "float64"), self._input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(math.prod(input_shape)),)


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride) over ``(N, C, H, W)`` inputs."""

    kind = "pool"

    def __init__(self, kernel_size: int, backend: BackendLike = None) -> None:
        super().__init__(backend)
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self._argmax = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs):
        be = self.backend
        inputs = be.asarray(inputs, "float64")
        if inputs.ndim != 4:
            raise ShapeError(f"MaxPool2d expects (N, C, H, W) inputs, got {tuple(inputs.shape)}")
        batch, channels, height, width = inputs.shape
        k = self.kernel_size
        if height % k != 0 or width % k != 0:
            raise ShapeError(
                f"MaxPool2d kernel {k} must divide spatial dims ({height}, {width})"
            )
        self._input_shape = tuple(inputs.shape)
        reshaped = be.reshape(inputs, (batch, channels, height // k, k, width // k, k))
        windows = be.reshape(
            be.transpose(reshaped, (0, 1, 2, 4, 3, 5)),
            (batch, channels, height // k, width // k, k * k),
        )
        windows = be.ascontiguous(windows)
        self._argmax = be.argmax(windows, axis=-1)
        return be.max(windows, axis=-1)

    def backward(self, grad_output):
        if self._argmax is None or self._input_shape is None:
            raise ShapeError("MaxPool2d: backward called before forward")
        be = self.backend
        grad_output = be.asarray(grad_output, "float64")
        batch, channels, height, width = self._input_shape
        k = self.kernel_size
        grad_windows = be.zeros((batch, channels, height // k, width // k, k * k), "float64")
        be.put_along_axis(grad_windows, self._argmax[..., None], grad_output[..., None], axis=-1)
        grad_input = be.reshape(grad_windows, (batch, channels, height // k, width // k, k, k))
        grad_input = be.reshape(
            be.transpose(grad_input, (0, 1, 2, 4, 3, 5)), (batch, channels, height, width)
        )
        return grad_input

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        k = self.kernel_size
        if height % k != 0 or width % k != 0:
            raise ShapeError(
                f"MaxPool2d kernel {k} must divide spatial dims ({height}, {width})"
            )
        return (channels, height // k, width // k)

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size})"

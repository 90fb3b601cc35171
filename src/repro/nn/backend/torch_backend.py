"""Optional PyTorch compute backend (CPU by default, device-selectable), loaded lazily.

The device comes from the ``REPRO_TORCH_DEVICE`` environment variable (or an
explicit ``TorchBackend(device=...)``); ``cuda`` requests are validated
eagerly against ``torch.cuda.is_available()``.  The backend's
:attr:`metric_tag` is ``torch.<device>``, so ledger fingerprints keep GPU and
CPU runs in separate series.

``torch`` is imported under a guard the way SNIPPETS' iGibson environment
guards its torch import: importing *this module* does not require torch to be
installed — only instantiating :class:`TorchBackend` (which happens the first
time ``get_backend("torch")`` is called) does, and a missing install raises a
:class:`~repro.errors.BackendError` naming the ``pip install -e .[torch]``
extra.

All arithmetic runs in float64 on CPU tensors so results track the numpy
backend to floating-point tolerance (not bitwise — BLAS summation orders
differ); the win is torch's fused ``unfold``/``fold`` convolution kernels and
threaded matmuls on the gradient-bound training path
(``benchmarks/test_bench_backend.py`` gates the speedup).

Conversions at the module boundary are zero-copy: ``torch.from_numpy`` and
``Tensor.numpy()`` share memory for CPU tensors, which also lets the
duplicate-accumulating ``*_at`` scatter ops delegate to numpy's ``ufunc.at``
in place.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackendError, ShapeError
from repro.nn.backend import ArrayBackend

#: Environment variable selecting the torch device ("cpu", "cuda", "cuda:1"...).
TORCH_DEVICE_ENV_VAR = "REPRO_TORCH_DEVICE"

try:  # pragma: no cover - exercised only when torch is installed
    import torch
    import torch.nn.functional as F
except ImportError:  # pragma: no cover - the numpy-only install
    torch = None
    F = None


class TorchBackend(ArrayBackend):
    """PyTorch implementation of the :class:`~repro.nn.backend.ArrayBackend` protocol."""

    name = "torch"

    def __init__(self, device: Optional[str] = None) -> None:
        if torch is None:
            raise BackendError(
                "the 'torch' backend was requested but torch is not installed; "
                "install it with: pip install -e .[torch]"
            )
        if device is None:
            device = os.environ.get(TORCH_DEVICE_ENV_VAR, "cpu")
        resolved = torch.device(device)
        if resolved.type == "cuda" and not torch.cuda.is_available():
            raise BackendError(
                f"torch device {device!r} was requested but CUDA is not available "
                "in this torch build"
            )
        self._device = resolved
        self.device = str(resolved)
        self._dtypes = {
            "float64": torch.float64,
            "float32": torch.float32,
            "int64": torch.int64,
            "int32": torch.int32,
            "int8": torch.int8,
            # Words on the fault path are non-negative and < 2**bits, so the
            # unsigned view fits comfortably in a signed 64-bit tensor.
            "uint64": torch.int64,
            "bool": torch.bool,
        }

    @property
    def metric_tag(self) -> str:
        # torch.cpu vs torch.cuda: GPU runs must form their own ledger
        # series, never average into the CPU baseline.
        return f"{self.name}.{self.device}"

    # ------------------------------------------------------------------ conversion
    def asarray(self, values, dtype: str = "float64"):
        if isinstance(values, torch.Tensor):
            return values.to(device=self._device, dtype=self._dtypes[dtype])
        return torch.as_tensor(
            np.asarray(values), dtype=self._dtypes[dtype], device=self._device
        )

    def array(self, values, dtype: str = "float64"):
        return self.asarray(values, dtype).clone()

    def from_numpy(self, values):
        tensor = torch.from_numpy(np.ascontiguousarray(values))
        # .to() is the identity on the CPU device, preserving the zero-copy
        # contract; on an accelerator it is the explicit host->device upload.
        return tensor.to(self._device) if self._device.type != "cpu" else tensor

    def to_numpy(self, values, copy: bool = False):
        if isinstance(values, torch.Tensor):
            array = values.detach().cpu().contiguous().numpy()
        else:
            array = np.asarray(values)
        return array.copy() if copy else array

    def copy(self, values):
        return values.clone()

    def zeros(self, shape: Sequence[int], dtype: str = "float64"):
        return torch.zeros(tuple(shape), dtype=self._dtypes[dtype], device=self._device)

    def zeros_like(self, values):
        return torch.zeros_like(values)

    def empty_like(self, values):
        return torch.empty_like(values)

    def fill_(self, values, value: float) -> None:
        values.fill_(value)

    def copyto_(self, destination, source) -> None:
        destination.copy_(source)

    def numel(self, values) -> int:
        return int(values.numel())

    def astype(self, values, dtype: str):
        return values.to(self._dtypes[dtype])

    # ------------------------------------------------------------------ shape
    def reshape(self, values, shape: Sequence[int]):
        return values.reshape(shape)

    def transpose(self, values, axes: Optional[Sequence[int]] = None):
        if axes is None:
            return values.t()
        return values.permute(tuple(axes))

    def ascontiguous(self, values):
        return values.contiguous()

    # ------------------------------------------------------------------ elementwise
    def add(self, a, b, out=None):
        return torch.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return torch.sub(a, b, out=out)

    def multiply(self, a, b, out=None):
        return torch.mul(a, b, out=out)

    def divide(self, a, b, out=None):
        return torch.div(a, b, out=out)

    def sqrt(self, values, out=None):
        return torch.sqrt(values, out=out)

    def clip(self, values, low: float, high: float, out=None):
        return torch.clamp(values, min=low, max=high, out=out)

    def abs(self, values):
        return torch.abs(values)

    def sign(self, values):
        return torch.sign(values)

    def round(self, values):
        return torch.round(values)

    def where(self, condition, a, b):
        if not isinstance(a, torch.Tensor):
            a = torch.as_tensor(a, dtype=b.dtype if isinstance(b, torch.Tensor) else None)
        if not isinstance(b, torch.Tensor):
            b = torch.as_tensor(b, dtype=a.dtype)
        return torch.where(condition, a, b)

    # ------------------------------------------------------------------ linear algebra
    def matmul(self, a, b, out=None):
        return torch.matmul(a, b, out=out)

    def einsum(self, subscripts: str, *operands):
        return torch.einsum(subscripts, *operands)

    # ------------------------------------------------------------------ reductions
    def sum(self, values, axis=None):
        if axis is None:
            return values.sum()
        return values.sum(dim=axis)

    def max(self, values, axis=None):
        if axis is None:
            return values.max()
        return values.max(dim=axis).values

    def mean(self, values):
        return values.mean()

    def argmax(self, values, axis=None):
        if axis is None:
            return values.argmax()
        return values.argmax(dim=axis)

    def quantile(self, values, q: float) -> float:
        return float(torch.quantile(values.reshape(-1), q))

    def all_finite(self, values) -> bool:
        return bool(torch.isfinite(values).all())

    def count_nonzero(self, values) -> int:
        return int(torch.count_nonzero(values))

    def any(self, values) -> bool:
        return bool(values.any())

    # ------------------------------------------------------------------ indexing
    def put_along_axis(self, values, indices, updates, axis: int) -> None:
        values.scatter_(axis, indices, updates)

    # ------------------------------------------------------------------ convolution
    def im2col(self, images, kernel: Tuple[int, int], stride: int, padding: int):
        batch, _, height, width = images.shape
        kernel_h, kernel_w = kernel
        out_h = (height + 2 * padding - kernel_h) // stride + 1
        out_w = (width + 2 * padding - kernel_w) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ShapeError(
                f"convolution output would be empty for input {tuple(images.shape[2:])}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        # F.unfold emits (N, C*KH*KW, OH*OW) with the same channel-major
        # (c, kh, kw) patch ordering the numpy strided-window path produces.
        cols = F.unfold(images, kernel_size=kernel, padding=padding, stride=stride)
        return cols.transpose(1, 2).contiguous(), (out_h, out_w)

    def col2im(
        self,
        cols,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
        out_hw: Tuple[int, int],
    ):
        _, _, height, width = input_shape
        return F.fold(
            cols.transpose(1, 2),
            output_size=(height, width),
            kernel_size=kernel,
            padding=padding,
            stride=stride,
        )

    # ------------------------------------------------------------------ integer / bit ops
    def mod(self, values, modulus: int):
        return torch.remainder(values, modulus)

    def bitwise_xor(self, a, b):
        return torch.bitwise_xor(a, b)

    def bitwise_and(self, a, b):
        return torch.bitwise_and(a, b)

    def bitwise_or(self, a, b):
        return torch.bitwise_or(a, b)

    def invert(self, values):
        return torch.bitwise_not(values)

    def left_shift(self, a, b):
        return torch.bitwise_left_shift(a, b)

    def floor_divide(self, a, b):
        return torch.div(a, b, rounding_mode="floor")

    # The scatter ops must accumulate when several fault bits land in the same
    # word; CPU tensors share memory with their numpy views, so numpy's
    # ``ufunc.at`` updates the tensor in place without a copy.  On an
    # accelerator the update round-trips through a host copy — the fault path
    # is rare enough that correctness beats a custom scatter kernel.
    def _scatter_at(self, ufunc, target, indices, masks) -> None:
        if target.device.type == "cpu":
            ufunc.at(target.numpy(), self.to_numpy(indices), self.to_numpy(masks))
        else:
            host = target.detach().cpu().numpy()
            ufunc.at(host, self.to_numpy(indices), self.to_numpy(masks))
            target.copy_(torch.from_numpy(host))

    def bitwise_xor_at(self, target, indices, masks) -> None:
        self._scatter_at(np.bitwise_xor, target, indices, masks)

    def bitwise_and_at(self, target, indices, masks) -> None:
        self._scatter_at(np.bitwise_and, target, indices, masks)

    def bitwise_or_at(self, target, indices, masks) -> None:
        self._scatter_at(np.bitwise_or, target, indices, masks)

    def popcount(self, values) -> int:
        array = self.to_numpy(values)
        if array.size == 0:
            return 0
        if hasattr(np, "bitwise_count"):
            return int(np.bitwise_count(array.astype(np.uint64)).sum())
        unsigned = array.astype(np.uint64, copy=True)
        total = 0
        one = np.uint64(1)
        while unsigned.any():
            total += int(np.count_nonzero(unsigned & one))
            unsigned >>= one
        return total

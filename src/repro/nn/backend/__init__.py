"""Pluggable compute backends for the tensor hot paths.

The nn stack (:mod:`repro.nn.layers` / :mod:`repro.nn.optim` /
:mod:`repro.nn.loss`), the fixed-point quantizer and the fault-map corruption
operator all execute their array arithmetic through an :class:`ArrayBackend`
instead of calling ``numpy`` directly.  Two implementations ship:

* :class:`~repro.nn.backend.numpy_backend.NumpyBackend` — the default.  Its
  methods are one-line delegations to the exact numpy expressions the
  pre-backend code used, so results are **bitwise identical** to the
  pre-refactor stack (pinned by ``tests/test_nn_backend.py``).
* :class:`~repro.nn.backend.torch_backend.TorchBackend` — optional, loaded
  lazily; ``torch`` is only imported when the backend is actually requested
  (the guarded-import idiom), so the numpy-only install never pays for it.

Selection, most specific wins:

1. an explicit ``backend=`` argument / ``DqnConfig.backend`` field,
2. :func:`set_default_backend` (process-wide, what the CLI ``--backend`` sets),
3. the ``REPRO_BACKEND`` environment variable (inherited by worker processes),
4. ``"numpy"``.

Backends are stateless singletons: copy/deepcopy return the same object and
pickling round-trips through :func:`get_backend`, so networks that hold a
backend reference clone and cross process boundaries cheaply.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BackendError

#: Environment variable consulted when no backend was selected explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class ArrayBackend:
    """Protocol of RNG-free deterministic array operations.

    Arrays produced by one backend must only be fed back into the same
    backend; conversion at module boundaries goes through :meth:`from_numpy`
    and :meth:`to_numpy`.  Methods taking ``out=`` write into a caller-owned
    buffer (and return it) so steady-state loops allocate nothing.
    """

    #: Registry key and display name of the backend.
    name: str = "abstract"

    #: Device the backend computes on; CPU for everything except an
    #: accelerator-selecting :class:`~repro.nn.backend.torch_backend.TorchBackend`.
    device: str = "cpu"

    @property
    def metric_tag(self) -> str:
        """The tag this backend contributes to run fingerprints and cache keys.

        CPU-only backends tag with their bare name; device-selecting backends
        (torch) append the device (``torch.cpu``, ``torch.cuda``), so a GPU
        run's ledger fingerprint never compares against a CPU baseline.
        """
        return self.name

    # ------------------------------------------------------------------ conversion
    def asarray(self, values, dtype: str = "float64"):
        """``values`` as a backend array of ``dtype`` (no copy when possible)."""
        raise NotImplementedError

    def array(self, values, dtype: str = "float64"):
        """A fresh backend array holding a copy of ``values``."""
        raise NotImplementedError

    def from_numpy(self, values):
        """A backend array viewing (where possible) a numpy array."""
        raise NotImplementedError

    def to_numpy(self, values, copy: bool = False):
        """The numpy view (or copy) of a backend array."""
        raise NotImplementedError

    def copy(self, values):
        raise NotImplementedError

    def zeros(self, shape: Sequence[int], dtype: str = "float64"):
        raise NotImplementedError

    def zeros_like(self, values):
        raise NotImplementedError

    def empty_like(self, values):
        raise NotImplementedError

    def fill_(self, values, value: float) -> None:
        """In-place fill."""
        raise NotImplementedError

    def copyto_(self, destination, source) -> None:
        """In-place elementwise copy of ``source`` into ``destination``."""
        raise NotImplementedError

    def numel(self, values) -> int:
        raise NotImplementedError

    def astype(self, values, dtype: str):
        raise NotImplementedError

    # ------------------------------------------------------------------ shape
    def reshape(self, values, shape: Sequence[int]):
        raise NotImplementedError

    def transpose(self, values, axes: Optional[Sequence[int]] = None):
        raise NotImplementedError

    def ascontiguous(self, values):
        raise NotImplementedError

    # ------------------------------------------------------------------ elementwise
    def add(self, a, b, out=None):
        raise NotImplementedError

    def subtract(self, a, b, out=None):
        raise NotImplementedError

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def divide(self, a, b, out=None):
        raise NotImplementedError

    def sqrt(self, values, out=None):
        raise NotImplementedError

    def clip(self, values, low: float, high: float, out=None):
        raise NotImplementedError

    def abs(self, values):
        raise NotImplementedError

    def sign(self, values):
        raise NotImplementedError

    def round(self, values):
        """Round half to even (numpy/torch shared convention)."""
        raise NotImplementedError

    def where(self, condition, a, b):
        raise NotImplementedError

    # ------------------------------------------------------------------ linear algebra
    def matmul(self, a, b, out=None):
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands):
        raise NotImplementedError

    # ------------------------------------------------------------------ reductions
    def sum(self, values, axis=None):
        raise NotImplementedError

    def max(self, values, axis=None):
        raise NotImplementedError

    def mean(self, values):
        raise NotImplementedError

    def argmax(self, values, axis=None):
        raise NotImplementedError

    def quantile(self, values, q: float) -> float:
        raise NotImplementedError

    def all_finite(self, values) -> bool:
        raise NotImplementedError

    def count_nonzero(self, values) -> int:
        raise NotImplementedError

    def any(self, values) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------ indexing
    def put_along_axis(self, values, indices, updates, axis: int) -> None:
        """In-place scatter of ``updates`` at ``indices`` along ``axis``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ convolution
    def im2col(self, images, kernel: Tuple[int, int], stride: int, padding: int):
        """``(N, C, H, W)`` images -> ``((N, OH*OW, C*KH*KW) patches, (OH, OW))``.

        The patch axis is channel-major ``(c, kh, kw)`` — the layout both
        numpy's strided-window reshape and torch's ``F.unfold`` produce.
        """
        raise NotImplementedError

    def col2im(
        self,
        cols,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
        out_hw: Tuple[int, int],
    ):
        """Scatter-add patch gradients back into image gradients (im2col inverse)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ integer / bit ops
    def mod(self, values, modulus: int):
        raise NotImplementedError

    def bitwise_xor(self, a, b):
        raise NotImplementedError

    def bitwise_and(self, a, b):
        raise NotImplementedError

    def bitwise_or(self, a, b):
        raise NotImplementedError

    def invert(self, values):
        raise NotImplementedError

    def left_shift(self, a, b):
        raise NotImplementedError

    def floor_divide(self, a, b):
        raise NotImplementedError

    def bitwise_xor_at(self, target, indices, masks) -> None:
        """In-place ``target[indices] ^= masks`` with duplicate-index accumulation."""
        raise NotImplementedError

    def bitwise_and_at(self, target, indices, masks) -> None:
        raise NotImplementedError

    def bitwise_or_at(self, target, indices, masks) -> None:
        raise NotImplementedError

    def popcount(self, values) -> int:
        """Total number of set bits across an unsigned-integer-valued array."""
        raise NotImplementedError

    # ------------------------------------------------------------------ identity plumbing
    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"

    def __copy__(self) -> "ArrayBackend":
        return self

    def __deepcopy__(self, memo) -> "ArrayBackend":
        return self

    def __reduce__(self):
        return (get_backend, (self.name,))


# ---------------------------------------------------------------------- registry
_LOADERS: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_default_name: Optional[str] = None


def register_backend(name: str, loader: Callable[[], ArrayBackend]) -> None:
    """Register ``name`` with a lazy loader returning the backend singleton."""
    if name in _LOADERS and _LOADERS[name] is not loader:
        raise BackendError(f"backend {name!r} is already registered")
    _LOADERS[name] = loader


def registered_backends() -> List[str]:
    """Every registered backend name (whether or not its library is installed)."""
    return sorted(_LOADERS)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its library actually loads."""
    if name not in _LOADERS:
        return False
    try:
        get_backend(name)
        return True
    except BackendError:
        return False


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when not given one explicitly."""
    if _default_name is not None:
        return _default_name
    return os.environ.get(BACKEND_ENV_VAR, "numpy")


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    The selection is validated eagerly so a misspelt or uninstalled backend
    fails at the CLI flag rather than deep inside a sweep job.
    """
    global _default_name
    if name is not None:
        get_backend(name)
    _default_name = name


def resolve_backend(backend: Union["ArrayBackend", str, None] = None) -> ArrayBackend:
    """Accept a backend instance, a registered name, or ``None`` (the default)."""
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)


def peek_backend(name: Optional[str] = None) -> Optional[ArrayBackend]:
    """The already-instantiated backend for ``name``, or ``None``.

    Unlike :func:`get_backend` this never triggers a lazy library import —
    it is what the environment fingerprint uses to report the device of a
    backend *if* one was actually used, without paying a torch import just
    to write a ledger record.
    """
    key = name if name is not None else default_backend_name()
    return _INSTANCES.get(key)


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve a backend by name (``None`` -> the process default)."""
    key = name if name is not None else default_backend_name()
    instance = _INSTANCES.get(key)
    if instance is not None:
        return instance
    loader = _LOADERS.get(key)
    if loader is None:
        raise BackendError(
            f"unknown compute backend {key!r}; registered backends: {registered_backends()}"
        )
    instance = loader()
    _INSTANCES[key] = instance
    return instance


def _load_numpy() -> ArrayBackend:
    from repro.nn.backend.numpy_backend import NumpyBackend

    return NumpyBackend()


def _load_torch() -> ArrayBackend:
    # Deliberately lazy: importing this module (and therefore torch) only
    # happens when the torch backend is requested by name.
    from repro.nn.backend.torch_backend import TorchBackend

    return TorchBackend()


register_backend("numpy", _load_numpy)
register_backend("torch", _load_torch)

#: The default backend, resolved eagerly — every numpy-only code path uses
#: this singleton, so selection overhead is one module-attribute lookup.
NUMPY_BACKEND: ArrayBackend = get_backend("numpy")

__all__ = [
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "NUMPY_BACKEND",
    "backend_available",
    "default_backend_name",
    "get_backend",
    "peek_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_default_backend",
]

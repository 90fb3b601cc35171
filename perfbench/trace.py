"""Outside-in layer timing for the traced benchmark run.

:class:`LayerTracer` wraps public functions of the library from the
benchmark's side — nothing under ``src/`` changes — and keeps one call stack
across every wrapped function, so each layer's time is *exclusive* (self)
time: a call's wall time minus the wall time of the wrapped calls nested in
it.  The self times of all layers plus the time spent inside no wrapped
function add up to the traced wall time exactly.

* Methods are wrapped on the class that defines them (``staticmethod`` and
  ``classmethod`` descriptors are preserved).
* Module-level functions are wrapped where they are defined *and* in every
  ``repro`` module that imported them by name (``from x import f``), since
  those modules call their own binding.
* Generator functions (``Executor.submit``) are timed across their
  iteration: only the intervals in which the generator runs count, not the
  time its consumer spends between items.
* :meth:`LayerTracer.remove` restores every original binding.

Wrapping is per process.  Work that runs in pool worker processes shows up
only as the parent's wait inside ``Executor.submit``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``rows(args, kwargs) -> int``: the work a single call did, in rows.
RowsFn = Callable[[tuple, dict], int]


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it covers and the metrics it reports.

    ``name`` is the metric stem (``<module>.<function>``); the time metric is
    ``<name>.self_s`` unless ``time_name`` overrides it.  ``counts`` selects
    the extra work metrics (``calls``, ``rows``).  ``moves`` names the
    end-to-end metric the layer should move and ``workloads`` the workloads
    on which it does most of its work.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    workloads: Tuple[str, ...]
    counts: Tuple[str, ...] = ()
    time_name: Optional[str] = None
    rows: Optional[RowsFn] = None
    #: A ``repro.obs`` counter collected around every call (see :class:`_Totals`).
    counter: Optional[str] = None

    @property
    def time_metric(self) -> str:
        return self.time_name or f"{self.name}.self_s"


class _Totals:
    """Accumulated self time and work of one layer."""

    __slots__ = ("self_s", "calls", "rows", "counted")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.rows = 0
        self.counted = 0.0


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r} itself")
    return owner, attr


class LayerTracer:
    """Installs self-time wrappers for a set of :class:`Layer` values."""

    def __init__(self, layers: Tuple[Layer, ...]) -> None:
        self.layers = layers
        self.totals: Dict[str, _Totals] = {layer.name: _Totals() for layer in layers}
        self._stack: List[float] = []  # wrapped-child time of each open call
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ lifecycle
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        for layer in self.layers:
            for target in layer.targets:
                owner, attr = _resolve(target)
                raw = vars(owner)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, layer))
                    self._set(owner, attr, wrapped, raw)
                elif inspect.isclass(owner):
                    self._set(owner, attr, self._wrap(raw, layer), raw)
                else:
                    self._rebind_everywhere(raw, self._wrap(raw, layer))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def _rebind_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in its home module and every by-name import of it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, original)

    # ------------------------------------------------------------------ wrappers
    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        totals = self.totals[layer.name]
        stack = self._stack
        clock = time.perf_counter
        rows = layer.rows

        def close_frame(start: float) -> None:
            elapsed = clock() - start
            totals.self_s += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                totals.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        start = clock()
                        stack.append(0.0)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_frame(start)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        counter = layer.counter
        if counter is not None:
            from repro.obs import collecting_metrics

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                with collecting_metrics() as registry:
                    result = fn(*args, **kwargs)
                totals.counted += registry.snapshot()["counters"].get(counter, 0)
                return result
            finally:
                close_frame(start)
                totals.calls += 1
                if rows is not None:
                    totals.rows += rows(args, kwargs)

        return wrapper

    # ------------------------------------------------------------------ results
    def self_time_total(self) -> float:
        return sum(totals.self_s for totals in self.totals.values())

    def metrics(self, units: int) -> Dict[str, float]:
        """Per-unit averages over ``units`` traced units of work."""
        out: Dict[str, float] = {}
        for layer in self.layers:
            totals = self.totals[layer.name]
            out[layer.time_metric] = totals.self_s / units
            if "calls" in layer.counts:
                out[f"{layer.name}.calls"] = totals.calls / units
            if "rows" in layer.counts:
                out[f"{layer.name}.rows"] = totals.rows / units
        return out

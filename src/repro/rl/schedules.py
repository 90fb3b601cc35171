"""Exploration-rate schedules for epsilon-greedy action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class Schedule:
    """Maps a global step index to a value (exploration rate).

    Schedules are always indexed by the *global transition count*: a B-lane
    lockstep training step assigns indices ``t, t+1, ..., t+B-1`` to its B
    simultaneous transitions, so a batched run and a serial run see the same
    exploration rate at the same ``total_steps`` (see :meth:`values`).
    """

    def value(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ConfigurationError(f"step must be non-negative, got {step}")
        return self.value(step)

    def values(self, steps: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at an array of global step indices.

        Elementwise-identical to calling the schedule per step (subclasses
        overriding this keep that contract — it is what makes batched
        exploration reproduce the serial schedule exactly).
        """
        steps = np.asarray(steps, dtype=np.int64)
        if steps.size and int(steps.min()) < 0:
            raise ConfigurationError("steps must be non-negative")
        return np.asarray([self.value(int(step)) for step in steps], dtype=np.float64)


@dataclass(frozen=True)
class ConstantSchedule(Schedule):
    """A constant value for every step."""

    constant: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.constant <= 1.0:
            raise ConfigurationError(f"constant must be in [0, 1], got {self.constant}")

    def value(self, step: int) -> float:
        return self.constant


@dataclass(frozen=True)
class LinearDecay(Schedule):
    """Linear interpolation from ``start`` to ``end`` over ``decay_steps`` steps."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 5000

    def __post_init__(self) -> None:
        for name, value in (("start", self.start), ("end", self.end)):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.decay_steps <= 0:
            raise ConfigurationError(f"decay_steps must be positive, got {self.decay_steps}")

    def value(self, step: int) -> float:
        fraction = min(1.0, step / self.decay_steps)
        return self.start + fraction * (self.end - self.start)

    def values(self, steps: np.ndarray) -> np.ndarray:
        steps = np.asarray(steps, dtype=np.int64)
        if steps.size and int(steps.min()) < 0:
            raise ConfigurationError("steps must be non-negative")
        fraction = np.minimum(1.0, steps / self.decay_steps)
        return self.start + fraction * (self.end - self.start)

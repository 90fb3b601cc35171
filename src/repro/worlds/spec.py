"""Declarative, hashable world specifications.

A :class:`WorldSpec` names everything needed to rebuild a world exactly: the
*family* it belongs to (a registered procedural generator), the family's
JSON-able *params* and an integer *seed*.  Like the runtime's
:class:`~repro.runtime.jobs.JobSpec`, a spec is pure data — it hashes to a
stable content address, serialises losslessly, and travels through job params
so any worker of a sharded sweep regenerates the identical world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.serialization import canonical_json, stable_hash, to_jsonable


@dataclass(frozen=True, eq=False)
class WorldSpec:
    """One procedurally generated world: family + parameters + seed."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.family:
            raise ConfigurationError("a world spec needs a non-empty family name")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"world seed must be a non-negative int, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(f"world seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        # Normalise params immediately so hashing/equality never depend on
        # input container types (tuples vs lists, numpy scalars vs floats).
        object.__setattr__(self, "params", to_jsonable(dict(self.params)))

    # ------------------------------------------------------------------ identity
    def canonical(self) -> Dict[str, Any]:
        return {"family": self.family, "params": self.params, "seed": self.seed}

    @cached_property
    def spec_hash(self) -> str:
        """Stable content hash of this world (cache key / seed source)."""
        return stable_hash(self.canonical())

    @property
    def name(self) -> str:
        """Short human-readable identity, e.g. ``corridor[1a2b3c4d]``."""
        return f"{self.family}[{self.spec_hash[:8]}]"

    # ------------------------------------------------------------------ serialisation
    def to_jsonable(self) -> Dict[str, Any]:
        return self.canonical()

    @staticmethod
    def from_jsonable(payload: Mapping[str, Any]) -> "WorldSpec":
        try:
            return WorldSpec(
                family=str(payload["family"]),
                params=dict(payload.get("params", {})),
                seed=int(payload["seed"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed world spec payload: {error}") from None

    # ------------------------------------------------------------------ equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldSpec):
            return NotImplemented
        return (
            self.family == other.family
            and self.seed == other.seed
            and canonical_json(self.params) == canonical_json(other.params)
        )

    def __hash__(self) -> int:
        return hash((self.family, self.seed, self.spec_hash))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorldSpec({self.name}, seed={self.seed})"

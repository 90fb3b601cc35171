"""Profiled chip models used in the generalisation study (Table III).

The paper evaluates BERRY-trained policies on fault maps profiled from two
different physical chips:

* **Chip 1** — a random spatial error pattern (the same statistical family the
  policy was trained on), evaluated at p = 0.16 % and 0.74 %.
* **Chip 2** — a column-aligned error pattern with a bias towards 0->1 flips,
  evaluated at p = 0.067 % and 0.32 %.

A :class:`ChipProfile` bundles the spatial pattern, the flip-direction bias
and a per-chip scaling of the voltage->BER curve (different chips reach a
given error rate at slightly different voltages), and can produce persistent
fault maps for a weight memory of any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FaultModelError
from repro.faults.ber_model import DEFAULT_BER_MODEL, VoltageBerModel
from repro.faults.fault_map import FaultMap
from repro.faults.sram import SramGeometry
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class ChipProfile:
    """Statistical description of one profiled chip's low-voltage fault behaviour."""

    name: str
    pattern: str = "random"  # "random" or "column_aligned"
    stuck_at_1_bias: float = 0.5
    ber_scale: float = 1.0
    geometry: SramGeometry = field(default_factory=SramGeometry)
    ber_model: VoltageBerModel = DEFAULT_BER_MODEL
    #: Representative evaluation error rates (percent), as reported in Table III.
    reference_ber_percent: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.pattern not in ("random", "column_aligned"):
            raise FaultModelError(f"unknown fault pattern {self.pattern!r}")
        if not 0.0 <= self.stuck_at_1_bias <= 1.0:
            raise FaultModelError(f"stuck_at_1_bias must be in [0, 1], got {self.stuck_at_1_bias}")
        if self.ber_scale <= 0:
            raise FaultModelError(f"ber_scale must be positive, got {self.ber_scale}")

    # ------------------------------------------------------------------ BER queries
    def ber_percent_at_voltage(self, normalized_voltage: float) -> float:
        """This chip's bit-error rate at ``V/Vmin`` (percent)."""
        return self.ber_scale * self.ber_model.ber_percent(normalized_voltage)

    def ber_fraction_at_voltage(self, normalized_voltage: float) -> float:
        return self.ber_percent_at_voltage(normalized_voltage) / 100.0

    # ------------------------------------------------------------------ fault-map sampling
    def fault_map(
        self,
        memory_bits: int,
        ber_percent: Optional[float] = None,
        normalized_voltage: Optional[float] = None,
        rng: SeedLike = None,
    ) -> FaultMap:
        """Sample a persistent fault map for this chip.

        Exactly one of ``ber_percent`` or ``normalized_voltage`` must be given.
        """
        if (ber_percent is None) == (normalized_voltage is None):
            raise FaultModelError("specify exactly one of ber_percent or normalized_voltage")
        if ber_percent is None:
            ber_percent = self.ber_percent_at_voltage(float(normalized_voltage))
        if ber_percent < 0:
            raise FaultModelError(f"ber_percent must be non-negative, got {ber_percent}")
        ber_fraction = ber_percent / 100.0
        generator = as_generator(rng)
        if self.pattern == "random":
            return FaultMap.random(
                memory_bits,
                ber_fraction,
                rng=generator,
                stuck_at_1_bias=self.stuck_at_1_bias,
                label=f"{self.name}@p={ber_percent:.4g}%",
            )
        geometry = self.geometry.geometry_for_capacity(memory_bits)
        fault_map = FaultMap.column_aligned(
            geometry,
            ber_fraction,
            rng=generator,
            stuck_at_1_bias=self.stuck_at_1_bias,
            label=f"{self.name}@p={ber_percent:.4g}%",
        )
        restricted = fault_map.restrict(0, memory_bits)
        return FaultMap(
            memory_bits=memory_bits,
            indices=restricted.indices,
            kinds=restricted.kinds,
            label=fault_map.label,
            metadata=dict(fault_map.metadata),
        )


#: Chip 1 of Table III: random spatial pattern, no flip-direction bias.
CHIP_RANDOM = ChipProfile(
    name="chip1-random",
    pattern="random",
    stuck_at_1_bias=0.5,
    ber_scale=1.0,
    reference_ber_percent=(0.16, 0.74),
)

#: Chip 2 of Table III: column-aligned pattern biased towards 0->1 flips.
CHIP_COLUMN_ALIGNED = ChipProfile(
    name="chip2-column-aligned",
    pattern="column_aligned",
    stuck_at_1_bias=0.85,
    ber_scale=0.45,
    reference_ber_percent=(0.067, 0.32),
)

_CHIPS: Dict[str, ChipProfile] = {
    "chip1": CHIP_RANDOM,
    "chip1-random": CHIP_RANDOM,
    "chip2": CHIP_COLUMN_ALIGNED,
    "chip2-column-aligned": CHIP_COLUMN_ALIGNED,
}


def get_chip(name: str) -> ChipProfile:
    """Look up a profiled chip by name (``"chip1"`` or ``"chip2"``)."""
    key = name.lower()
    if key not in _CHIPS:
        raise FaultModelError(f"unknown chip {name!r}; expected one of {sorted(set(_CHIPS))}")
    return _CHIPS[key]

"""Accelergy-style energy model with low-voltage scaling.

Per-component energies (MAC, SRAM access, DRAM access) at the nominal supply
are taken from published 14/16 nm accelerator characterisations; all on-chip
dynamic energy scales with the square of the supply voltage.  The SRAM
access-energy curve reproduces Fig. 2 of the paper (≈2.0 nJ per access at
0.65 Vmin rising to ≈3.5 nJ at 0.85 Vmin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.hardware.dvfs import DEFAULT_VOLTAGE_SCALING, VoltageScaling
from repro.hardware.systolic import LayerCost


@dataclass(frozen=True)
class SramEnergyCurve:
    """Energy per SRAM access as a function of supply voltage (Fig. 2, right axis)."""

    reference_energy_nj: float = 3.5
    reference_normalized_voltage: float = 0.85
    exponent: float = 2.0
    scaling: VoltageScaling = DEFAULT_VOLTAGE_SCALING

    def __post_init__(self) -> None:
        if self.reference_energy_nj <= 0 or self.reference_normalized_voltage <= 0:
            raise ConfigurationError("SRAM energy reference values must be positive")
        if self.exponent <= 0:
            raise ConfigurationError("exponent must be positive")

    def energy_nj(self, normalized_voltage: float) -> float:
        """Energy of one (row-wide) SRAM access at ``V/Vmin`` in nanojoules."""
        if normalized_voltage <= 0:
            raise ConfigurationError(f"voltage must be positive, got {normalized_voltage}")
        ratio = normalized_voltage / self.reference_normalized_voltage
        return self.reference_energy_nj * ratio**self.exponent


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energies (picojoules, at nominal supply) and voltage scaling.

    The absolute values are representative of an 8-bit systolic accelerator in
    a 14/16 nm process; what matters for the paper's results is the quadratic
    scaling with supply voltage and the relative weight of memory vs compute.
    """

    mac_energy_pj: float = 0.25
    sram_read_energy_pj: float = 1.2
    sram_write_energy_pj: float = 1.5
    dram_access_energy_pj: float = 160.0
    leakage_power_mw: float = 8.0
    scaling: VoltageScaling = DEFAULT_VOLTAGE_SCALING
    sram_curve: SramEnergyCurve = field(default_factory=SramEnergyCurve)

    def __post_init__(self) -> None:
        values = (
            self.mac_energy_pj,
            self.sram_read_energy_pj,
            self.sram_write_energy_pj,
            self.dram_access_energy_pj,
        )
        if any(value <= 0 for value in values):
            raise ConfigurationError("per-operation energies must be positive")
        if self.leakage_power_mw < 0:
            raise ConfigurationError("leakage power must be non-negative")

    # ------------------------------------------------------------------ scaling
    def voltage_factor(self, volts: float) -> float:
        """Dynamic-energy multiplier at ``volts`` relative to nominal supply."""
        return self.scaling.energy_scale(volts)

    # ------------------------------------------------------------------ per-layer energy
    def breakdown_joules(self, cost: LayerCost, volts: float) -> Dict[str, float]:
        """Energy breakdown (compute / sram / dram) for one layer, in joules."""
        factor = self.voltage_factor(volts)
        compute = cost.macs * self.mac_energy_pj * factor * 1e-12
        sram = (
            (cost.ifmap_sram_reads + cost.filter_sram_reads) * self.sram_read_energy_pj
            + cost.ofmap_sram_writes * self.sram_write_energy_pj
        ) * factor * 1e-12
        dram = cost.dram_accesses * self.dram_access_energy_pj * 1e-12
        return {"compute": compute, "sram": sram, "dram": dram}

    # ------------------------------------------------------------------ leakage
    def leakage_energy_joules(self, duration_s: float, volts: float) -> float:
        """Static energy over ``duration_s`` seconds (leakage scales roughly with V)."""
        if duration_s < 0:
            raise ConfigurationError(f"duration must be non-negative, got {duration_s}")
        voltage_ratio = volts / self.scaling.nominal_volts
        return self.leakage_power_mw * 1e-3 * voltage_ratio * duration_s

"""Dynamic voltage and frequency scaling of the onboard accelerator.

The paper operates the accelerator between 0.64 Vmin and the nominal 1 V
supply.  ``Vmin`` — the lowest voltage with zero bit errors — corresponds to
0.70 V for the modelled chip (back-solved from the published energy-saving
factors).  Dynamic energy scales with the square of the supply
voltage, and the clock frequency is scaled alongside the voltage following the
measured behaviour of the 12 nm accelerator SoC the paper references.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class VoltageScaling:
    """Conversion between normalized voltage (V/Vmin), volts, frequency and energy.

    ``threshold_volts`` is the transistor threshold used in the linear
    frequency model ``f(V) = f_nom * (V - Vth) / (Vnom - Vth)``.
    """

    vmin_volts: float = 0.70
    nominal_volts: float = 1.00
    nominal_frequency_mhz: float = 800.0
    threshold_volts: float = 0.30

    def __post_init__(self) -> None:
        if self.vmin_volts <= 0 or self.nominal_volts <= 0:
            raise ConfigurationError("voltages must be positive")
        if self.vmin_volts >= self.nominal_volts:
            raise ConfigurationError(
                f"Vmin ({self.vmin_volts} V) must be below nominal ({self.nominal_volts} V)"
            )
        if not 0.0 <= self.threshold_volts < self.vmin_volts:
            raise ConfigurationError(
                f"threshold voltage must be in [0, Vmin), got {self.threshold_volts}"
            )
        if self.nominal_frequency_mhz <= 0:
            raise ConfigurationError("nominal frequency must be positive")

    # ------------------------------------------------------------------ conversions
    @property
    def nominal_normalized(self) -> float:
        """The nominal supply expressed in Vmin units (≈1.43 for the default chip)."""
        return self.nominal_volts / self.vmin_volts

    def to_volts(self, normalized_voltage: float) -> float:
        if normalized_voltage <= 0:
            raise ConfigurationError(f"normalized voltage must be positive, got {normalized_voltage}")
        return normalized_voltage * self.vmin_volts

    def to_normalized(self, volts: float) -> float:
        if volts <= 0:
            raise ConfigurationError(f"voltage must be positive, got {volts}")
        return volts / self.vmin_volts

    # ------------------------------------------------------------------ frequency / energy
    def frequency_mhz(self, volts: float) -> float:
        """Clock frequency at a supply voltage (linear alpha-power approximation)."""
        if volts <= self.threshold_volts:
            raise ConfigurationError(
                f"supply voltage {volts} V is at or below the threshold voltage "
                f"{self.threshold_volts} V; the processor cannot operate"
            )
        fraction = (volts - self.threshold_volts) / (self.nominal_volts - self.threshold_volts)
        return self.nominal_frequency_mhz * fraction

    def energy_scale(self, volts: float) -> float:
        """Dynamic-energy multiplier relative to nominal supply (``(V/Vnom)^2``)."""
        if volts <= 0:
            raise ConfigurationError(f"voltage must be positive, got {volts}")
        return (volts / self.nominal_volts) ** 2

    def energy_savings(self, volts: float) -> float:
        """Energy-saving factor vs the 1 V nominal operation (paper's "x" column)."""
        return 1.0 / self.energy_scale(volts)

    def energy_savings_at_normalized(self, normalized_voltage: float) -> float:
        return self.energy_savings(self.to_volts(normalized_voltage))


#: Scaling for the 14 nm chip the paper models (1 V nominal, Vmin = 0.70 V).
DEFAULT_VOLTAGE_SCALING = VoltageScaling()

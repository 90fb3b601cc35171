"""Voltage to bit-error-rate calibration.

Fig. 2 of the paper shows the measured relationship between normalized supply
voltage (in units of ``Vmin``, the lowest voltage with zero observed errors)
and the SRAM bit-error rate for a 14 nm FinFET chip; Table II tabulates the
exact (voltage, p) operating points used throughout the evaluation.  The model
here interpolates those published points log-linearly and extrapolates with
the boundary slopes, which reproduces the super-exponential growth of the
error rate as the voltage approaches the near-threshold region.

Voltages are always expressed normalized to ``Vmin`` unless a function name
says otherwise; :mod:`repro.hardware.dvfs` owns the conversion to volts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import FaultModelError

#: (normalized voltage V/Vmin, bit error rate in percent) — Table II of the paper.
TABLE_II_CALIBRATION: Tuple[Tuple[float, float], ...] = (
    (0.64, 20.36),
    (0.68, 5.80),
    (0.71, 1.11),
    (0.73, 4.98e-1),
    (0.74, 2.03e-1),
    (0.76, 7.49e-2),
    (0.77, 2.47e-2),
    (0.79, 7.25e-3),
    (0.80, 1.87e-3),
    (0.81, 4.22e-4),
    (0.83, 8.23e-5),
    (0.84, 1.38e-5),
    (0.86, 1.96e-6),
)


@dataclass(frozen=True)
class VoltageBerModel:
    """Piecewise log-linear interpolation of a measured voltage/BER curve.

    ``calibration`` holds (normalized voltage, BER percent) pairs sorted by
    voltage.  Above ``zero_error_voltage`` (the definition of ``Vmin`` is the
    lowest voltage with no errors, i.e. 1.0) the error rate is exactly zero.
    """

    calibration: Tuple[Tuple[float, float], ...] = TABLE_II_CALIBRATION
    zero_error_voltage: float = 1.0

    def __post_init__(self) -> None:
        if len(self.calibration) < 2:
            raise FaultModelError("calibration needs at least two (voltage, ber) points")
        voltages = [v for v, _ in self.calibration]
        rates = [p for _, p in self.calibration]
        if sorted(voltages) != list(voltages):
            raise FaultModelError("calibration voltages must be sorted ascending")
        if any(p <= 0 for p in rates):
            raise FaultModelError("calibration BER values must be positive (percent)")
        if any(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)):
            raise FaultModelError("calibration BER must strictly decrease with voltage")
        if self.zero_error_voltage <= voltages[-1]:
            raise FaultModelError(
                "zero_error_voltage must be above the highest calibrated voltage"
            )

    # ------------------------------------------------------------------ helpers
    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        voltages = np.array([v for v, _ in self.calibration], dtype=np.float64)
        log_rates = np.log10(np.array([p for _, p in self.calibration], dtype=np.float64))
        return voltages, log_rates

    # ------------------------------------------------------------------ queries
    def ber_percent(self, normalized_voltage: float) -> float:
        """Bit-error rate (percent of bit cells faulty) at ``V/Vmin``."""
        if normalized_voltage <= 0:
            raise FaultModelError(f"normalized voltage must be positive, got {normalized_voltage}")
        if normalized_voltage >= self.zero_error_voltage:
            return 0.0
        voltages, log_rates = self._arrays()
        if normalized_voltage <= voltages[0]:
            slope = (log_rates[1] - log_rates[0]) / (voltages[1] - voltages[0])
            value = log_rates[0] + slope * (normalized_voltage - voltages[0])
        elif normalized_voltage >= voltages[-1]:
            slope = (log_rates[-1] - log_rates[-2]) / (voltages[-1] - voltages[-2])
            value = log_rates[-1] + slope * (normalized_voltage - voltages[-1])
        else:
            value = float(np.interp(normalized_voltage, voltages, log_rates))
        return float(10.0**value)

    def ber_fraction(self, normalized_voltage: float) -> float:
        """Bit-error rate as a fraction in [0, 1]."""
        return self.ber_percent(normalized_voltage) / 100.0

    def voltage_for_ber(self, ber_percent: float) -> float:
        """The normalized voltage at which the chip exhibits ``ber_percent`` errors."""
        if ber_percent < 0:
            raise FaultModelError(f"BER must be non-negative, got {ber_percent}")
        if ber_percent == 0.0:
            return self.zero_error_voltage
        voltages, log_rates = self._arrays()
        target = np.log10(ber_percent)
        # log_rates decreases with voltage; reverse both for np.interp.
        reversed_rates = log_rates[::-1]
        reversed_voltages = voltages[::-1]
        if target <= reversed_rates[0]:
            slope = (reversed_voltages[1] - reversed_voltages[0]) / (
                reversed_rates[1] - reversed_rates[0]
            )
            return float(reversed_voltages[0] + slope * (target - reversed_rates[0]))
        if target >= reversed_rates[-1]:
            slope = (reversed_voltages[-1] - reversed_voltages[-2]) / (
                reversed_rates[-1] - reversed_rates[-2]
            )
            return float(reversed_voltages[-1] + slope * (target - reversed_rates[-1]))
        return float(np.interp(target, reversed_rates, reversed_voltages))

    def sweep(self, voltages: Sequence[float]) -> list[Tuple[float, float]]:
        """Evaluate the curve at many voltages, returning (voltage, BER percent) pairs."""
        return [(float(v), self.ber_percent(float(v))) for v in voltages]


#: Model calibrated against the chip the paper evaluates (Chandramoorthy HPCA'19).
DEFAULT_BER_MODEL = VoltageBerModel()

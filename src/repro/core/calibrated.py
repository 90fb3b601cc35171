"""Calibrated analytic robustness curves.

The success-rate-vs-bit-error-rate response of the full-scale system (C3F2
policy, Unreal/AirSim environments, 500 fault maps per point) is published in
Table I and the BERRY column of Table II.  The paper-scale benchmark harness
uses these calibrated curves as the ``success_rate_provider`` of the
cyber-physical pipeline so that every table and figure can be regenerated
without hours of RL training; the reduced-scale trained pipeline (see
:mod:`repro.core.modes` and the integration tests) demonstrates that the same
qualitative curves emerge from training in this repository's environments.

All success rates are fractions in [0, 1]; bit-error rates are percentages,
matching the paper's axes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.envs.obstacles import ObstacleDensity


class AutonomyScheme(str, enum.Enum):
    """The two autonomy policies compared throughout the evaluation."""

    CLASSICAL = "classical"
    BERRY = "berry"


#: Table I: average success rate (percent) under various bit error rates p (percent).
TABLE_I_CLASSICAL: Tuple[Tuple[float, float], ...] = (
    (0.0, 88.4),
    (0.01, 84.0),
    (0.05, 78.2),
    (0.1, 69.2),
    (0.5, 48.6),
    (1.0, 33.0),
    # Extrapolated tail consistent with the >1 % collapse shown in Fig. 3.
    (5.0, 12.0),
    (20.0, 4.0),
)

#: Table I plus the high-p BERRY points implied by Table II (p=5.80 % -> 63.2 %,
#: p=20.36 % -> 50.4 %).
TABLE_I_BERRY: Tuple[Tuple[float, float], ...] = (
    (0.0, 88.8),
    (0.01, 88.6),
    (0.05, 86.6),
    (0.1, 84.4),
    (0.5, 79.2),
    (1.0, 74.8),
    (5.80, 63.2),
    (20.36, 50.4),
)

#: Success-rate offsets (percentage points) of the sparse / dense environments
#: relative to the medium environment, from Fig. 5.
ENVIRONMENT_OFFSETS: Dict[ObstacleDensity, float] = {
    ObstacleDensity.SPARSE: 3.0,
    ObstacleDensity.MEDIUM: 0.0,
    ObstacleDensity.DENSE: -12.0,
}


@dataclass(frozen=True)
class CalibratedRobustnessModel:
    """Success rate as a function of bit-error rate, calibrated to Table I.

    Interpolation is linear in ``log10(p)`` between calibrated points, which
    matches the smooth sigmoidal degradation shown in Fig. 3.  Environment
    difficulty shifts the whole curve by a constant offset (Fig. 5), clipped
    to the error-free ceiling.
    """

    classical_curve: Tuple[Tuple[float, float], ...] = TABLE_I_CLASSICAL
    berry_curve: Tuple[Tuple[float, float], ...] = TABLE_I_BERRY
    density: ObstacleDensity = ObstacleDensity.MEDIUM
    #: p below this threshold is treated as error-free (one flipped bit in a
    #: 1.1 MB model is ~1e-5 %).
    negligible_ber_percent: float = 1e-6

    def __post_init__(self) -> None:
        for name, curve in (("classical", self.classical_curve), ("berry", self.berry_curve)):
            if len(curve) < 2:
                raise ConfigurationError(f"{name} curve needs at least two points")
            rates = [p for p, _ in curve]
            if sorted(rates) != list(rates):
                raise ConfigurationError(f"{name} curve must be sorted by bit-error rate")
            if any(not 0.0 <= sr <= 100.0 for _, sr in curve):
                raise ConfigurationError(f"{name} curve success rates must be percentages")
            if curve[0][0] != 0.0:
                raise ConfigurationError(f"{name} curve must include the error-free point p=0")

    # ------------------------------------------------------------------ queries
    def _curve(self, scheme: AutonomyScheme) -> Tuple[Tuple[float, float], ...]:
        return self.berry_curve if scheme == AutonomyScheme.BERRY else self.classical_curve

    def error_free_success_rate(self, scheme: AutonomyScheme) -> float:
        base = self._curve(scheme)[0][1]
        return self._apply_environment(base) / 100.0

    def success_rate(self, ber_percent: float, scheme: AutonomyScheme) -> float:
        """Task success rate (fraction) at bit-error rate ``ber_percent``."""
        if ber_percent < 0:
            raise ConfigurationError(f"ber_percent must be non-negative, got {ber_percent}")
        curve = self._curve(scheme)
        if ber_percent <= self.negligible_ber_percent:
            return self._apply_environment(curve[0][1]) / 100.0
        rates = np.array([p for p, _ in curve[1:]], dtype=np.float64)
        successes = np.array([sr for _, sr in curve[1:]], dtype=np.float64)
        log_p = np.log10(max(ber_percent, rates[0] * 1e-3))
        log_rates = np.log10(rates)
        if log_p <= log_rates[0]:
            # Blend towards the error-free value below the first calibrated point.
            fraction = max(0.0, log_p - np.log10(self.negligible_ber_percent)) / max(
                log_rates[0] - np.log10(self.negligible_ber_percent), 1e-9
            )
            value = curve[0][1] + fraction * (successes[0] - curve[0][1])
        elif log_p >= log_rates[-1]:
            slope = (successes[-1] - successes[-2]) / (log_rates[-1] - log_rates[-2])
            value = successes[-1] + slope * (log_p - log_rates[-1])
        else:
            value = float(np.interp(log_p, log_rates, successes))
        value = float(np.clip(value, 0.0, 100.0))
        return self._apply_environment(value) / 100.0

    def success_rate_drop_pct(self, ber_percent: float, scheme: AutonomyScheme) -> float:
        """Drop in success rate (percentage points) relative to error-free operation."""
        error_free = self.error_free_success_rate(scheme) * 100.0
        current = self.success_rate(ber_percent, scheme) * 100.0
        return max(0.0, error_free - current)

    def curve(
        self, ber_percentages: Sequence[float], scheme: AutonomyScheme
    ) -> list[Tuple[float, float]]:
        """(p, success rate fraction) pairs over a sweep of bit-error rates."""
        return [(float(p), self.success_rate(float(p), scheme)) for p in ber_percentages]

    # ------------------------------------------------------------------ environment effect
    def _apply_environment(self, success_percent: float) -> float:
        offset = ENVIRONMENT_OFFSETS[self.density]
        return float(np.clip(success_percent + offset, 0.0, 97.0))

    def for_density(self, density: ObstacleDensity) -> "CalibratedRobustnessModel":
        """The same calibrated curves evaluated in a different environment."""
        return CalibratedRobustnessModel(
            classical_curve=self.classical_curve,
            berry_curve=self.berry_curve,
            density=density,
            negligible_ber_percent=self.negligible_ber_percent,
        )

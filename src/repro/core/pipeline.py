"""The cyber-physical mission pipeline: voltage -> robustness -> quality-of-flight.

This is the chain Fig. 1 and Sec. III of the paper describe, assembled from
the substrate models:

    supply voltage
      ├── bit-error rate (``repro.faults.ber_model``) ──> task success rate
      │                                                   (robustness provider)
      ├── processing energy / power (quadratic scaling) ──┐
      └── TDP -> heatsink mass (``repro.hardware.thermal``)│
              └── payload -> acceleration -> safe velocity (``repro.uav.dynamics``)
                      └── flight time & flight energy (``repro.uav.flight``)
                              └── missions per charge (``repro.uav.battery``)

The *robustness provider* is any callable mapping a bit-error rate (percent)
to a task success rate (fraction): either the calibrated Table I curves
(:mod:`repro.core.calibrated`) for paper-scale numbers or a measured curve
from policies trained in this repository's environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from repro.core.calibrated import AutonomyScheme, CalibratedRobustnessModel
from repro.core.metrics import OperatingPoint
from repro.envs.obstacles import ObstacleDensity
from repro.errors import ConfigurationError
from repro.faults.ber_model import DEFAULT_BER_MODEL, VoltageBerModel
from repro.hardware.dvfs import DEFAULT_VOLTAGE_SCALING, VoltageScaling
from repro.hardware.thermal import HeatsinkModel
from repro.uav.battery import missions_per_charge
from repro.uav.flight import FlightModel
from repro.uav.platform import CRAZYFLIE, UavPlatform

SuccessRateProvider = Callable[[float], float]


@dataclass(frozen=True)
class PipelineConfig:
    """Platform/policy-specific knobs of the mission pipeline."""

    platform: UavPlatform = CRAZYFLIE
    mission_distance_m: Optional[float] = None  #: defaults to the platform's nominal distance
    compute_power_multiplier: float = 1.0       #: 1.0 for C3F2, ~1.47 for C5F4
    scaling: VoltageScaling = DEFAULT_VOLTAGE_SCALING
    ber_model: VoltageBerModel = DEFAULT_BER_MODEL
    heatsink: HeatsinkModel = field(default_factory=HeatsinkModel)
    flight_model: Optional[FlightModel] = None

    def __post_init__(self) -> None:
        if self.compute_power_multiplier <= 0:
            raise ConfigurationError(
                f"compute_power_multiplier must be positive, got {self.compute_power_multiplier}"
            )
        if self.flight_model is None:
            object.__setattr__(self, "flight_model", FlightModel(self.platform))

    @property
    def distance_m(self) -> float:
        if self.mission_distance_m is not None:
            return self.mission_distance_m
        return self.platform.mission_distance_m


class MissionPipeline:
    """Evaluates full operating points for one platform/policy combination."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        robustness: Optional[CalibratedRobustnessModel] = None,
    ) -> None:
        self.config = config
        self.robustness = robustness if robustness is not None else CalibratedRobustnessModel()

    # ------------------------------------------------------------------ providers
    def provider_for_scheme(self, scheme: AutonomyScheme) -> SuccessRateProvider:
        """A success-rate provider backed by the calibrated Table I curves."""
        return lambda ber_percent: self.robustness.success_rate(ber_percent, scheme)

    # ------------------------------------------------------------------ component models
    def compute_power_w(self, normalized_voltage: float) -> float:
        """Onboard processing power at ``V/Vmin`` (quadratic voltage scaling)."""
        volts = self.config.scaling.to_volts(normalized_voltage)
        nominal = self.config.platform.compute_power_nominal_w * self.config.compute_power_multiplier
        return nominal * self.config.scaling.energy_scale(volts)

    @property
    def nominal_normalized_voltage(self) -> float:
        """The 1 V nominal supply expressed in Vmin units."""
        return self.config.scaling.nominal_normalized

    # ------------------------------------------------------------------ operating points
    def evaluate(
        self,
        normalized_voltage: float,
        success_provider: SuccessRateProvider,
        error_free_success_rate: Optional[float] = None,
        ber_percent: Optional[float] = None,
    ) -> OperatingPoint:
        """Evaluate one operating point (without baseline-relative improvements).

        ``ber_percent`` overrides the BER curve (used for profiled chips);
        ``error_free_success_rate`` anchors the detour model — it defaults to
        the provider's value at p = 0.
        """
        if normalized_voltage <= 0:
            raise ConfigurationError(f"normalized voltage must be positive, got {normalized_voltage}")
        config = self.config
        volts = config.scaling.to_volts(normalized_voltage)
        if ber_percent is None:
            ber_percent = config.ber_model.ber_percent(normalized_voltage)
        success_rate = float(success_provider(ber_percent))
        if not 0.0 <= success_rate <= 1.0:
            raise ConfigurationError(
                f"success provider returned {success_rate}, expected a fraction in [0, 1]"
            )
        if error_free_success_rate is None:
            error_free_success_rate = float(success_provider(0.0))
        success_drop_pct = max(0.0, 100.0 * (error_free_success_rate - success_rate))

        heatsink_g = config.heatsink.mass_at_volts_g(volts)
        compute_power = self.compute_power_w(normalized_voltage)
        assert config.flight_model is not None
        flight = config.flight_model.fly_mission(
            payload_g=heatsink_g,
            compute_power_w=compute_power,
            nominal_distance_m=config.distance_m,
            success_rate_drop_pct=success_drop_pct,
        )
        missions = missions_per_charge(
            success_rate, config.platform.battery_capacity_j, flight.flight_energy_j
        )
        return OperatingPoint(
            normalized_voltage=normalized_voltage,
            volts=volts,
            ber_percent=ber_percent,
            processing_energy_savings=config.scaling.energy_savings(volts),
            success_rate=success_rate,
            heatsink_mass_g=heatsink_g,
            acceleration_m_s2=flight.acceleration_m_s2,
            max_velocity_m_s=flight.max_velocity_m_s,
            compute_power_w=compute_power,
            rotor_power_w=flight.rotor_power_w,
            flight_distance_m=flight.flight_distance_m,
            flight_time_s=flight.flight_time_s,
            flight_energy_j=flight.flight_energy_j,
            num_missions=missions,
        )

    def nominal_operating_point(self, success_provider: SuccessRateProvider) -> OperatingPoint:
        """The 1 V error-free baseline every improvement is measured against."""
        return self.evaluate(
            self.nominal_normalized_voltage,
            success_provider,
            ber_percent=0.0,
        )

    def voltage_sweep(
        self,
        normalized_voltages: Sequence[float],
        success_provider: Optional[SuccessRateProvider] = None,
        scheme: AutonomyScheme = AutonomyScheme.BERRY,
        include_nominal: bool = True,
    ) -> List[OperatingPoint]:
        """Evaluate a sweep of voltages with baseline-relative improvements (Table II)."""
        provider = success_provider or self.provider_for_scheme(scheme)
        baseline = self.nominal_operating_point(provider)
        points: List[OperatingPoint] = []
        if include_nominal:
            points.append(baseline)
        for voltage in normalized_voltages:
            point = self.evaluate(float(voltage), provider)
            points.append(point.with_baseline(baseline))
        return points

    def best_operating_point(
        self,
        normalized_voltages: Sequence[float],
        success_provider: Optional[SuccessRateProvider] = None,
        scheme: AutonomyScheme = AutonomyScheme.BERRY,
        max_success_drop_pct: float = 1.0,
    ) -> OperatingPoint:
        """The lowest-flight-energy point whose success rate stays within the drop budget.

        The paper's headline operating point (0.77 Vmin for the Crazyflie /
        medium environment) is chosen this way: "with a drop in success rate
        of <1 %", pick the voltage minimising single-mission flight energy.
        """
        provider = success_provider or self.provider_for_scheme(scheme)
        baseline = self.nominal_operating_point(provider)
        ceiling = baseline.success_rate - max_success_drop_pct / 100.0
        candidates = [
            self.evaluate(float(v), provider).with_baseline(baseline)
            for v in normalized_voltages
        ]
        eligible = [point for point in candidates if point.success_rate >= ceiling]
        if not eligible:
            raise ConfigurationError(
                "no operating point satisfies the success-rate drop budget of "
                f"{max_success_drop_pct} percentage points"
            )
        return min(eligible, key=lambda point: point.flight_energy_j)

    # ------------------------------------------------------------------ variants
    def for_platform(
        self, platform: UavPlatform, compute_power_multiplier: Optional[float] = None
    ) -> "MissionPipeline":
        """The same pipeline targeting a different UAV platform (Fig. 7)."""
        multiplier = (
            compute_power_multiplier
            if compute_power_multiplier is not None
            else self.config.compute_power_multiplier
        )
        config = replace(
            self.config,
            platform=platform,
            flight_model=FlightModel(platform),
            compute_power_multiplier=multiplier,
            mission_distance_m=None,
        )
        return MissionPipeline(config, robustness=self.robustness)

    def for_density(self, density) -> "MissionPipeline":
        """The same pipeline in a different obstacle-density environment (Fig. 5).

        Besides shifting the robustness curves, the environments differ in
        nominal mission length: the sparse outdoor world has a shorter
        start-to-goal path than the dense indoor one (the paper's 38 J / 53 J /
        77 J single-mission energies at 1 V), captured by a per-density factor
        on the platform's nominal mission distance.
        """
        factors = {
            ObstacleDensity.SPARSE: 0.55,
            ObstacleDensity.MEDIUM: 1.0,
            ObstacleDensity.DENSE: 1.75,
        }
        config = replace(
            self.config,
            mission_distance_m=self.config.platform.mission_distance_m * factors[density],
        )
        return MissionPipeline(config, robustness=self.robustness.for_density(density))

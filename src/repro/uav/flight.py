"""Flight time, rotor power and flight energy for a single navigation mission.

Table II of the paper decomposes a mission as follows: the UAV flies a path of
roughly the nominal start-to-goal distance (longer when bit errors cause
detours), at an average velocity proportional to the maximum safe velocity,
plus a fixed per-mission overhead (takeoff, landing, goal confirmation).
Roughly 95 % of the energy is consumed by the rotors, whose power follows the
induced-power law P ∝ m^1.5; the rest is the onboard processor.

The calibration constants (velocity efficiency 0.756, 2.72 s overhead, detour
polynomial) reproduce the flight-time and flight-distance columns of the
paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.uav.dynamics import UavDynamics
from repro.uav.platform import ArrayLike, UavPlatform, _scalar_or_array


def detour_factor(success_rate_drop_pct: ArrayLike) -> Union[float, np.ndarray]:
    """Path-length inflation caused by corrupted (sub-optimal) flight actions.

    ``success_rate_drop_pct`` is the drop in task success rate, in percentage
    points, relative to the error-free policy; the quadratic fit reproduces
    the flight-distance column of Table II (e.g. a 38-point drop gives a
    ~1.65x longer path).  Accepts arrays elementwise.
    """
    drop = np.maximum(np.asarray(success_rate_drop_pct, dtype=np.float64), 0.0)
    return _scalar_or_array(1.0 + 0.0235 * drop - 1.7e-4 * drop**2)


@dataclass(frozen=True)
class FlightOutcome:
    """Quality-of-flight metrics for a single mission at one operating point."""

    payload_g: float
    acceleration_m_s2: float
    max_velocity_m_s: float
    average_velocity_m_s: float
    flight_distance_m: float
    flight_time_s: float
    rotor_power_w: float
    compute_power_w: float
    flight_energy_j: float

    @property
    def total_power_w(self) -> float:
        return self.rotor_power_w + self.compute_power_w

    @property
    def compute_power_fraction(self) -> float:
        return self.compute_power_w / self.total_power_w


@dataclass(frozen=True)
class FlightOutcomeBatch:
    """Quality-of-flight metrics for a batch of missions, as stacked arrays.

    Produced by :meth:`FlightModel.fly_missions`: every field is a float64
    array of the common broadcast shape, so B mission states (e.g. the
    measured per-episode path lengths of a batched rollout) advance through
    the kinematics/energy chain in one call.
    """

    payload_g: np.ndarray
    acceleration_m_s2: np.ndarray
    max_velocity_m_s: np.ndarray
    average_velocity_m_s: np.ndarray
    flight_distance_m: np.ndarray
    flight_time_s: np.ndarray
    rotor_power_w: np.ndarray
    compute_power_w: np.ndarray
    flight_energy_j: np.ndarray

    def __len__(self) -> int:
        return int(self.flight_energy_j.size)

    @property
    def total_power_w(self) -> np.ndarray:
        return self.rotor_power_w + self.compute_power_w

    def outcome(self, index: int) -> FlightOutcome:
        """Mission ``index`` (row-major over the broadcast shape) as a scalar
        :class:`FlightOutcome`."""
        return FlightOutcome(
            payload_g=float(self.payload_g.flat[index]),
            acceleration_m_s2=float(self.acceleration_m_s2.flat[index]),
            max_velocity_m_s=float(self.max_velocity_m_s.flat[index]),
            average_velocity_m_s=float(self.average_velocity_m_s.flat[index]),
            flight_distance_m=float(self.flight_distance_m.flat[index]),
            flight_time_s=float(self.flight_time_s.flat[index]),
            rotor_power_w=float(self.rotor_power_w.flat[index]),
            compute_power_w=float(self.compute_power_w.flat[index]),
            flight_energy_j=float(self.flight_energy_j.flat[index]),
        )


@dataclass(frozen=True)
class FlightModel:
    """Mission-level flight model for one UAV platform.

    ``velocity_efficiency`` is the ratio of average to maximum safe velocity
    over a cluttered mission (acceleration, turns, yawing at waypoints);
    ``mission_overhead_s`` is the fixed per-mission time not spent translating
    (takeoff, goal confirmation, landing).
    """

    platform: UavPlatform
    dynamics: Optional[UavDynamics] = None
    velocity_efficiency: float = 0.756
    mission_overhead_s: float = 2.72

    def __post_init__(self) -> None:
        if not 0.0 < self.velocity_efficiency <= 1.0:
            raise ConfigurationError(
                f"velocity_efficiency must be in (0, 1], got {self.velocity_efficiency}"
            )
        if self.mission_overhead_s < 0:
            raise ConfigurationError(
                f"mission_overhead_s must be non-negative, got {self.mission_overhead_s}"
            )
        if self.dynamics is None:
            object.__setattr__(self, "dynamics", UavDynamics(self.platform))

    # ------------------------------------------------------------------ mission model
    def fly_mission(
        self,
        payload_g: float,
        compute_power_w: float,
        nominal_distance_m: Optional[float] = None,
        success_rate_drop_pct: float = 0.0,
    ) -> FlightOutcome:
        """Simulate one mission and return its quality-of-flight metrics.

        ``success_rate_drop_pct`` models the path detours caused by corrupted
        policy actions (Sec. III, "Flight time"): the flown distance is the
        nominal distance inflated by :func:`detour_factor`.
        """
        return self.fly_missions(
            payload_g, compute_power_w, nominal_distance_m, success_rate_drop_pct
        ).outcome(0)

    def fly_missions(
        self,
        payload_g: ArrayLike,
        compute_power_w: ArrayLike,
        nominal_distance_m: Optional[ArrayLike] = None,
        success_rate_drop_pct: ArrayLike = 0.0,
    ) -> FlightOutcomeBatch:
        """Simulate a batch of missions in one vectorized call.

        All four inputs broadcast against each other (any may be a scalar or
        an array), so one call advances B mission states — e.g. the measured
        per-episode path lengths from a batched rollout, or a whole payload x
        voltage operating grid — through the payload -> acceleration ->
        velocity -> time -> energy chain at once.
        """
        compute_power = np.asarray(compute_power_w, dtype=np.float64)
        if np.any(compute_power < 0):
            raise ConfigurationError(f"compute power must be non-negative, got {compute_power_w}")
        if nominal_distance_m is None:
            distance = np.asarray(self.platform.mission_distance_m, dtype=np.float64)
        else:
            distance = np.asarray(nominal_distance_m, dtype=np.float64)
        if np.any(distance <= 0):
            raise ConfigurationError(f"mission distance must be positive, got {nominal_distance_m}")
        assert self.dynamics is not None
        payload = np.asarray(payload_g, dtype=np.float64)
        acceleration = np.asarray(self.dynamics.acceleration_m_s2(payload))
        max_velocity = np.asarray(self.dynamics.max_safe_velocity_m_s(payload))
        average_velocity = self.velocity_efficiency * max_velocity
        flown_distance = distance * np.asarray(detour_factor(success_rate_drop_pct))
        flight_time = self.mission_overhead_s + flown_distance / average_velocity
        rotor_power = np.asarray(self.platform.rotor_power_w(payload))
        flight_energy = (rotor_power + compute_power) * flight_time
        # Always at least 1-D, so len()/outcome(i) work for all-scalar inputs.
        shape = np.broadcast_shapes(
            (1,), payload.shape, compute_power.shape, flown_distance.shape, flight_time.shape
        )
        expand = lambda values: np.broadcast_to(np.asarray(values, dtype=np.float64), shape).copy()
        return FlightOutcomeBatch(
            payload_g=expand(payload),
            acceleration_m_s2=expand(acceleration),
            max_velocity_m_s=expand(max_velocity),
            average_velocity_m_s=expand(average_velocity),
            flight_distance_m=expand(flown_distance),
            flight_time_s=expand(flight_time),
            rotor_power_w=expand(rotor_power),
            compute_power_w=expand(compute_power),
            flight_energy_j=expand(flight_energy),
        )

    def max_flight_time_s(self, payload_g: float, compute_power_w: float) -> float:
        """Endurance on a full battery at constant cruise power."""
        power = self.platform.rotor_power_w(payload_g) + compute_power_w
        return self.platform.battery_capacity_j / power

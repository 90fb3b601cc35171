"""UAV platform specifications.

The paper evaluates two vehicles:

* **Bitcraze Crazyflie 2.1** — 27 g takeoff weight, 15 g maximum payload,
  250 mAh battery, ~7 min maximum flight time.  Rotor power is ~93.5 % of the
  total power with the C3F2 policy at nominal voltage.
* **DJI (Ryze) Tello** — 80 g takeoff weight, 1100 mAh battery, ~13 min
  maximum flight time.  Rotor power is ~97.2 % (C3F2) / 95.9 % (C5F4) of the
  total, which is why the same processing-energy saving translates into a
  smaller (but still positive) flight-energy saving than on the Crazyflie.

Thrust and rotor-power coefficients are calibrated from the payload/
acceleration/velocity/energy points printed in Fig. 1, Fig. 6 and Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.errors import ConfigurationError

#: Scalar-or-array input accepted by the vectorized platform relations.
ArrayLike = Union[float, int, np.ndarray]


def _scalar_or_array(values: np.ndarray) -> Union[float, np.ndarray]:
    """Return a python float for 0-d results, the array otherwise.

    Keeps the scalar API of the platform/dynamics relations unchanged while
    letting B lockstep lane states advance through one array call.
    """
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class UavPlatform:
    """Physical constants of one UAV airframe."""

    name: str
    base_mass_g: float          #: takeoff mass without the processor heatsink payload
    max_payload_g: float        #: maximum additional payload the vehicle can lift
    max_thrust_n: float         #: total thrust available for acceleration
    battery_capacity_j: float   #: usable battery energy per charge
    rotor_profile_power_w: float         #: mass-independent (profile/ESC) rotor power
    rotor_induced_coeff_w_per_kg15: float  #: induced-power coefficient: P_ind = k * m^1.5
    compute_power_nominal_w: float       #: processing power of the C3F2 policy at 1 V
    max_flight_time_min: float
    mission_distance_m: float   #: nominal start-to-goal path length for the navigation task

    def __post_init__(self) -> None:
        positive_fields = (
            self.base_mass_g,
            self.max_payload_g,
            self.max_thrust_n,
            self.battery_capacity_j,
            self.rotor_induced_coeff_w_per_kg15,
            self.compute_power_nominal_w,
            self.max_flight_time_min,
            self.mission_distance_m,
        )
        if any(value <= 0 for value in positive_fields):
            raise ConfigurationError(f"all platform constants must be positive: {self}")
        if self.rotor_profile_power_w < 0:
            raise ConfigurationError("rotor_profile_power_w must be non-negative")

    # ------------------------------------------------------------------ derived quantities
    # Every relation below is vectorized: scalars give scalars (the original
    # API), arrays broadcast elementwise so B lockstep mission states advance
    # in one call.
    def total_mass_kg(self, payload_g: ArrayLike) -> Union[float, np.ndarray]:
        """Takeoff mass including ``payload_g`` of extra payload (heatsink etc.)."""
        payload = np.asarray(payload_g, dtype=np.float64)
        if np.any(payload < 0):
            raise ConfigurationError(f"payload must be non-negative, got {payload_g}")
        if np.any(payload > self.max_payload_g):
            raise ConfigurationError(
                f"payload {float(np.max(payload)):.2f} g exceeds the {self.name} maximum of "
                f"{self.max_payload_g:.2f} g"
            )
        return _scalar_or_array((self.base_mass_g + payload) * 1e-3)

    def rotor_power_w(self, payload_g: ArrayLike) -> Union[float, np.ndarray]:
        """Cruise rotor power at a given payload.

        The model splits rotor power into a mass-independent profile/ESC term
        and an induced-power term scaling with m^1.5; the split is calibrated
        from the flight-power figures the paper reports at different heatsink
        payloads.
        """
        mass_kg = np.asarray(self.total_mass_kg(payload_g))
        return _scalar_or_array(
            self.rotor_profile_power_w + self.rotor_induced_coeff_w_per_kg15 * mass_kg**1.5
        )

    def compute_power_fraction(
        self, payload_g: ArrayLike, compute_power_w: ArrayLike
    ) -> Union[float, np.ndarray]:
        """Fraction of total power spent on processing (the paper's 6.5 % / 2.8 % numbers)."""
        compute = np.asarray(compute_power_w, dtype=np.float64)
        total = np.asarray(self.rotor_power_w(payload_g)) + compute
        return _scalar_or_array(compute / total)


#: Bitcraze Crazyflie 2.1 nano UAV (Sec. V-A).  The 250 mAh / 3.7 V battery
#: stores 3330 J; the rotor-power constants reproduce the ~7.8 W total /
#: 6.5 % compute share and the flight-power change across payloads of Table II.
CRAZYFLIE = UavPlatform(
    name="crazyflie",
    base_mass_g=27.0,
    max_payload_g=15.0,
    max_thrust_n=0.49,
    battery_capacity_j=3330.0,
    rotor_profile_power_w=4.49,
    rotor_induced_coeff_w_per_kg15=513.0,
    compute_power_nominal_w=0.507,
    max_flight_time_min=7.0,
    mission_distance_m=14.89,
)

#: DJI / Ryze Tello micro UAV (Sec. V-D).  1100 mAh / 3.8 V battery ≈ 15.0 kJ;
#: larger airframe, so rotor power dominates (97.2 % with C3F2).
DJI_TELLO = UavPlatform(
    name="dji-tello",
    base_mass_g=80.0,
    max_payload_g=30.0,
    max_thrust_n=1.96,
    battery_capacity_j=15048.0,
    rotor_profile_power_w=0.0,
    rotor_induced_coeff_w_per_kg15=726.0,
    compute_power_nominal_w=0.507,
    max_flight_time_min=13.0,
    mission_distance_m=75.0,
)

_PLATFORMS: Dict[str, UavPlatform] = {
    "crazyflie": CRAZYFLIE,
    "tello": DJI_TELLO,
    "dji-tello": DJI_TELLO,
}


def get_platform(name: str) -> UavPlatform:
    """Look up a UAV platform by name (``"crazyflie"`` or ``"tello"``)."""
    key = name.lower()
    if key not in _PLATFORMS:
        raise ConfigurationError(
            f"unknown platform {name!r}; expected one of {sorted(set(_PLATFORMS))}"
        )
    return _PLATFORMS[key]

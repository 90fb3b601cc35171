"""UAV cyber-physical models: platforms, dynamics, flight energy, battery.

The system-level results of the paper come from the coupling between the
onboard processor and the vehicle physics: processor voltage determines TDP
and heatsink mass (payload), payload determines acceleration, acceleration
determines the maximum safe flight velocity, and velocity determines flight
time, flight energy and ultimately the number of missions per battery charge.

* :mod:`repro.uav.platform` — Crazyflie 2.1 and DJI Tello specifications
* :mod:`repro.uav.dynamics` — payload -> acceleration -> safe velocity
* :mod:`repro.uav.flight`   — flight time, rotor power, flight energy, detours
* :mod:`repro.uav.battery`  — missions per battery charge
"""

from repro.uav.platform import UavPlatform, CRAZYFLIE, DJI_TELLO, get_platform
from repro.uav.dynamics import UavDynamics
from repro.uav.flight import FlightModel, FlightOutcome, FlightOutcomeBatch, detour_factor
from repro.uav.battery import missions_per_charge

__all__ = [
    "UavPlatform",
    "CRAZYFLIE",
    "DJI_TELLO",
    "get_platform",
    "UavDynamics",
    "FlightModel",
    "FlightOutcome",
    "FlightOutcomeBatch",
    "detour_factor",
    "missions_per_charge",
]

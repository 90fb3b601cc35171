"""Battery model: missions per charge.

The paper's "number of missions" metric counts how many missions the UAV can
*successfully* complete on a single battery charge:

    N = SR × E_battery / E_flight

where ``SR`` is the task success rate, ``E_battery`` the usable battery energy
and ``E_flight`` the single-mission flight energy.  The Crazyflie's 3330 J
battery and 53.19 J missions give the paper's 55.35 missions at 1 V.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.uav.platform import ArrayLike, _scalar_or_array


def missions_per_charge(
    success_rate: ArrayLike, battery_capacity_j: ArrayLike, flight_energy_j: ArrayLike
) -> Union[float, np.ndarray]:
    """Expected number of successful missions per battery charge.

    Vectorized: any argument may be an array (e.g. the per-mission energies
    of a :class:`~repro.uav.flight.FlightOutcomeBatch`), broadcasting
    elementwise.
    """
    success = np.asarray(success_rate, dtype=np.float64)
    capacity = np.asarray(battery_capacity_j, dtype=np.float64)
    energy = np.asarray(flight_energy_j, dtype=np.float64)
    if np.any((success < 0.0) | (success > 1.0)):
        raise ConfigurationError(f"success_rate must be in [0, 1], got {success_rate}")
    if np.any(capacity <= 0):
        raise ConfigurationError(f"battery capacity must be positive, got {battery_capacity_j}")
    if np.any(energy <= 0):
        raise ConfigurationError(f"flight energy must be positive, got {flight_energy_j}")
    return _scalar_or_array(success * capacity / energy)

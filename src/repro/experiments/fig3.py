"""Fig. 3 — flight success rate and flight energy vs bit-error rate.

The figure compares the classical DQN policy against BERRY over a sweep of
bit-error rates (equivalently, supply voltages), showing that robustness to
higher error rates is what unlocks the flight-energy savings.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.calibrated import AutonomyScheme
from repro.core.pipeline import MissionPipeline, SuccessRateProvider
from repro.faults.ber_model import DEFAULT_BER_MODEL
from repro.utils.tables import Table

#: Bit-error rates (percent) swept on the Fig. 3 x-axis.
FIG3_BER_SWEEP: tuple[float, ...] = (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0)


def generate_fig3_robustness_vs_ber(
    ber_percentages: Sequence[float] = FIG3_BER_SWEEP,
    pipeline: Optional[MissionPipeline] = None,
    classical_provider: Optional[SuccessRateProvider] = None,
    berry_provider: Optional[SuccessRateProvider] = None,
) -> Table:
    """Regenerate the Fig. 3 series: success rate and flight energy vs BER.

    Custom ``*_provider`` callables (bit-error rate percent -> success-rate
    fraction) plug in measured robustness curves from trained policies; by
    default the Table-I-calibrated curves are used.
    """
    pipeline = pipeline if pipeline is not None else MissionPipeline()
    classical = classical_provider or pipeline.provider_for_scheme(AutonomyScheme.CLASSICAL)
    berry = berry_provider or pipeline.provider_for_scheme(AutonomyScheme.BERRY)
    table = Table(
        title="Fig. 3: success rate and flight energy vs bit-error rate (Classical vs BERRY)",
        columns=[
            "ber_percent",
            "voltage_vmin",
            "classical_success_pct",
            "berry_success_pct",
            "classical_flight_energy_j",
            "berry_flight_energy_j",
        ],
    )
    for ber in ber_percentages:
        ber = float(ber)
        voltage = DEFAULT_BER_MODEL.voltage_for_ber(ber)
        classical_point = pipeline.evaluate(voltage, classical, ber_percent=ber)
        berry_point = pipeline.evaluate(voltage, berry, ber_percent=ber)
        table.add_row(
            ber_percent=ber,
            voltage_vmin=voltage,
            classical_success_pct=classical_point.success_rate_percent,
            berry_success_pct=berry_point.success_rate_percent,
            classical_flight_energy_j=classical_point.flight_energy_j,
            berry_flight_energy_j=berry_point.flight_energy_j,
        )
    return table

"""Table II — operating and system efficiency across a supply-voltage sweep.

For each operating voltage the table reports: bit-error rate, processing
energy savings, task success rate, flight distance/time/energy (with savings
vs 1 V) and the number of missions per charge (with improvement vs 1 V).

Each row is one independent ``table2.point`` job (the nominal 1 V baseline is
the ``voltage = null`` job), so the runtime engine can compute the rows in
parallel and cache them individually.  Each job evaluates the default
:class:`~repro.core.pipeline.MissionPipeline` under its scheme's success
provider, so its spec is all it needs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.calibrated import AutonomyScheme
from repro.core.pipeline import MissionPipeline
from repro.runtime.engine import run_sweep
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.tables import Table

#: The normalized voltages (V/Vmin) of Table II's rows, highest to lowest.
TABLE_II_VOLTAGES: Tuple[float, ...] = (
    0.86,
    0.84,
    0.83,
    0.81,
    0.80,
    0.79,
    0.77,
    0.76,
    0.74,
    0.73,
    0.71,
    0.68,
    0.64,
)


def table2_sweep_spec(
    normalized_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    scheme: AutonomyScheme = AutonomyScheme.BERRY,
    include_nominal: bool = True,
) -> SweepSpec:
    """One job per Table II row; ``voltage = None`` encodes the 1 V baseline."""
    voltages: list = [None] if include_nominal else []
    voltages.extend(float(v) for v in normalized_voltages)
    jobs = [
        JobSpec(kind="table2.point", params={"voltage": voltage, "scheme": scheme.value})
        for voltage in voltages
    ]
    return SweepSpec(
        name="table2",
        description="Table II operating and system efficiency vs supply voltage",
        jobs=tuple(jobs),
    )


@job_kind("table2.point")
def _run_table2_point(spec: JobSpec) -> Dict[str, Any]:
    """Evaluate one Table II operating point with baseline-relative deltas."""
    params = spec.params
    pipeline = MissionPipeline()
    provider = pipeline.provider_for_scheme(AutonomyScheme(str(params["scheme"])))
    baseline = pipeline.nominal_operating_point(provider)
    voltage = params["voltage"]
    if voltage is None:
        point = baseline
    else:
        point = pipeline.evaluate(float(voltage), provider).with_baseline(baseline)
    return point.as_table_row()


def assemble_table2(sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]) -> Table:
    table = Table(
        title="Table II: operating and system efficiency vs supply voltage (BERRY)",
        columns=[
            "voltage_vmin",
            "ber_percent",
            "energy_savings_x",
            "success_rate_pct",
            "flight_distance_m",
            "flight_time_s",
            "flight_energy_j",
            "flight_energy_change_pct",
            "num_missions",
            "missions_change_pct",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


def generate_table2_system_efficiency(
    normalized_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    scheme: AutonomyScheme = AutonomyScheme.BERRY,
) -> Table:
    """Regenerate Table II for the Crazyflie + C3F2 configuration (by default)."""
    sweep = table2_sweep_spec(normalized_voltages=normalized_voltages, scheme=scheme)
    return assemble_table2(sweep, run_sweep(sweep))

"""Fig. 7 — effectiveness across UAV platforms (Crazyflie, DJI Tello) and
policy architectures (C3F2, C5F4).

The figure's table reports, for each (UAV, policy) pair, the rotor/compute
power split and the flight-energy reduction and missions increase BERRY
achieves at its best low-voltage operating point; the figure's curves sweep
the Tello's success rate, flight energy and missions across voltages.

Both halves are expressed as runtime sweeps: one ``fig7.config_row`` job per
(UAV, policy) configuration and one ``fig7.sweep_point`` job per voltage of
the Tello curve.  A job carries only its platform's name, which the runner
looks up, so a configuration can only use a registered
:class:`~repro.uav.platform.UavPlatform`: :func:`fig7_config_sweep_spec`
rejects a platform that differs from the registered one of the same name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.calibrated import AutonomyScheme
from repro.core.pipeline import MissionPipeline
from repro.errors import ConfigurationError
from repro.experiments.table2 import TABLE_II_VOLTAGES
from repro.runtime.engine import run_sweep
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.uav.platform import CRAZYFLIE, DJI_TELLO, UavPlatform, get_platform
from repro.utils.tables import Table

#: (platform, policy name, compute-power multiplier vs C3F2) rows of Fig. 7's table.
FIG7_CONFIGURATIONS: Tuple[Tuple[UavPlatform, str, float], ...] = (
    (CRAZYFLIE, "C3F2", 1.0),
    (DJI_TELLO, "C3F2", 1.0),
    (DJI_TELLO, "C5F4", 1.47),
)

#: Normalized voltages of the Fig. 7 Tello sweep curves.
FIG7_TELLO_VOLTAGES: Tuple[float, ...] = (0.76, 0.77, 0.79, 0.80, 0.82, 0.84, 0.86)


# ---------------------------------------------------------------------- table half
def fig7_config_sweep_spec(
    configurations: Sequence[Tuple[UavPlatform, str, float]] = FIG7_CONFIGURATIONS,
    candidate_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> SweepSpec:
    """The Fig. 7 table grid — one job per (UAV, policy) configuration."""
    for platform, _, _ in configurations:
        if get_platform(platform.name) != platform:
            raise ConfigurationError(
                f"platform {platform.name!r} differs from the registered platform "
                "of that name; Fig. 7 jobs carry only the platform name, so they "
                "can evaluate registered platforms only"
            )
    jobs = [
        JobSpec(
            kind="fig7.config_row",
            params={
                "platform": platform.name,
                "policy": policy_name,
                "compute_power_multiplier": float(multiplier),
                "candidate_voltages": [float(v) for v in candidate_voltages],
                "max_success_drop_pct": float(max_success_drop_pct),
            },
        )
        for platform, policy_name, multiplier in configurations
    ]
    return SweepSpec(
        name="fig7-configs",
        description="Fig. 7 effectiveness across UAV platforms and policy architectures",
        jobs=tuple(jobs),
    )


@job_kind("fig7.config_row")
def _run_fig7_config_row(spec: JobSpec) -> Dict[str, Any]:
    params = spec.params
    platform = get_platform(str(params["platform"]))
    variant = MissionPipeline().for_platform(
        platform, compute_power_multiplier=float(params["compute_power_multiplier"])
    )
    nominal = variant.nominal_operating_point(variant.provider_for_scheme(AutonomyScheme.BERRY))
    best = variant.best_operating_point(
        [float(v) for v in params["candidate_voltages"]],
        scheme=AutonomyScheme.BERRY,
        max_success_drop_pct=float(params["max_success_drop_pct"]),
    )
    return {
        "uav": platform.name,
        "policy": params["policy"],
        "rotor_power_pct": 100.0 * (1.0 - nominal.compute_power_fraction),
        "compute_power_pct": 100.0 * nominal.compute_power_fraction,
        "best_voltage_vmin": best.normalized_voltage,
        "energy_savings_x": best.processing_energy_savings,
        "flight_energy_reduction_pct": -float(best.flight_energy_change_pct or 0.0),
        "missions_increase_pct": float(best.missions_change_pct or 0.0),
    }


def assemble_fig7_configs(
    sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]
) -> Table:
    table = Table(
        title="Fig. 7: effectiveness across UAV platforms and policy architectures",
        columns=[
            "uav",
            "policy",
            "rotor_power_pct",
            "compute_power_pct",
            "best_voltage_vmin",
            "energy_savings_x",
            "flight_energy_reduction_pct",
            "missions_increase_pct",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


def generate_fig7_platforms_models(
    configurations: Sequence[Tuple[UavPlatform, str, float]] = FIG7_CONFIGURATIONS,
    candidate_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> Table:
    """Regenerate the Fig. 7 platform/model comparison table."""
    sweep = fig7_config_sweep_spec(
        configurations=configurations,
        candidate_voltages=candidate_voltages,
        max_success_drop_pct=max_success_drop_pct,
    )
    return assemble_fig7_configs(sweep, run_sweep(sweep))


# ---------------------------------------------------------------------- curves half
def fig7_tello_sweep_spec(
    normalized_voltages: Sequence[float] = FIG7_TELLO_VOLTAGES,
) -> SweepSpec:
    """The Fig. 7 Tello voltage-sweep curves — one job per voltage point."""
    jobs = [
        JobSpec(kind="fig7.sweep_point", params={"voltage": float(voltage)})
        for voltage in normalized_voltages
    ]
    return SweepSpec(
        name="fig7-tello-sweep",
        description="Fig. 7 DJI Tello success/energy/missions voltage sweep",
        jobs=tuple(jobs),
    )


@job_kind("fig7.sweep_point")
def _run_fig7_sweep_point(spec: JobSpec) -> Dict[str, Any]:
    tello = MissionPipeline().for_platform(DJI_TELLO)
    classical = tello.provider_for_scheme(AutonomyScheme.CLASSICAL)
    berry = tello.provider_for_scheme(AutonomyScheme.BERRY)
    voltage = float(spec.params["voltage"])
    classical_point = tello.evaluate(voltage, classical)
    berry_point = tello.evaluate(voltage, berry)
    return {
        "voltage_vmin": voltage,
        "classical_success_pct": classical_point.success_rate_percent,
        "berry_success_pct": berry_point.success_rate_percent,
        "berry_flight_energy_j": berry_point.flight_energy_j,
        "berry_num_missions": berry_point.num_missions,
    }


def assemble_fig7_tello_sweep(
    sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]
) -> Table:
    table = Table(
        title="Fig. 7 (curves): DJI Tello success rate, flight energy and missions vs voltage",
        columns=[
            "voltage_vmin",
            "classical_success_pct",
            "berry_success_pct",
            "berry_flight_energy_j",
            "berry_num_missions",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


def generate_fig7_tello_voltage_sweep(
    normalized_voltages: Sequence[float] = FIG7_TELLO_VOLTAGES,
) -> Table:
    """Regenerate the Fig. 7 voltage-sweep curves for the DJI Tello (C3F2)."""
    sweep = fig7_tello_sweep_spec(normalized_voltages=normalized_voltages)
    return assemble_fig7_tello_sweep(sweep, run_sweep(sweep))

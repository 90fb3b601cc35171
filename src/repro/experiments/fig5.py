"""Fig. 5 — effectiveness across sparse / medium / dense obstacle environments.

For each environment the figure reports: success rate at p = 0.01 % and 0.1 %
for the classical and BERRY policies, the single-mission flight energy and the
number of missions at the environment's best (lowest-safe) operating voltage,
and the processing-energy savings that voltage provides.

The figure's grid (environments x autonomy schemes) is expressed as a
:class:`~repro.runtime.jobs.SweepSpec` of independent ``fig5.row`` jobs and
submitted through the runtime engine, so the CLI can run it sharded/parallel
and cache each cell; :func:`generate_fig5_environments` runs the same jobs
serially and assembles the same table.  Each job evaluates the default
:class:`~repro.core.pipeline.MissionPipeline`, so its spec is all it needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.calibrated import AutonomyScheme
from repro.core.pipeline import MissionPipeline
from repro.envs.obstacles import ObstacleDensity
from repro.experiments.table2 import TABLE_II_VOLTAGES
from repro.runtime.engine import run_sweep
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.tables import Table

#: Bit-error rates (percent) highlighted in the Fig. 5 bar groups.
FIG5_BER_LEVELS: Tuple[float, ...] = (0.01, 0.1)

FIG5_DENSITIES: Tuple[ObstacleDensity, ...] = (
    ObstacleDensity.SPARSE,
    ObstacleDensity.MEDIUM,
    ObstacleDensity.DENSE,
)


def fig5_sweep_spec(
    densities: Sequence[ObstacleDensity] = FIG5_DENSITIES,
    ber_levels: Sequence[float] = FIG5_BER_LEVELS,
    candidate_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> SweepSpec:
    """The Fig. 5 grid — one job per (environment, autonomy scheme) cell."""
    jobs = [
        JobSpec(
            kind="fig5.row",
            params={
                "density": density.value,
                "scheme": scheme.value,
                "ber_levels": [float(ber) for ber in ber_levels],
                "candidate_voltages": [float(v) for v in candidate_voltages],
                "max_success_drop_pct": float(max_success_drop_pct),
            },
        )
        for density in densities
        for scheme in (AutonomyScheme.CLASSICAL, AutonomyScheme.BERRY)
    ]
    return SweepSpec(
        name="fig5",
        description="Fig. 5 robustness and mission efficiency across obstacle densities",
        jobs=tuple(jobs),
    )


@job_kind("fig5.row")
def _run_fig5_row(spec: JobSpec) -> Dict[str, Any]:
    """Compute one Fig. 5 table row (one environment under one scheme)."""
    params = spec.params
    density = ObstacleDensity(str(params["density"]))
    scheme = AutonomyScheme(str(params["scheme"]))
    env_pipeline = MissionPipeline().for_density(density)
    berry_provider = env_pipeline.provider_for_scheme(AutonomyScheme.BERRY)
    # The environment's operating voltage is chosen so that *BERRY* stays
    # within the success-rate drop budget (the paper's underlined points);
    # the classical policy is then evaluated at that same voltage.
    best = env_pipeline.best_operating_point(
        [float(v) for v in params["candidate_voltages"]],
        success_provider=berry_provider,
        max_success_drop_pct=float(params["max_success_drop_pct"]),
    )
    provider = env_pipeline.provider_for_scheme(scheme)
    success_cols = {
        f"success_at_p{float(ber):g}_pct": 100.0 * provider(float(ber))
        for ber in params["ber_levels"]
    }
    baseline = env_pipeline.nominal_operating_point(provider)
    point = env_pipeline.evaluate(best.normalized_voltage, provider).with_baseline(baseline)
    return {
        "environment": density.value,
        "scheme": scheme.value,
        "best_voltage_vmin": point.normalized_voltage,
        "energy_savings_x": point.processing_energy_savings,
        "flight_energy_j": point.flight_energy_j,
        "flight_energy_change_pct": point.flight_energy_change_pct,
        "num_missions": point.num_missions,
        "missions_change_pct": point.missions_change_pct,
        **success_cols,
    }


def assemble_fig5(sweep: SweepSpec, results: Sequence[Optional[Dict[str, Any]]]) -> Table:
    """Assemble ``fig5.row`` job results (in sweep order) into the Fig. 5 table."""
    ber_levels: List[float] = list(sweep.jobs[0].params["ber_levels"]) if sweep.jobs else []
    table = Table(
        title="Fig. 5: robustness and mission efficiency across obstacle densities",
        columns=[
            "environment",
            "scheme",
            *[f"success_at_p{float(ber):g}_pct" for ber in ber_levels],
            "best_voltage_vmin",
            "energy_savings_x",
            "flight_energy_j",
            "flight_energy_change_pct",
            "num_missions",
            "missions_change_pct",
        ],
    )
    table.extend(row for row in results if row is not None)
    return table


def generate_fig5_environments(
    densities: Sequence[ObstacleDensity] = FIG5_DENSITIES,
    ber_levels: Sequence[float] = FIG5_BER_LEVELS,
    candidate_voltages: Sequence[float] = TABLE_II_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> Table:
    """Regenerate the Fig. 5 per-environment comparison."""
    sweep = fig5_sweep_spec(
        densities=densities,
        ber_levels=ber_levels,
        candidate_voltages=candidate_voltages,
        max_success_drop_pct=max_success_drop_pct,
    )
    return assemble_fig5(sweep, run_sweep(sweep))

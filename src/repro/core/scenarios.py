"""The 72 autonomous-navigation deployment scenarios of the evaluation.

Sec. V of the paper evaluates BERRY across "72 UAV deployment scenarios":
the cross product of

* 3 environments (sparse / medium / dense obstacle density, Fig. 5),
* 2 UAV platforms (Crazyflie, DJI Tello, Fig. 7),
* 2 autonomy policy architectures (C3F2, C5F4, Fig. 7),
* 6 bit-error levels (the Table I operating points p = 0 / 0.01 / 0.05 /
  0.1 / 0.5 / 1 %).

:func:`iterate_scenarios` enumerates them; each scenario knows how to build
its mission pipeline and its runtime job.

:class:`GeneralizedScenario` lifts the environment axis beyond the three
fixed densities: any procedurally generated :class:`~repro.worlds.spec.WorldSpec`
world (corridor, forest, urban, rooms, dynamic, ...) can take the density's
place, with the world's measured geometry mapped onto the calibrated
robustness curves.  The ``generalization`` sweep in
:mod:`repro.experiments.generalization` enumerates thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.calibrated import AutonomyScheme, CalibratedRobustnessModel
from repro.core.pipeline import MissionPipeline, PipelineConfig
from repro.envs.obstacles import ObstacleDensity
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.uav.platform import CRAZYFLIE, DJI_TELLO, UavPlatform, get_platform
from repro.utils.warmcache import warm_cache
from repro.worlds.metrics import world_metrics
from repro.worlds.registry import generate_world
from repro.worlds.spec import WorldSpec

#: Bit-error levels (percent) at which every scenario is evaluated (Table I columns).
BIT_ERROR_LEVELS_PERCENT: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)

#: Policy architectures and their processing-power multiplier relative to C3F2.
POLICY_VARIANTS: Tuple[Tuple[str, float], ...] = (("C3F2", 1.0), ("C5F4", 1.47))

PLATFORMS: Tuple[UavPlatform, ...] = (CRAZYFLIE, DJI_TELLO)

DENSITIES: Tuple[ObstacleDensity, ...] = (
    ObstacleDensity.SPARSE,
    ObstacleDensity.MEDIUM,
    ObstacleDensity.DENSE,
)

#: Default candidate voltage grid for per-scenario operating-point search; a
#: coarse subset of the Table II rows (core must not depend on experiments).
DEFAULT_SCENARIO_VOLTAGES: Tuple[float, ...] = (0.86, 0.83, 0.80, 0.79, 0.77, 0.74, 0.71)


@dataclass(frozen=True)
class Scenario:
    """One of the 72 deployment scenarios."""

    density: ObstacleDensity
    platform: UavPlatform
    policy_name: str
    compute_power_multiplier: float
    ber_percent: float

    @property
    def name(self) -> str:
        return (
            f"{self.density.value}/{self.platform.name}/{self.policy_name}"
            f"/p={self.ber_percent:g}%"
        )

    # ------------------------------------------------------------------ factories
    def pipeline(self) -> MissionPipeline:
        """The mission pipeline evaluating this scenario's platform and policy."""
        config = PipelineConfig(
            platform=self.platform,
            compute_power_multiplier=self.compute_power_multiplier,
        )
        return MissionPipeline(
            config, robustness=CalibratedRobustnessModel().for_density(self.density)
        )

    # ------------------------------------------------------------------ spec factories
    def job_spec(
        self,
        candidate_voltages: Sequence[float] = DEFAULT_SCENARIO_VOLTAGES,
        max_success_drop_pct: float = 1.0,
    ) -> JobSpec:
        """A declarative runtime job evaluating this scenario's pipeline.

        The job finds the scenario's best BERRY operating point over
        ``candidate_voltages`` and reports both schemes' success rates at the
        scenario's bit-error level — everything is captured as plain data so
        the engine can hash, cache and distribute it.
        """
        return JobSpec(
            kind="scenario.evaluate",
            params={
                # Every field travels explicitly (not just the name) so custom
                # multipliers or off-grid BER levels round-trip exactly.
                "scenario": self.name,
                "density": self.density.value,
                "platform": self.platform.name,
                "policy": self.policy_name,
                "compute_power_multiplier": float(self.compute_power_multiplier),
                "ber_percent": float(self.ber_percent),
                "candidate_voltages": [float(v) for v in candidate_voltages],
                "max_success_drop_pct": float(max_success_drop_pct),
            },
        )


def iterate_scenarios() -> Iterator[Scenario]:
    """Yield all 72 scenarios in a deterministic order."""
    for density in DENSITIES:
        for platform in PLATFORMS:
            for policy_name, multiplier in POLICY_VARIANTS:
                for ber in BIT_ERROR_LEVELS_PERCENT:
                    yield Scenario(
                        density=density,
                        platform=platform,
                        policy_name=policy_name,
                        compute_power_multiplier=multiplier,
                        ber_percent=ber,
                    )


def scenario_count() -> int:
    """Total number of scenarios (72 in the paper)."""
    return len(DENSITIES) * len(PLATFORMS) * len(POLICY_VARIANTS) * len(BIT_ERROR_LEVELS_PERCENT)


def scenario_sweep_spec(
    scenarios: Optional[Sequence[Scenario]] = None,
    candidate_voltages: Sequence[float] = DEFAULT_SCENARIO_VOLTAGES,
    max_success_drop_pct: float = 1.0,
) -> SweepSpec:
    """A sweep evaluating every scenario (all 72 by default) as one job each."""
    selected = tuple(scenarios) if scenarios is not None else tuple(iterate_scenarios())
    return SweepSpec(
        name="scenarios",
        description="Best operating point and robustness for each deployment scenario",
        jobs=tuple(
            scenario.job_spec(
                candidate_voltages=candidate_voltages,
                max_success_drop_pct=max_success_drop_pct,
            )
            for scenario in selected
        ),
    )


@job_kind("scenario.evaluate")
def _run_scenario_evaluate(spec: JobSpec) -> Dict[str, object]:
    """Evaluate one scenario: best BERRY operating point + success at its BER."""
    params = spec.params
    scenario = Scenario(
        density=ObstacleDensity(str(params["density"])),
        platform=get_platform(str(params["platform"])),
        policy_name=str(params["policy"]),
        compute_power_multiplier=float(params["compute_power_multiplier"]),
        ber_percent=float(params["ber_percent"]),
    )
    pipeline = scenario.pipeline()
    classical = pipeline.provider_for_scheme(AutonomyScheme.CLASSICAL)
    berry = pipeline.provider_for_scheme(AutonomyScheme.BERRY)
    best = pipeline.best_operating_point(
        [float(v) for v in params["candidate_voltages"]],
        success_provider=berry,
        max_success_drop_pct=float(params["max_success_drop_pct"]),
    )
    return {
        "scenario": scenario.name,
        "environment": scenario.density.value,
        "uav": scenario.platform.name,
        "policy": scenario.policy_name,
        "ber_percent": scenario.ber_percent,
        "classical_success_pct": 100.0 * classical(scenario.ber_percent),
        "berry_success_pct": 100.0 * berry(scenario.ber_percent),
        "best_voltage_vmin": best.normalized_voltage,
        "energy_savings_x": best.processing_energy_savings,
        "flight_energy_j": best.flight_energy_j,
        "flight_energy_change_pct": best.flight_energy_change_pct,
        "num_missions": best.num_missions,
        "missions_change_pct": best.missions_change_pct,
    }


# ---------------------------------------------------------------------- generalized scenarios
@dataclass(frozen=True)
class GeneralizedScenario:
    """A deployment scenario whose environment is a procedurally generated world.

    The fixed-density axis of :class:`Scenario` is replaced by a
    :class:`~repro.worlds.spec.WorldSpec`; platform, policy and bit-error
    level stay.  The world's measured geometry (grid occupancy) selects the
    calibrated robustness curve it is evaluated against, and its corridor
    stretch scales the mission's expected flown distance.
    """

    world: WorldSpec
    platform: UavPlatform
    policy_name: str
    compute_power_multiplier: float
    ber_percent: float

    @property
    def name(self) -> str:
        return (
            f"{self.world.name}/{self.platform.name}/{self.policy_name}"
            f"/p={self.ber_percent:g}%"
        )

    # ------------------------------------------------------------------ spec factories
    def job_spec(
        self,
        candidate_voltages: Sequence[float] = DEFAULT_SCENARIO_VOLTAGES,
        max_success_drop_pct: float = 1.0,
    ) -> JobSpec:
        """A declarative runtime job evaluating this generated-world scenario."""
        return JobSpec(
            kind="scenario.generalized",
            params={
                "world": self.world.to_jsonable(),
                "platform": self.platform.name,
                "policy": self.policy_name,
                "compute_power_multiplier": float(self.compute_power_multiplier),
                "ber_percent": float(self.ber_percent),
                "candidate_voltages": [float(v) for v in candidate_voltages],
                "max_success_drop_pct": float(max_success_drop_pct),
            },
        )


def _world_and_metrics(world_spec: WorldSpec):
    """World + geometry metrics, warm-cached: the generalization sweep has 24
    jobs (platforms x policies x BER levels) per distinct world, and on the
    persistent pool the cache survives across whole sweeps."""
    return warm_cache("world_metrics").get_or_build(
        world_spec,
        lambda: (lambda world: (world, world_metrics(world)))(generate_world(world_spec)),
    )


def _scenario_shared(params: Dict[str, object]):
    """Everything in a generalized-scenario evaluation that does not depend
    on ``ber_percent`` — the expensive share that job fusion amortizes.

    World generation, geometry metrics, pipeline construction, and the
    BERRY operating-point search all depend only on the world, platform,
    policy, and voltage grid; jobs differing solely in BER reuse all of it.
    """
    world_spec = WorldSpec.from_jsonable(params["world"])
    _, metrics = _world_and_metrics(world_spec)
    pipeline = MissionPipeline(
        PipelineConfig(
            platform=get_platform(str(params["platform"])),
            compute_power_multiplier=float(params["compute_power_multiplier"]),
        ),
        robustness=CalibratedRobustnessModel().for_density(metrics.effective_density),
    )
    classical = pipeline.provider_for_scheme(AutonomyScheme.CLASSICAL)
    berry = pipeline.provider_for_scheme(AutonomyScheme.BERRY)
    best = pipeline.best_operating_point(
        [float(v) for v in params["candidate_voltages"]],
        success_provider=berry,
        max_success_drop_pct=float(params["max_success_drop_pct"]),
    )
    return world_spec, metrics, classical, berry, best


def _scenario_row(params: Dict[str, object], shared) -> Dict[str, object]:
    """The per-job result row: only the BER-dependent lookups run here."""
    world_spec, metrics, classical, berry, best = shared
    scenario = GeneralizedScenario(
        world=world_spec,
        platform=get_platform(str(params["platform"])),
        policy_name=str(params["policy"]),
        compute_power_multiplier=float(params["compute_power_multiplier"]),
        ber_percent=float(params["ber_percent"]),
    )
    return {
        "scenario": scenario.name,
        "family": world_spec.family,
        "world_seed": world_spec.seed,
        "uav": scenario.platform.name,
        "policy": scenario.policy_name,
        "ber_percent": scenario.ber_percent,
        "num_obstacles": metrics.num_obstacles,
        "occupancy_pct": 100.0 * metrics.occupancy_fraction,
        "effective_density": metrics.effective_density.value,
        "path_stretch": metrics.path_stretch,
        "expected_path_m": metrics.straight_line_m * metrics.path_stretch,
        "classical_success_pct": 100.0 * classical(scenario.ber_percent),
        "berry_success_pct": 100.0 * berry(scenario.ber_percent),
        "best_voltage_vmin": best.normalized_voltage,
        "energy_savings_x": best.processing_energy_savings,
        "flight_energy_change_pct": best.flight_energy_change_pct,
        "missions_change_pct": best.missions_change_pct,
    }


@job_kind("scenario.generalized", fuse_along=("ber_percent",))
def _run_scenario_generalized(specs: Sequence[JobSpec]) -> List[Dict[str, object]]:
    """Evaluate generated-world scenarios that differ only in ``ber_percent``.

    Regenerates the world from its spec (any worker produces the identical
    world), measures its geometry, evaluates the calibrated pipeline at the
    world's effective difficulty, and reports robustness plus
    quality-of-flight at each scenario's best BERRY operating point.  The
    BER-invariant half (:func:`_scenario_shared`) runs once for the group;
    each member adds two robustness-curve lookups.  A lone job is a group of
    one, so fused and unfused runs compute the same floats.
    """
    shared = _scenario_shared(specs[0].params)
    return [_scenario_row(spec.params, shared) for spec in specs]

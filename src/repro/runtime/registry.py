"""Named-sweep registry: every fig/table experiment as a runnable sweep.

The CLI (and anything else that wants to run "the Fig. 5 experiment" without
importing its module) looks sweeps up here by name.  A registered sweep
bundles a *builder* (returns the :class:`~repro.runtime.jobs.SweepSpec`) with
an *assembler* (turns the ordered job results back into the experiment's
:class:`~repro.utils.tables.Table` output).

Two registration styles coexist:

* fig5 / fig7 / table2 (refactored to build their tables through the
  engine), the scenario sweep, the generalization sweeps and the fleet sweep
  expose real multi-job grids, registered from their modules' spec factories
  and assemblers;
* the remaining figures/tables run as a single ``experiment.table`` job that
  invokes the generator by dotted name — still cacheable and journalable,
  just not internally parallel.

Importing this module registers every job kind, which is why
:mod:`repro.runtime.jobs` lazily imports it from worker processes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.tables import Table

Assembler = Callable[[SweepSpec, Sequence[Any]], Any]


@dataclass(frozen=True)
class RegisteredSweep:
    """One named, runnable sweep."""

    name: str
    description: str
    build: Callable[[], SweepSpec]
    assemble: Assembler

    def spec(self) -> SweepSpec:
        return self.build()


_REGISTRY: Dict[str, RegisteredSweep] = {}


def register_sweep(
    name: str, description: str, build: Callable[[], SweepSpec], assemble: Assembler
) -> RegisteredSweep:
    if name in _REGISTRY:
        raise ConfigurationError(f"sweep {name!r} is already registered")
    entry = RegisteredSweep(name=name, description=description, build=build, assemble=assemble)
    _REGISTRY[name] = entry
    return entry


def get_registered_sweep(name: str) -> RegisteredSweep:
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown sweep {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def iter_registered_sweeps() -> Iterator[RegisteredSweep]:
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


# ---------------------------------------------------------------------- generic wrapper
@job_kind("experiment.table")
def _run_experiment_table(spec: JobSpec) -> Dict[str, Any]:
    """Run a whole table/figure generator (by dotted name) as one job."""
    module = importlib.import_module(str(spec.params["module"]))
    generator = getattr(module, str(spec.params["function"]))
    table = generator()
    return table.to_jsonable()


def _table_from_jsonable(payload: Dict[str, Any]) -> Table:
    table = Table(title=payload["title"], columns=list(payload["columns"]))
    for row in payload["rows"]:
        table.add_row(**row)
    return table


def _register_generator(name: str, description: str, module: str, function: str) -> None:
    def build() -> SweepSpec:
        return SweepSpec(
            name=name,
            description=description,
            jobs=(JobSpec(kind="experiment.table", params={"module": module, "function": function}),),
        )

    def assemble(sweep: SweepSpec, results: Sequence[Any]) -> Table:
        return _table_from_jsonable(results[0])

    register_sweep(name, description, build, assemble)


# ---------------------------------------------------------------------- registrations
def _assemble_scenarios(sweep: SweepSpec, results: Sequence[Any]) -> Table:
    table = Table(
        title="All deployment scenarios: robustness and best operating point",
        columns=[
            "scenario",
            "environment",
            "uav",
            "policy",
            "ber_percent",
            "classical_success_pct",
            "berry_success_pct",
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


def _register_all() -> None:
    from repro.core import scenarios as scenarios_module
    from repro.experiments import fig5, fig7, generalization, table2
    from repro.fleet import reliability as fleet_reliability

    register_sweep(
        "fig5",
        "Fig. 5: robustness and mission efficiency across obstacle densities",
        fig5.fig5_sweep_spec,
        fig5.assemble_fig5,
    )
    register_sweep(
        "fig7",
        "Fig. 7 (table): effectiveness across UAV platforms and policies",
        fig7.fig7_config_sweep_spec,
        fig7.assemble_fig7_configs,
    )
    register_sweep(
        "fig7-sweep",
        "Fig. 7 (curves): DJI Tello voltage sweep",
        fig7.fig7_tello_sweep_spec,
        fig7.assemble_fig7_tello_sweep,
    )
    register_sweep(
        "table2",
        "Table II: operating and system efficiency vs supply voltage",
        table2.table2_sweep_spec,
        table2.assemble_table2,
    )
    register_sweep(
        "scenarios",
        "Best operating point and robustness for each of the 72 deployment scenarios",
        scenarios_module.scenario_sweep_spec,
        _assemble_scenarios,
    )
    register_sweep(
        "generalization",
        "Generated worlds (6 families x 2 presets x 5 seeds) x platforms x policies x BER",
        generalization.generalization_sweep_spec,
        generalization.assemble_generalization,
    )
    register_sweep(
        "fleet-reliability",
        "Fleet success/conflict/energy vs supply voltage (streaming Monte-Carlo)",
        fleet_reliability.fleet_reliability_sweep_spec,
        fleet_reliability.assemble_fleet_reliability,
    )
    register_sweep(
        "generalization-rollouts",
        "Measured policy rollouts (trained in-world, batched core) per family x BER",
        generalization.generalization_rollout_sweep_spec,
        generalization.assemble_generalization_rollouts,
    )
    _register_generator(
        "fig1",
        "Fig. 1: voltage scaling physics chain",
        "repro.experiments.fig1",
        "generate_fig1_voltage_physics",
    )
    _register_generator(
        "fig2",
        "Fig. 2: voltage vs bit-error rate and SRAM access energy",
        "repro.experiments.fig2",
        "generate_fig2_voltage_ber_energy",
    )
    _register_generator(
        "fig3",
        "Fig. 3: robustness vs bit-error rate (classical vs BERRY)",
        "repro.experiments.fig3",
        "generate_fig3_robustness_vs_ber",
    )
    _register_generator(
        "fig6",
        "Fig. 6: payload/acceleration/velocity/energy physics relations",
        "repro.experiments.fig6",
        "generate_fig6_physics_relations",
    )
    _register_generator(
        "table1",
        "Table I: success rate under bit errors (classical vs BERRY)",
        "repro.experiments.table1",
        "generate_table1_robustness",
    )
    _register_generator(
        "table3",
        "Table III: profiled commodity chips",
        "repro.experiments.table3",
        "generate_table3_profiled_chips",
    )
    _register_generator(
        "table4",
        "Table IV: on-device learning recovery",
        "repro.experiments.table4",
        "generate_table4_on_device",
    )


_register_all()

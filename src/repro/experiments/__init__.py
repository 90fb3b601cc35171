"""Experiment harness: one generator per table and figure of the paper.

Each module exposes a ``generate_*`` function returning a
:class:`repro.utils.tables.Table` whose rows/series mirror what the paper
reports.  The benchmark suite (``benchmarks/``) wraps these generators with
pytest-benchmark so that ``pytest benchmarks/ --benchmark-only`` regenerates
every table and figure.

Two evaluation modes exist:

* **calibrated** (default) — the robustness provider is the Table-I-calibrated
  analytic model, so the full paper-scale tables are regenerated in seconds.
* **trained** — policies are actually trained in the reduced-scale navigation
  environments of this repository and evaluated under injected bit errors;
  used by the integration tests and available to every generator that takes a
  ``success_provider``.
"""

from repro.experiments.profiles import ExperimentProfile, FAST_PROFILE, PAPER_PROFILE
from repro.experiments.fig1 import generate_fig1_voltage_physics
from repro.experiments.fig2 import generate_fig2_voltage_ber_energy
from repro.experiments.fig3 import generate_fig3_robustness_vs_ber
from repro.experiments.fig5 import generate_fig5_environments
from repro.experiments.fig6 import generate_fig6_physics_relations
from repro.experiments.fig7 import generate_fig7_platforms_models
from repro.experiments.generalization import generate_generalization_report
from repro.experiments.table1 import generate_table1_robustness, measure_table1_with_training
from repro.experiments.table2 import generate_table2_system_efficiency
from repro.experiments.table3 import generate_table3_profiled_chips
from repro.experiments.table4 import generate_table4_on_device

__all__ = [
    "ExperimentProfile",
    "FAST_PROFILE",
    "PAPER_PROFILE",
    "generate_fig1_voltage_physics",
    "generate_fig2_voltage_ber_energy",
    "generate_fig3_robustness_vs_ber",
    "generate_fig5_environments",
    "generate_fig6_physics_relations",
    "generate_fig7_platforms_models",
    "generate_table1_robustness",
    "measure_table1_with_training",
    "generate_table2_system_efficiency",
    "generate_table3_profiled_chips",
    "generate_table4_on_device",
]

"""Table III — generalisation of BERRY (trained at p = 0.5 %) to profiled chips.

Chip 1 exhibits a random spatial error pattern, Chip 2 a column-aligned
pattern with a bias towards 0->1 flips; both are evaluated at error rates
below and above the training rate.  Besides the calibrated generator, a
measured variant evaluates a trained BERRY policy directly on fault maps
sampled from the chip profiles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.calibrated import AutonomyScheme
from repro.core.pipeline import MissionPipeline
from repro.envs.navigation import NavigationEnv
from repro.experiments.profiles import ExperimentProfile, FAST_PROFILE
from repro.faults.ber_model import DEFAULT_BER_MODEL
from repro.faults.chips import CHIP_COLUMN_ALIGNED, CHIP_RANDOM, ChipProfile
from repro.faults.injection import BitErrorInjector
from repro.nn.network import Sequential
from repro.rl.evaluation import FaultRequest, evaluate_many
from repro.utils.rng import spawn_generators
from repro.utils.tables import Table

#: The profiled chips and the error rates (percent) Table III evaluates them at.
TABLE_III_CHIPS: tuple[ChipProfile, ...] = (CHIP_RANDOM, CHIP_COLUMN_ALIGNED)


def generate_table3_profiled_chips(
    chips: Sequence[ChipProfile] = TABLE_III_CHIPS,
    pipeline: Optional[MissionPipeline] = None,
    training_ber_percent: float = 0.5,
) -> Table:
    """Regenerate Table III from the calibrated BERRY robustness curve."""
    pipeline = pipeline if pipeline is not None else MissionPipeline()
    provider = pipeline.provider_for_scheme(AutonomyScheme.BERRY)
    baseline = pipeline.nominal_operating_point(provider)
    table = Table(
        title="Table III: BERRY (trained at p=0.5%) on profiled chips",
        columns=[
            "chip",
            "pattern",
            "ber_percent",
            "voltage_vmin",
            "success_rate_pct",
            "flight_energy_j",
        ],
    )
    table.add_row(
        chip="baseline",
        pattern="error-free",
        ber_percent=0.0,
        voltage_vmin=pipeline.nominal_normalized_voltage,
        success_rate_pct=baseline.success_rate_percent,
        flight_energy_j=baseline.flight_energy_j,
    )
    for chip in chips:
        for ber in chip.reference_ber_percent:
            voltage = DEFAULT_BER_MODEL.voltage_for_ber(float(ber) / chip.ber_scale)
            point = pipeline.evaluate(voltage, provider, ber_percent=float(ber))
            table.add_row(
                chip=chip.name,
                pattern=chip.pattern,
                ber_percent=float(ber),
                voltage_vmin=voltage,
                success_rate_pct=point.success_rate_percent,
                flight_energy_j=point.flight_energy_j,
            )
    return table


def measure_table3_on_chips(
    berry_network: Sequential,
    env: NavigationEnv,
    chips: Sequence[ChipProfile] = TABLE_III_CHIPS,
    profile: ExperimentProfile = FAST_PROFILE,
    seed: int = 0,
) -> Table:
    """Evaluate a trained BERRY policy on fault maps sampled from the chip profiles."""
    table = Table(
        title="Table III (measured, reduced scale): trained BERRY policy on profiled chips",
        columns=["chip", "pattern", "ber_percent", "success_rate_pct"],
    )
    injector = BitErrorInjector.for_network(berry_network)
    rows = [(chip, float(ber)) for chip in chips for ber in chip.reference_ber_percent]
    # One map stream per (chip, error rate) row; every row flies in one call.
    requests = [
        FaultRequest(
            berry_network,
            ber_percent=ber,
            fault_maps=[
                chip.fault_map(injector.memory_bits, ber_percent=ber, rng=generator)
                for _ in range(profile.num_fault_maps)
            ],
            episodes_per_map=profile.episodes_per_map,
            rng=seed,
        )
        for (chip, ber), generator in zip(rows, spawn_generators(seed, len(rows)))
    ]
    for (chip, ber), point in zip(rows, evaluate_many(env, requests)):
        table.add_row(
            chip=chip.name,
            pattern=chip.pattern,
            ber_percent=ber,
            success_rate_pct=100.0 * point.success_rate,
        )
    return table

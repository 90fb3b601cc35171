"""Fleet reliability vs supply voltage: the Monte-Carlo sweep.

The paper's chain — supply voltage → SRAM bit-error rate → degraded policy
behaviour → quality of flight — lifted to fleet scale: at each operating
voltage, N vehicles share one dynamic airspace and the question becomes
*what fraction of the fleet completes its mission, how often vehicles come
into conflict, and what does the fleet pay in energy?*

Each ``fleet.reliability`` job runs a batch of episodes at one
(voltage, world-seed) cell and returns streaming Welford moments — voltage
maps to an action-corruption probability through
:data:`~repro.faults.ber_model.DEFAULT_BER_MODEL` (a corrupted step flies a
random heading, the fleet-scale analogue of the fault-injected policy) and
to onboard compute power through the quadratic
:data:`~repro.hardware.dvfs.DEFAULT_VOLTAGE_SCALING`.  The assembler merges
the per-seed moments exactly (Chan's update) into one row per voltage with
95 % confidence intervals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.jobs import JobSpec, SweepSpec, job_kind
from repro.utils.tables import Table

#: Operating voltages (Vmin units) the default sweep evaluates: nominal down
#: to the deep-undervolt regime where bit errors dominate.
DEFAULT_FLEET_VOLTAGES: Tuple[float, ...] = (1.43, 0.86, 0.77, 0.74, 0.71)

#: World seeds (dynamic family) averaged per voltage.
DEFAULT_WORLD_SEEDS: Tuple[int, ...] = (0, 1)

#: Bits per steering command: one flipped bit corrupts the step's action.
ACTION_BITS = 16


def corruption_probability(ber_percent: float, bits: int = ACTION_BITS) -> float:
    """Per-step action-corruption probability at a bit-error rate.

    A steering command of ``bits`` independent bits is corrupted when any
    bit flips: ``1 - (1 - p)^bits`` with ``p`` the per-bit error fraction.
    """
    per_bit = min(1.0, max(0.0, ber_percent / 100.0))
    return 1.0 - (1.0 - per_bit) ** bits


def fleet_reliability_sweep_spec(
    voltages: Sequence[float] = DEFAULT_FLEET_VOLTAGES,
    world_seeds: Sequence[int] = DEFAULT_WORLD_SEEDS,
    num_vehicles: int = 24,
    episodes_per_job: int = 2,
    max_steps: int = 120,
    platform: str = "crazyflie",
) -> SweepSpec:
    """One job per (voltage, world seed): streamed fleet Monte-Carlo."""
    jobs = [
        JobSpec(
            kind="fleet.reliability",
            params={
                "voltage": float(voltage),
                "world": {
                    "family": "dynamic",
                    "params": {"num_movers": 5, "mover_speed_m_s": 1.0},
                    "seed": int(world_seed),
                },
                "num_vehicles": int(num_vehicles),
                "episodes": int(episodes_per_job),
                "max_steps": int(max_steps),
                "platform": str(platform),
                "separation_m": 0.8,
            },
        )
        for voltage in voltages
        for world_seed in world_seeds
    ]
    return SweepSpec(
        name="fleet-reliability",
        description="Fleet success/conflict/energy vs supply voltage (streaming Monte-Carlo)",
        jobs=tuple(jobs),
    )


@job_kind("fleet.reliability", fuse_along=("voltage",))
def _run_fleet_reliability(specs: Sequence[JobSpec]) -> List[Dict[str, Any]]:
    """Run the (voltage, world) fleet cells of one world; streaming moments only.

    Voltage only scales the BER/corruption/compute-power inputs, so the
    members share the compiled dynamic world and the platform.  Each member
    runs its own episodes from its own ``spec.seed``, so a lone job (a group
    of one) gives the identical result; fusing pins the whole voltage axis
    to one worker instead of leaving world reuse to scheduling luck.
    """
    from repro.faults.ber_model import DEFAULT_BER_MODEL
    from repro.fleet.sim import FleetConfig, run_fleet_episodes
    from repro.hardware.dvfs import DEFAULT_VOLTAGE_SCALING
    from repro.uav.platform import get_platform
    from repro.worlds.registry import generate_world
    from repro.worlds.spec import WorldSpec

    world_spec = WorldSpec.from_jsonable(specs[0].params["world"])
    world = generate_world(world_spec)
    platform = get_platform(str(specs[0].params["platform"]))
    results = []
    for spec in specs:
        params = spec.params
        voltage = float(params["voltage"])
        ber_percent = DEFAULT_BER_MODEL.ber_percent(voltage)
        volts = DEFAULT_VOLTAGE_SCALING.to_volts(voltage)
        compute_power_w = (
            platform.compute_power_nominal_w * DEFAULT_VOLTAGE_SCALING.energy_scale(volts)
        )
        config = FleetConfig(
            num_vehicles=int(params["num_vehicles"]),
            max_steps=int(params["max_steps"]),
            platform=str(params["platform"]),
            separation_m=float(params["separation_m"]),
            compute_power_w=float(compute_power_w),
            action_corruption_prob=corruption_probability(ber_percent),
            launch_per_step=max(1, int(params["num_vehicles"]) // 8),
        )
        moments = run_fleet_episodes(
            world.field, config, int(params["episodes"]), rng=spec.seed
        )
        results.append(
            {
                "voltage": voltage,
                "world": world_spec.name,
                "world_seed": world_spec.seed,
                "ber_percent": ber_percent,
                "corruption_prob": config.action_corruption_prob,
                "compute_power_w": float(compute_power_w),
                "episodes": int(params["episodes"]),
                "moments": {name: acc.to_jsonable() for name, acc in moments.items()},
            }
        )
    return results


def assemble_fleet_reliability(sweep: SweepSpec, results: Sequence[Any]) -> Table:
    """Merge per-seed moments into one row per voltage (exact Chan merges)."""
    from repro.fleet.stats import StreamingMoments

    merged: Dict[float, Dict[str, StreamingMoments]] = {}
    meta: Dict[float, Mapping[str, Any]] = {}
    for result in results:
        if result is None:
            continue
        voltage = float(result["voltage"])
        into = merged.setdefault(voltage, {})
        meta.setdefault(voltage, result)
        for name, payload in result["moments"].items():
            into.setdefault(name, StreamingMoments()).merge(
                StreamingMoments.from_jsonable(payload)
            )
    table = Table(
        title="Fleet reliability vs supply voltage (streaming Monte-Carlo)",
        columns=[
            "voltage_vmin",
            "ber_percent",
            "corruption_prob",
            "episodes",
            "success_pct",
            "success_ci95_pct",
            "conflicts_per_episode",
            "charge_stops_per_episode",
            "mean_energy_used_j",
        ],
    )
    for voltage in sorted(merged, reverse=True):
        moments = merged[voltage]
        success = moments["success_fraction"]
        half_ci = (success.ci95[1] - success.ci95[0]) / 2.0
        table.add_row(
            voltage_vmin=voltage,
            ber_percent=float(meta[voltage]["ber_percent"]),
            corruption_prob=float(meta[voltage]["corruption_prob"]),
            episodes=success.count,
            success_pct=100.0 * success.mean,
            success_ci95_pct=100.0 * half_ci,
            conflicts_per_episode=moments["conflicts"].mean,
            charge_stops_per_episode=moments["charge_stops"].mean,
            mean_energy_used_j=moments["mean_energy_used_j"].mean,
        )
    if not len(table.rows):
        raise ConfigurationError("fleet-reliability assembly received no results")
    return table

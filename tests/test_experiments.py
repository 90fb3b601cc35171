"""Tests for the experiment generators (one per table/figure of the paper)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig1 import generate_fig1_voltage_physics
from repro.experiments.fig2 import generate_fig2_voltage_ber_energy
from repro.experiments.fig3 import FIG3_BER_SWEEP, generate_fig3_robustness_vs_ber
from repro.experiments.fig5 import generate_fig5_environments
from repro.experiments.fig6 import generate_fig6_physics_relations
from repro.experiments.fig7 import (
    fig7_config_sweep_spec,
    generate_fig7_platforms_models,
    generate_fig7_tello_voltage_sweep,
)
from repro.experiments.profiles import FAST_PROFILE, PAPER_PROFILE
from repro.experiments.table1 import generate_table1_robustness
from repro.experiments.table2 import TABLE_II_VOLTAGES, generate_table2_system_efficiency
from repro.experiments.table3 import generate_table3_profiled_chips, measure_table3_on_chips
from repro.experiments.table4 import generate_table4_on_device, on_device_recovery_fraction
from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.faults.chips import CHIP_RANDOM
from repro.nn.policies import build_policy
from repro.uav.platform import CRAZYFLIE, DJI_TELLO


class TestFig1:
    def test_lower_voltage_improves_every_link_in_the_chain(self):
        table = generate_fig1_voltage_physics()
        rows = {row["supply_voltage_v"]: row for row in table.rows}
        high, low = rows[1.5], rows[0.5]
        assert low["heatsink_weight_g"] < high["heatsink_weight_g"]
        assert low["acceleration_m_s2"] > high["acceleration_m_s2"]
        assert low["max_velocity_m_s"] > high["max_velocity_m_s"]
        assert low["flight_time_s"] < high["flight_time_s"]
        assert low["flight_energy_kj"] < high["flight_energy_kj"]
        assert low["num_missions"] > high["num_missions"]

    def test_heatsink_masses_match_fig1_annotations(self):
        table = generate_fig1_voltage_physics()
        rows = {row["supply_voltage_v"]: row for row in table.rows}
        assert rows[1.5]["heatsink_weight_g"] == pytest.approx(9.1, rel=0.02)
        assert rows[0.5]["heatsink_weight_g"] == pytest.approx(1.0, rel=0.03)


class TestFig2:
    def test_ber_monotone_decreasing_and_energy_increasing(self):
        table = generate_fig2_voltage_ber_energy()
        voltages = table.column("voltage_vmin")
        bers = table.column("ber_percent")
        energies = table.column("sram_access_energy_nj")
        assert voltages == sorted(voltages)
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_custom_voltage_grid(self):
        table = generate_fig2_voltage_ber_energy(normalized_voltages=[0.7, 0.8])
        assert len(table) == 2


class TestFig3:
    def test_berry_dominates_classical_across_the_sweep(self):
        table = generate_fig3_robustness_vs_ber()
        assert len(table) == len(FIG3_BER_SWEEP)
        for row in table.rows:
            assert row["berry_success_pct"] >= row["classical_success_pct"]
            assert row["berry_flight_energy_j"] <= row["classical_flight_energy_j"] + 1e-9

    def test_custom_provider_is_used(self):
        table = generate_fig3_robustness_vs_ber(
            ber_percentages=[0.1],
            classical_provider=lambda ber: 0.5,
            berry_provider=lambda ber: 0.9,
        )
        assert table.rows[0]["classical_success_pct"] == pytest.approx(50.0)
        assert table.rows[0]["berry_success_pct"] == pytest.approx(90.0)


class TestTable1:
    def test_matches_paper_values(self):
        table = generate_table1_robustness()
        classical = next(row for row in table.rows if row["scheme"] == "classical")
        berry = next(row for row in table.rows if row["scheme"] == "berry")
        assert classical["p=1%"] == pytest.approx(33.0, abs=0.5)
        assert berry["p=1%"] == pytest.approx(74.8, abs=0.5)
        assert berry["p=0.01%"] > classical["p=0.01%"]

    def test_berry_dominates_every_column(self):
        table = generate_table1_robustness()
        classical, berry = table.rows
        for column in table.columns[1:]:
            assert berry[column] >= classical[column]


class TestTable2:
    def test_row_count_and_baseline(self):
        table = generate_table2_system_efficiency()
        assert len(table) == len(TABLE_II_VOLTAGES) + 1
        baseline = table.rows[0]
        assert baseline["ber_percent"] == 0.0
        assert baseline["flight_energy_j"] == pytest.approx(53.19, rel=0.02)

    def test_headline_voltage_row(self):
        table = generate_table2_system_efficiency()
        row = next(r for r in table.rows if r["voltage_vmin"] == 0.77)
        assert row["energy_savings_x"] == pytest.approx(3.43, rel=0.02)
        assert row["flight_energy_change_pct"] < -10.0
        assert row["missions_change_pct"] > 10.0

    def test_sweet_spot_exists_then_degrades(self):
        """Flight-energy savings improve down to ~0.77-0.79 Vmin, then reverse (Table II shape)."""
        table = generate_table2_system_efficiency()
        changes = {row["voltage_vmin"]: row["flight_energy_change_pct"] for row in table.rows[1:]}
        best_voltage = min(changes, key=changes.get)
        assert 0.76 <= best_voltage <= 0.81
        assert changes[0.64] > changes[best_voltage]
        assert changes[0.64] > 0.0  # at 0.64 Vmin the detours cost more than the savings


class TestFig5:
    def test_structure_and_ordering(self):
        table = generate_fig5_environments()
        assert len(table) == 6  # 3 densities x 2 schemes
        by_env = {}
        for row in table.rows:
            by_env.setdefault(row["environment"], {})[row["scheme"]] = row
        for env, rows in by_env.items():
            assert rows["berry"]["success_at_p0.1_pct"] > rows["classical"]["success_at_p0.1_pct"]
        # Harder environments have lower success rates for the same scheme.
        assert (
            by_env["sparse"]["berry"]["success_at_p0.1_pct"]
            > by_env["dense"]["berry"]["success_at_p0.1_pct"]
        )

    def test_mission_energy_scales_with_environment(self):
        table = generate_fig5_environments()
        berry = {row["environment"]: row for row in table.rows if row["scheme"] == "berry"}
        assert berry["sparse"]["flight_energy_j"] < berry["medium"]["flight_energy_j"]
        assert berry["medium"]["flight_energy_j"] < berry["dense"]["flight_energy_j"]


class TestFig6:
    def test_monotone_relations(self):
        table = generate_fig6_physics_relations()
        voltages = table.column("voltage_vmin")
        masses = table.column("heatsink_weight_g")
        accelerations = table.column("acceleration_m_s2")
        velocities = table.column("max_velocity_m_s")
        assert all(a <= b for a, b in zip(masses, masses[1:]))  # mass grows with voltage
        assert all(a >= b for a, b in zip(accelerations, accelerations[1:]))
        assert all(a >= b for a, b in zip(velocities, velocities[1:]))
        assert voltages == sorted(voltages)


class TestFig7:
    def test_platform_policy_table(self):
        table = generate_fig7_platforms_models()
        rows = {(row["uav"], row["policy"]): row for row in table.rows}
        crazyflie = rows[("crazyflie", "C3F2")]
        tello_c3f2 = rows[("dji-tello", "C3F2")]
        tello_c5f4 = rows[("dji-tello", "C5F4")]
        # Compute-power shares follow Fig. 7 (6.5 %, 2.8 %, ~4 %).
        assert crazyflie["compute_power_pct"] == pytest.approx(6.5, abs=0.7)
        assert tello_c3f2["compute_power_pct"] == pytest.approx(2.8, abs=0.5)
        assert tello_c5f4["compute_power_pct"] > tello_c3f2["compute_power_pct"]
        # Higher compute-power share -> larger mission-level benefit.
        assert crazyflie["flight_energy_reduction_pct"] > tello_c3f2["flight_energy_reduction_pct"]
        assert tello_c5f4["flight_energy_reduction_pct"] > tello_c3f2["flight_energy_reduction_pct"]
        assert all(row["missions_increase_pct"] > 0 for row in table.rows)

    def test_modified_platform_under_a_registered_name_is_rejected(self):
        """A job names its platform, so a heavier Tello called "dji-tello"
        would silently be evaluated as the stock Tello."""
        heavy = dataclasses.replace(DJI_TELLO, base_mass_g=1.5 * DJI_TELLO.base_mass_g)
        configurations = [(heavy, "C3F2", 1.0)]
        with pytest.raises(ConfigurationError, match="differs from the registered platform"):
            fig7_config_sweep_spec(configurations=configurations)
        with pytest.raises(ConfigurationError, match="differs from the registered platform"):
            generate_fig7_platforms_models(configurations=configurations)

    def test_unregistered_platform_is_rejected(self):
        custom = dataclasses.replace(CRAZYFLIE, name="custom-quad")
        with pytest.raises(ConfigurationError, match="unknown platform"):
            fig7_config_sweep_spec(configurations=[(custom, "C3F2", 1.0)])

    def test_tello_voltage_sweep_curves(self):
        table = generate_fig7_tello_voltage_sweep()
        for row in table.rows:
            assert row["berry_success_pct"] >= row["classical_success_pct"]
        missions = table.column("berry_num_missions")
        assert max(missions) > 0


class TestTable3:
    def test_structure_and_generalisation(self):
        table = generate_table3_profiled_chips()
        baseline = table.rows[0]
        assert baseline["chip"] == "baseline"
        chip_rows = table.rows[1:]
        assert len(chip_rows) == 4
        for row in chip_rows:
            # BERRY keeps a usable success rate on both chips at both error rates.
            assert row["success_rate_pct"] > 70.0
            assert row["success_rate_pct"] < baseline["success_rate_pct"]

    def test_higher_error_rate_lowers_success_within_chip(self):
        table = generate_table3_profiled_chips()
        for chip in ("chip1-random", "chip2-column-aligned"):
            rows = [row for row in table.rows if row["chip"] == chip]
            rows.sort(key=lambda row: row["ber_percent"])
            assert rows[0]["success_rate_pct"] > rows[1]["success_rate_pct"]

    def test_measured_table_has_one_row_per_chip_error_rate(self):
        profile = dataclasses.replace(FAST_PROFILE, num_fault_maps=1, episodes_per_map=1)
        env = NavigationEnv(profile.navigation, rng=0)
        network = build_policy(
            profile.policy_spec, env.observation_space.shape, env.action_space.n, rng=0
        )
        table = measure_table3_on_chips(network, env, profile=profile)
        assert [(row["chip"], row["ber_percent"]) for row in table.rows] == [
            ("chip1-random", 0.16),
            ("chip1-random", 0.74),
            ("chip2-column-aligned", 0.067),
            ("chip2-column-aligned", 0.32),
        ]
        three_levels = dataclasses.replace(CHIP_RANDOM, reference_ber_percent=(0.1, 0.5, 1.0))
        table = measure_table3_on_chips(network, env, chips=(three_levels,), profile=profile)
        assert [row["ber_percent"] for row in table.rows] == [0.1, 0.5, 1.0]


class TestTable4:
    def test_recovery_fraction_monotone(self):
        assert on_device_recovery_fraction(0) == 0.0
        assert on_device_recovery_fraction(4000) < on_device_recovery_fraction(6000)
        assert on_device_recovery_fraction(60_000) <= 0.97

    def test_on_device_beats_offline_at_very_low_voltage(self):
        table = generate_table4_on_device()
        rows = {(row["mode"], row["learning_steps"], row["voltage_vmin"]): row for row in table.rows}
        on_device = rows[("on-device BERRY", 6000, 0.70)]
        offline = rows[("offline BERRY", 0, 0.70)]
        baseline = rows[("baseline 1V", 0, next(k[2] for k in rows if k[0] == "baseline 1V"))]
        assert on_device["success_rate_pct"] > offline["success_rate_pct"]
        assert on_device["flight_energy_j"] < offline["flight_energy_j"]
        assert on_device["energy_savings_x"] > 4.0
        assert baseline["energy_savings_x"] == pytest.approx(1.0)

    def test_learning_energy_grows_with_steps(self):
        table = generate_table4_on_device()
        on_device = [row for row in table.rows if row["mode"] == "on-device BERRY"]
        by_steps = {}
        for row in on_device:
            by_steps.setdefault(row["learning_steps"], []).append(row["learning_energy_j"])
        assert max(by_steps[4000]) < min(by_steps[6000]) or np.mean(by_steps[4000]) < np.mean(by_steps[6000])


class TestProfilesAndReporting:
    def test_profiles_scale_sanely(self):
        assert FAST_PROFILE.training_episodes < PAPER_PROFILE.training_episodes
        assert FAST_PROFILE.num_fault_maps < PAPER_PROFILE.num_fault_maps
        nav = FAST_PROFILE.navigation_for_density(ObstacleDensity.DENSE)
        assert nav.density == ObstacleDensity.DENSE
        assert nav.world_size == FAST_PROFILE.navigation.world_size

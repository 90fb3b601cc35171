"""Tests for the UAV platform, dynamics, flight and battery models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.uav.battery import missions_per_charge
from repro.uav.dynamics import GRAVITY_M_S2, UavDynamics
from repro.uav.flight import FlightModel, detour_factor
from repro.uav.platform import CRAZYFLIE, DJI_TELLO, UavPlatform, get_platform


class TestPlatform:
    def test_lookup(self):
        assert get_platform("crazyflie") is CRAZYFLIE
        assert get_platform("Tello") is DJI_TELLO
        with pytest.raises(ConfigurationError):
            get_platform("mavic")

    def test_paper_takeoff_weights(self):
        assert CRAZYFLIE.base_mass_g == pytest.approx(27.0)
        assert DJI_TELLO.base_mass_g == pytest.approx(80.0)

    def test_battery_capacities_match_paper(self):
        # 250 mAh @ 3.7 V and 1100 mAh @ ~3.8 V.
        assert CRAZYFLIE.battery_capacity_j == pytest.approx(3330, rel=0.01)
        assert DJI_TELLO.battery_capacity_j == pytest.approx(15048, rel=0.01)

    def test_total_mass_includes_payload(self):
        assert CRAZYFLIE.total_mass_kg(4.0) == pytest.approx(0.031)

    def test_payload_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            CRAZYFLIE.total_mass_kg(CRAZYFLIE.max_payload_g + 1.0)
        with pytest.raises(ConfigurationError):
            CRAZYFLIE.total_mass_kg(-1.0)

    def test_rotor_power_increases_with_payload(self):
        assert CRAZYFLIE.rotor_power_w(5.0) > CRAZYFLIE.rotor_power_w(1.0)

    def test_compute_power_fraction_matches_paper(self):
        """Crazyflie ~6.5 % and Tello ~2.8 % compute share with C3F2 at 1 V (Fig. 7)."""
        crazyflie_fraction = CRAZYFLIE.compute_power_fraction(4.05, CRAZYFLIE.compute_power_nominal_w)
        tello_fraction = DJI_TELLO.compute_power_fraction(4.05, DJI_TELLO.compute_power_nominal_w)
        assert crazyflie_fraction == pytest.approx(0.065, abs=0.005)
        assert tello_fraction == pytest.approx(0.028, abs=0.004)

    def test_invalid_platform_constants(self):
        with pytest.raises(ConfigurationError):
            UavPlatform(
                name="bad",
                base_mass_g=0.0,
                max_payload_g=1.0,
                max_thrust_n=1.0,
                battery_capacity_j=1.0,
                rotor_profile_power_w=0.0,
                rotor_induced_coeff_w_per_kg15=1.0,
                compute_power_nominal_w=0.1,
                max_flight_time_min=1.0,
                mission_distance_m=1.0,
            )


class TestDynamics:
    def test_crazyflie_acceleration_matches_fig6(self):
        """Fig. 6b: 1.22 g payload -> ~7.56 m/s², 3.26 g -> ~6.37 m/s²."""
        dynamics = UavDynamics(CRAZYFLIE)
        assert dynamics.acceleration_m_s2(1.22) == pytest.approx(7.56, rel=0.02)
        assert dynamics.acceleration_m_s2(3.26) == pytest.approx(6.37, rel=0.02)

    def test_tello_acceleration_matches_fig1(self):
        """Fig. 1: 1.0 g payload -> ~14.4 m/s², 9.1 g -> ~12.2 m/s²."""
        dynamics = UavDynamics(DJI_TELLO)
        assert dynamics.acceleration_m_s2(1.0) == pytest.approx(14.4, rel=0.03)
        assert dynamics.acceleration_m_s2(9.1) == pytest.approx(12.2, rel=0.03)

    def test_velocity_matches_fig6c(self):
        """Fig. 6c: a = 6.17 -> v ≈ 4.91 m/s and a = 7.56 -> v ≈ 5.43 m/s."""
        dynamics = UavDynamics(CRAZYFLIE)
        assert dynamics.velocity_from_acceleration(6.17) == pytest.approx(4.91, rel=0.02)
        assert dynamics.velocity_from_acceleration(7.56) == pytest.approx(5.43, rel=0.02)

    @given(payload=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_more_payload_never_increases_velocity(self, payload):
        dynamics = UavDynamics(CRAZYFLIE)
        lighter = dynamics.max_safe_velocity_m_s(payload)
        heavier = dynamics.max_safe_velocity_m_s(payload + 1.0)
        assert heavier <= lighter

    def test_overweight_payload_rejected(self):
        heavy = UavPlatform(
            name="weak",
            base_mass_g=100.0,
            max_payload_g=500.0,
            max_thrust_n=1.0,
            battery_capacity_j=1000.0,
            rotor_profile_power_w=0.0,
            rotor_induced_coeff_w_per_kg15=100.0,
            compute_power_nominal_w=0.1,
            max_flight_time_min=5.0,
            mission_distance_m=10.0,
        )
        with pytest.raises(ConfigurationError):
            UavDynamics(heavy).acceleration_m_s2(50.0)

    def test_max_payload_keeps_positive_acceleration(self):
        dynamics = UavDynamics(CRAZYFLIE)
        limit = dynamics.max_payload_g()
        assert limit <= CRAZYFLIE.max_payload_g
        assert dynamics.acceleration_m_s2(max(0.0, limit - 0.5)) > 0.0

    def test_gravity_constant(self):
        assert GRAVITY_M_S2 == pytest.approx(9.81)


class TestFlightModel:
    def test_crazyflie_nominal_mission_matches_table_ii(self):
        """At 1 V (4.05 g heatsink) Table II reports 6.81 s and 53.19 J per mission."""
        model = FlightModel(CRAZYFLIE)
        outcome = model.fly_mission(payload_g=4.05, compute_power_w=0.507)
        assert outcome.flight_time_s == pytest.approx(6.81, rel=0.02)
        assert outcome.flight_energy_j == pytest.approx(53.19, rel=0.02)

    def test_lower_payload_saves_time_and_energy(self):
        model = FlightModel(CRAZYFLIE)
        heavy = model.fly_mission(payload_g=4.05, compute_power_w=0.507)
        light = model.fly_mission(payload_g=1.18, compute_power_w=0.148)
        assert light.flight_time_s < heavy.flight_time_s
        assert light.flight_energy_j < heavy.flight_energy_j

    def test_detour_factor_increases_with_success_drop(self):
        assert detour_factor(0.0) == pytest.approx(1.0)
        assert detour_factor(10.0) > detour_factor(1.0) > 1.0
        assert detour_factor(-5.0) == pytest.approx(1.0)

    def test_detour_matches_table_ii_worst_case(self):
        """A 38-point success drop inflates the path by ~1.65x (24.5 m vs 14.9 m)."""
        assert detour_factor(38.0) == pytest.approx(1.65, rel=0.02)

    def test_success_drop_extends_distance_and_energy(self):
        model = FlightModel(CRAZYFLIE)
        clean = model.fly_mission(4.05, 0.507)
        degraded = model.fly_mission(4.05, 0.507, success_rate_drop_pct=20.0)
        assert degraded.flight_distance_m > clean.flight_distance_m
        assert degraded.flight_energy_j > clean.flight_energy_j

    def test_compute_power_fraction_reported(self):
        outcome = FlightModel(CRAZYFLIE).fly_mission(4.05, 0.507)
        assert outcome.compute_power_fraction == pytest.approx(0.065, abs=0.005)

    def test_endurance_close_to_rated_flight_time(self):
        endurance_min = FlightModel(CRAZYFLIE).max_flight_time_s(4.05, 0.507) / 60.0
        assert 0.5 * CRAZYFLIE.max_flight_time_min < endurance_min < 1.5 * CRAZYFLIE.max_flight_time_min

    def test_invalid_inputs(self):
        model = FlightModel(CRAZYFLIE)
        with pytest.raises(ConfigurationError):
            model.fly_mission(4.0, -1.0)
        with pytest.raises(ConfigurationError):
            model.fly_mission(4.0, 0.5, nominal_distance_m=0.0)
        with pytest.raises(ConfigurationError):
            FlightModel(CRAZYFLIE, velocity_efficiency=0.0)


class TestBattery:
    def test_missions_per_charge_matches_table_ii(self):
        """N = SR * E_batt / E_flight: 0.884 * 3330 / 53.19 ≈ 55.35 missions."""
        assert missions_per_charge(0.884, 3330.0, 53.19) == pytest.approx(55.35, rel=0.01)

    def test_missions_increase_with_lower_energy(self):
        assert missions_per_charge(0.884, 3330.0, 44.88) > missions_per_charge(0.884, 3330.0, 53.19)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            missions_per_charge(1.5, 3330.0, 50.0)
        with pytest.raises(ConfigurationError):
            missions_per_charge(0.5, 0.0, 50.0)
        with pytest.raises(ConfigurationError):
            missions_per_charge(0.5, 3330.0, 0.0)

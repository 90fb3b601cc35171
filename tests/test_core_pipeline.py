"""Tests for the calibrated robustness model, metrics, pipeline and scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calibrated import AutonomyScheme, CalibratedRobustnessModel
from repro.core.metrics import OperatingPoint, percent_change
from repro.core.pipeline import MissionPipeline, PipelineConfig
from repro.core.scenarios import BIT_ERROR_LEVELS_PERCENT, iterate_scenarios, scenario_count
from repro.envs.obstacles import ObstacleDensity
from repro.errors import ConfigurationError
from repro.uav.platform import CRAZYFLIE, DJI_TELLO


class TestCalibratedRobustnessModel:
    @pytest.fixture
    def model(self) -> CalibratedRobustnessModel:
        return CalibratedRobustnessModel()

    def test_reproduces_table_i_points(self, model):
        assert model.success_rate(0.01, AutonomyScheme.CLASSICAL) == pytest.approx(0.84, abs=0.005)
        assert model.success_rate(1.0, AutonomyScheme.CLASSICAL) == pytest.approx(0.33, abs=0.005)
        assert model.success_rate(0.5, AutonomyScheme.BERRY) == pytest.approx(0.792, abs=0.005)
        assert model.success_rate(1.0, AutonomyScheme.BERRY) == pytest.approx(0.748, abs=0.005)

    def test_error_free_rates(self, model):
        assert model.error_free_success_rate(AutonomyScheme.CLASSICAL) == pytest.approx(0.884)
        assert model.error_free_success_rate(AutonomyScheme.BERRY) == pytest.approx(0.888)

    @given(ber=st.floats(min_value=1e-4, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_berry_dominates_classical(self, ber):
        model = CalibratedRobustnessModel()
        assert model.success_rate(ber, AutonomyScheme.BERRY) >= model.success_rate(
            ber, AutonomyScheme.CLASSICAL
        )

    @given(ber=st.floats(min_value=1e-5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_success_rate_decreases_with_ber(self, ber):
        model = CalibratedRobustnessModel()
        for scheme in AutonomyScheme:
            assert model.success_rate(ber, scheme) >= model.success_rate(ber * 2.0, scheme) - 1e-9

    def test_environment_offsets(self, model):
        sparse = model.for_density(ObstacleDensity.SPARSE)
        dense = model.for_density(ObstacleDensity.DENSE)
        for scheme in AutonomyScheme:
            assert sparse.success_rate(0.1, scheme) > model.success_rate(0.1, scheme)
            assert dense.success_rate(0.1, scheme) < model.success_rate(0.1, scheme)

    def test_success_rate_drop(self, model):
        assert model.success_rate_drop_pct(0.0, AutonomyScheme.BERRY) == pytest.approx(0.0)
        assert model.success_rate_drop_pct(1.0, AutonomyScheme.CLASSICAL) > 50.0

    def test_curve_helper(self, model):
        curve = model.curve([0.01, 0.1, 1.0], AutonomyScheme.BERRY)
        assert len(curve) == 3
        assert all(0.0 <= sr <= 1.0 for _, sr in curve)

    def test_negative_ber_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.success_rate(-0.1, AutonomyScheme.BERRY)

    def test_curve_validation(self):
        with pytest.raises(ConfigurationError):
            CalibratedRobustnessModel(classical_curve=((0.1, 80.0), (1.0, 50.0)))  # missing p=0


class TestMetrics:
    def test_percent_change_sign_convention(self):
        assert percent_change(44.88, 53.19) == pytest.approx(-15.62, abs=0.05)
        assert percent_change(65.59, 55.35) == pytest.approx(18.50, abs=0.1)
        with pytest.raises(ConfigurationError):
            percent_change(1.0, 0.0)

    def test_operating_point_derived_properties(self):
        point = OperatingPoint(
            normalized_voltage=0.77, volts=0.539, ber_percent=0.0247,
            processing_energy_savings=3.43, success_rate=0.884,
            heatsink_mass_g=1.18, acceleration_m_s2=7.5, max_velocity_m_s=5.4,
            compute_power_w=0.15, rotor_power_w=6.9,
            flight_distance_m=14.9, flight_time_s=6.35, flight_energy_j=44.9,
            num_missions=65.6,
        )
        assert point.success_rate_percent == pytest.approx(88.4)
        assert point.total_power_w == pytest.approx(7.05)
        assert 0.0 < point.compute_power_fraction < 0.05
        row = point.as_table_row()
        assert row["voltage_vmin"] == 0.77

    def test_with_baseline_annotates_changes(self):
        kwargs = dict(
            normalized_voltage=1.43, volts=1.0, ber_percent=0.0,
            processing_energy_savings=1.0, success_rate=0.884,
            heatsink_mass_g=4.05, acceleration_m_s2=6.0, max_velocity_m_s=4.8,
            compute_power_w=0.5, rotor_power_w=7.3,
            flight_distance_m=14.9, flight_time_s=6.8, flight_energy_j=53.2,
            num_missions=55.3,
        )
        baseline = OperatingPoint(**kwargs)
        other = OperatingPoint(**{**kwargs, "flight_energy_j": 44.9, "num_missions": 65.6})
        annotated = other.with_baseline(baseline)
        assert annotated.flight_energy_change_pct == pytest.approx(-15.6, abs=0.1)
        assert annotated.missions_change_pct == pytest.approx(18.6, abs=0.2)


class TestMissionPipeline:
    @pytest.fixture
    def pipeline(self) -> MissionPipeline:
        return MissionPipeline()

    def test_nominal_operating_point_matches_table_ii_baseline(self, pipeline):
        provider = pipeline.provider_for_scheme(AutonomyScheme.BERRY)
        baseline = pipeline.nominal_operating_point(provider)
        assert baseline.flight_time_s == pytest.approx(6.81, rel=0.02)
        assert baseline.flight_energy_j == pytest.approx(53.19, rel=0.02)
        assert baseline.num_missions == pytest.approx(55.35, rel=0.03)

    def test_headline_operating_point(self, pipeline):
        """At 0.77 Vmin BERRY keeps ~88 % success with double-digit flight-energy savings."""
        points = pipeline.voltage_sweep([0.77], scheme=AutonomyScheme.BERRY)
        point = points[-1]
        assert point.processing_energy_savings == pytest.approx(3.43, rel=0.02)
        assert point.success_rate_percent > 85.0
        assert point.flight_energy_change_pct < -10.0
        assert point.missions_change_pct > 10.0

    def test_voltage_sweep_includes_baseline_first(self, pipeline):
        points = pipeline.voltage_sweep([0.8, 0.77])
        assert points[0].ber_percent == 0.0
        assert points[0].flight_energy_change_pct is None
        assert len(points) == 3

    def test_flight_energy_crossover_at_very_low_voltage(self, pipeline):
        """Below ~0.7 Vmin the robustness collapse erases the flight-energy savings (Table II)."""
        points = pipeline.voltage_sweep([0.77, 0.64], scheme=AutonomyScheme.BERRY)
        assert points[1].flight_energy_change_pct < 0.0
        assert points[2].flight_energy_change_pct > 0.0

    def test_classical_scheme_loses_missions_much_earlier(self, pipeline):
        berry = pipeline.voltage_sweep([0.77], scheme=AutonomyScheme.BERRY)[-1]
        classical = pipeline.voltage_sweep([0.77], scheme=AutonomyScheme.CLASSICAL)[-1]
        assert classical.success_rate < berry.success_rate
        assert classical.num_missions < berry.num_missions

    def test_best_operating_point_in_expected_range(self, pipeline):
        from repro.experiments.table2 import TABLE_II_VOLTAGES

        best = pipeline.best_operating_point(TABLE_II_VOLTAGES, scheme=AutonomyScheme.BERRY)
        assert 0.76 <= best.normalized_voltage <= 0.81
        assert best.flight_energy_change_pct < -13.0

    def test_best_operating_point_budget_violation(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.best_operating_point([0.64], scheme=AutonomyScheme.CLASSICAL)

    def test_best_operating_point_minimises_flight_energy_among_eligible(self, pipeline):
        """With a constant success provider every candidate is eligible, so the
        winner must be the flight-energy minimiser of the full sweep."""
        provider = lambda ber_percent: 0.9
        candidates = [0.86, 0.80, 0.77]
        best = pipeline.best_operating_point(candidates, success_provider=provider)
        baseline = pipeline.nominal_operating_point(provider)
        energies = {
            v: pipeline.evaluate(v, provider).with_baseline(baseline).flight_energy_j
            for v in candidates
        }
        assert best.flight_energy_j == min(energies.values())
        assert best.normalized_voltage == min(energies, key=energies.get)
        assert best.flight_energy_change_pct is not None

    def test_best_operating_point_excludes_over_budget_candidates(self, pipeline):
        """Candidates violating the drop budget are skipped even when their
        flight energy is lower (the paper's underlined-point rule)."""
        from repro.experiments.table2 import TABLE_II_VOLTAGES

        generous = pipeline.best_operating_point(
            TABLE_II_VOLTAGES, scheme=AutonomyScheme.BERRY, max_success_drop_pct=50.0
        )
        strict = pipeline.best_operating_point(
            TABLE_II_VOLTAGES, scheme=AutonomyScheme.BERRY, max_success_drop_pct=0.5
        )
        provider = pipeline.provider_for_scheme(AutonomyScheme.BERRY)
        baseline = pipeline.nominal_operating_point(provider)
        assert strict.success_rate >= baseline.success_rate - 0.5 / 100.0
        assert generous.flight_energy_j <= strict.flight_energy_j

    def test_best_operating_point_zero_budget_with_lossless_provider(self, pipeline):
        """A provider with no error-induced drop satisfies even a zero budget."""
        best = pipeline.best_operating_point(
            [0.86, 0.80], success_provider=lambda ber: 0.88, max_success_drop_pct=0.0
        )
        assert best.normalized_voltage in (0.86, 0.80)

    def test_best_operating_point_custom_provider_budget_violation(self, pipeline):
        """The error path also triggers for measured (non-calibrated) curves."""
        collapsing = lambda ber_percent: 0.9 if ber_percent == 0.0 else 0.1
        with pytest.raises(ConfigurationError, match="success-rate drop budget"):
            pipeline.best_operating_point([0.77, 0.74], success_provider=collapsing)

    def test_success_provider_must_return_fraction(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.evaluate(0.8, lambda ber: 50.0)

    def test_for_platform_changes_mission_scale(self, pipeline):
        tello = pipeline.for_platform(DJI_TELLO)
        provider = tello.provider_for_scheme(AutonomyScheme.BERRY)
        baseline = tello.nominal_operating_point(provider)
        assert baseline.flight_energy_j > 200.0
        assert tello.config.platform is DJI_TELLO

    def test_tello_savings_smaller_than_crazyflie(self, pipeline):
        """Fig. 7: a smaller compute-power share means smaller (but positive) flight savings."""
        crazyflie_point = pipeline.voltage_sweep([0.77])[-1]
        tello_point = pipeline.for_platform(DJI_TELLO).voltage_sweep([0.77])[-1]
        assert tello_point.flight_energy_change_pct < 0.0
        assert abs(tello_point.flight_energy_change_pct) < abs(crazyflie_point.flight_energy_change_pct)

    def test_c5f4_multiplier_increases_savings_on_tello(self, pipeline):
        c3f2_point = pipeline.for_platform(DJI_TELLO, 1.0).voltage_sweep([0.77])[-1]
        c5f4_point = pipeline.for_platform(DJI_TELLO, 1.47).voltage_sweep([0.77])[-1]
        assert c5f4_point.flight_energy_change_pct < c3f2_point.flight_energy_change_pct

    def test_for_density_changes_robustness_and_distance(self, pipeline):
        dense = pipeline.for_density(ObstacleDensity.DENSE)
        sparse = pipeline.for_density(ObstacleDensity.SPARSE)
        provider_dense = dense.provider_for_scheme(AutonomyScheme.BERRY)
        provider_sparse = sparse.provider_for_scheme(AutonomyScheme.BERRY)
        assert dense.nominal_operating_point(provider_dense).flight_energy_j > sparse.nominal_operating_point(
            provider_sparse
        ).flight_energy_j

    def test_compute_power_scales_quadratically(self, pipeline):
        nominal = pipeline.compute_power_w(pipeline.nominal_normalized_voltage)
        low = pipeline.compute_power_w(0.77)
        assert nominal / low == pytest.approx(3.43, rel=0.02)

    def test_invalid_voltage(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.evaluate(0.0, lambda ber: 0.9)

    def test_invalid_compute_multiplier(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(compute_power_multiplier=0.0)


class TestScenarios:
    def test_scenario_count_is_72(self):
        assert scenario_count() == 72
        assert len(list(iterate_scenarios())) == 72

    def test_scenarios_cover_all_axes(self):
        scenarios = list(iterate_scenarios())
        assert {s.density for s in scenarios} == set(ObstacleDensity)
        assert {s.platform.name for s in scenarios} == {CRAZYFLIE.name, DJI_TELLO.name}
        assert {s.policy_name for s in scenarios} == {"C3F2", "C5F4"}
        assert {s.ber_percent for s in scenarios} == set(BIT_ERROR_LEVELS_PERCENT)

    def test_scenario_names_unique(self):
        names = [s.name for s in iterate_scenarios()]
        assert len(set(names)) == 72

    def test_scenario_pipeline(self):
        scenario = list(iterate_scenarios())[5]
        pipeline = scenario.pipeline()
        assert pipeline.config.platform is scenario.platform

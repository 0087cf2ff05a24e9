"""Tests for the core API: spec, planner, evaluator."""

from __future__ import annotations

import pytest

from repro import REFERENCE_DDC
from repro.core import (
    DDCEvaluator,
    DDCSpec,
    enumerate_plans,
)
from repro.energy import ScenarioAnalysis, duty_grid
from repro.errors import ConfigurationError


class TestDDCSpec:
    def test_reference_total(self):
        assert DDCSpec().total_decimation == 2688

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            DDCSpec(input_rate_hz=1e6, output_rate_hz=300e3)

    def test_carrier_validation(self):
        with pytest.raises(ConfigurationError):
            DDCSpec(carrier_hz=40e6)

    def test_bandwidth_validation(self):
        with pytest.raises(ConfigurationError):
            DDCSpec(bandwidth_hz=100e3)  # > output rate

    def test_to_config_reference_plan(self):
        cfg = DDCSpec().to_config(16, 21, 8)
        assert cfg.total_decimation == 2688
        assert cfg.cic2_order == 2

    def test_to_config_wrong_product(self):
        with pytest.raises(ConfigurationError):
            DDCSpec().to_config(16, 21, 4)

    def test_to_config_no_cic2(self):
        cfg = DDCSpec().to_config(1, 336, 8)
        assert cfg.cic2_order == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field", ["input_rate_hz", "output_rate_hz", "carrier_hz", "bandwidth_hz"]
    )
    def test_non_finite_refused_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match="must be finite") as exc:
            DDCSpec(**{field: value})
        assert f"DDCSpec.{field}" in str(exc.value)


class TestPlanner:
    def test_reference_plan_is_valid(self):
        plans = enumerate_plans(DDCSpec())
        assert (16, 21, 8) in [p.as_tuple() for p in plans]

    def test_plans_sorted_by_cost(self):
        plans = enumerate_plans(DDCSpec())
        costs = [p.cost for p in plans]
        assert costs == sorted(costs)

    def test_all_plans_multiply_out(self):
        for p in enumerate_plans(DDCSpec()):
            assert p.total == 2688

    def test_rejection_floor_respected(self):
        for p in enumerate_plans(DDCSpec(), min_rejection_db=60.0):
            assert p.alias_rejection_db >= 60.0

    def test_best_plan(self):
        best = enumerate_plans(DDCSpec())[0]
        assert best.total == 2688
        assert best.cost > 0

    def test_impossible_spec_raises(self):
        # Prime total decimation with an out-of-range FIR factor.
        spec = DDCSpec(input_rate_hz=24_000.0 * 2687, output_rate_hz=24_000.0)
        assert enumerate_plans(spec) == []  # 2687 is prime: no valid split

    def test_higher_rejection_never_cheaper(self):
        loose = enumerate_plans(DDCSpec(), min_rejection_db=40.0)[0]
        tight = enumerate_plans(DDCSpec(), min_rejection_db=70.0)[0]
        assert tight.cost >= loose.cost * 0.999


class TestEvaluator:
    @pytest.fixture(scope="class")
    def result(self):
        return DDCEvaluator().evaluate(REFERENCE_DDC)

    def test_six_rows(self, result):
        # 5 architectures, Cyclone counted twice (I and II) = 6 rows.
        assert len(result.reports) == 6

    def test_static_winner_is_asic(self, result):
        """Section 7.1: the customised low-power DDC wins the static case."""
        assert result.static_winner == "Customised Low Power DDC"

    def test_reconfigurable_winner_is_cyclone2(self, result):
        """Section 7.2: the Cyclone II wins the reconfigurable case."""
        assert result.reconfigurable_winner == "Altera Cyclone II"

    def test_arm_not_feasible(self, result):
        arm = next(r for r in result.reports if r.architecture == "ARM922T")
        assert not arm.feasible

    def test_montium_scaled_power(self, result):
        row = next(r for r in result.comparison.rows
                   if r.architecture == "Montium TP")
        assert row.power_scaled_mw == pytest.approx(38.7, abs=0.1)

    def test_scaled_ranking_matches_paper(self, result):
        """At 0.13 um: low-power ASIC < GC4016 < Montium < Cyclone II <
        Cyclone I < ARM (Table 7 + conclusion)."""
        scaled = {r.architecture: r.power_scaled_mw
                  for r in result.comparison.rows}
        assert (
            scaled["Customised Low Power DDC"]
            < scaled["TI GC4016"]
            < scaled["Montium TP"]
            < scaled["Altera Cyclone II"]
            < scaled["Altera Cyclone I"]
            < scaled["ARM922T"]
        )

    def test_render(self, result):
        text = result.render()
        assert "Montium" in text and "GC4016" in text

    def test_scenario_analysis_regions(self):
        ev = DDCEvaluator()
        ev.evaluate(REFERENCE_DDC)
        analysis = ScenarioAnalysis(ev.scenario_candidates(REFERENCE_DDC))
        regions = analysis.evaluate_batch(duty_grid(101)).winning_regions()
        # High duty cycle -> the ASIC; low duty cycle -> a reconfigurable.
        assert regions[-1][2] == "Customised Low Power DDC"
        assert regions[0][2] != "Customised Low Power DDC"

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigurationError):
            DDCEvaluator([])


class TestPlannerCostOnlyPath:
    """The cost pass is struct-of-arrays: no reports, identical costs."""

    def test_costs_equal_the_report_power(self):
        from repro.archs.asic.lowpower import LowPowerDDCModel

        spec = DDCSpec()
        model = LowPowerDDCModel()
        for plan in enumerate_plans(spec)[:5]:
            config = spec.to_config(
                plan.cic2, plan.cic5, plan.fir, fir_taps=125
            )
            assert plan.cost == model.implement(config).power_w

    def test_no_reports_materialised_on_the_cost_pass(self, monkeypatch):
        from repro.archs.asic import lowpower

        def boom(*args, **kwargs):
            raise AssertionError(
                "the planner cost pass must not build reports"
            )

        monkeypatch.setattr(
            lowpower.LowPowerDDCModel, "implement_batch", boom
        )
        monkeypatch.setattr(lowpower.LowPowerDDCModel, "_report", boom)
        plans = enumerate_plans(DDCSpec())
        assert (16, 21, 8) in [p.as_tuple() for p in plans]

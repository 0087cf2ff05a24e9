"""Tests for technology scaling, comparison (Table 7) and scenarios (Sec. 7)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.energy import (
    TECH_130NM,
    TECH_180NM,
    TECH_250NM,
    TECH_90NM,
    ArchitectureComparison,
    ScenarioAnalysis,
    TechnologyNode,
    duty_cycle_crossover,
    duty_cycle_crossover_batch,
    duty_grid,
    scale_power,
    scaling_factor,
)
from repro.energy.scenarios import ScenarioCandidate
from repro.errors import ConfigurationError


class TestTechnologyScaling:
    def test_paper_gc4016_scaling(self):
        """115 mW at 0.25 um / 2.5 V -> 13.8 mW at 0.13 um / 1.2 V."""
        got = scale_power(0.115, TECH_250NM, TECH_130NM)
        assert got * 1e3 == pytest.approx(13.8, abs=0.05)

    def test_paper_lowpower_scaling(self):
        """27 mW at 0.18 um / 1.8 V -> 8.7 mW."""
        got = scale_power(0.027, TECH_180NM, TECH_130NM)
        assert got * 1e3 == pytest.approx(8.7, abs=0.05)

    def test_paper_cyclone2_upscaling(self):
        """31.11 mW dynamic at 0.09 um -> 44.94 mW at 0.13 um."""
        got = scale_power(0.03111, TECH_90NM, TECH_130NM)
        assert got * 1e3 == pytest.approx(44.94, abs=0.1)

    def test_identity_scaling(self):
        assert scaling_factor(TECH_130NM, TECH_130NM) == pytest.approx(1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_power(-1.0, TECH_250NM, TECH_130NM)

    def test_invalid_node(self):
        with pytest.raises(ConfigurationError):
            TechnologyNode(-0.13, 1.2)
        with pytest.raises(ConfigurationError):
            TechnologyNode(0.13, 0.0)

    @given(st.floats(0.01, 10.0))
    def test_scaling_roundtrip(self, power):
        there = scale_power(power, TECH_250NM, TECH_130NM)
        back = scale_power(there, TECH_130NM, TECH_250NM)
        assert back == pytest.approx(power, rel=1e-9)


class _FakeReport:
    """Duck-typed ImplementationReport for comparison tests."""

    def __init__(self, name, tech, power_w, clock_hz=64.512e6,
                 area=None, feasible=True):
        self.architecture = name
        self.technology = tech
        self.power_w = power_w
        self.clock_hz = clock_hz
        self.area_mm2 = area
        self.feasible = feasible
        self.notes = ""


class TestComparison:
    def _build(self):
        cmp = ArchitectureComparison()
        cmp.add(_FakeReport("asic", TECH_180NM, 0.027))
        cmp.add(_FakeReport("fpga", TECH_130NM, 0.1414))
        cmp.add(_FakeReport("gpp", TECH_130NM, 2.4, feasible=False))
        return cmp

    def test_ranking_sorted(self):
        ranking = self._build().ranking()
        powers = [r.power_scaled_w for r in ranking]
        assert powers == sorted(powers)

    def test_scaled_override(self):
        cmp = ArchitectureComparison()
        row = cmp.add(_FakeReport("x", TECH_90NM, 0.058),
                      scaled_power_w=0.04494)
        assert row.power_scaled_mw == pytest.approx(44.94)

    def test_render_contains_rows(self):
        text = self._build().render()
        assert "asic" in text and "fpga" in text and "NO" in text


class TestScenarios:
    def _candidates(self):
        return [
            ScenarioCandidate("asic", 0.027, standby_power_w=0.002,
                              reusable=False),
            ScenarioCandidate("fpga", 0.058, reusable=True),
        ]

    def test_static_scenario_asic_wins(self):
        """Section 7.1: full-time DDC -> ASIC."""
        analysis = ScenarioAnalysis(self._candidates())
        assert analysis.evaluate(1.0).winner == "asic"

    def test_low_duty_cycle_fpga_wins(self):
        """Section 7.2: occasional DDC -> reconfigurable fabric."""
        analysis = ScenarioAnalysis(self._candidates())
        assert analysis.evaluate(0.01).winner == "fpga"

    def test_crossover_exists(self):
        a, b = self._candidates()
        d = duty_cycle_crossover(a, b)
        assert d is not None and 0.0 < d < 0.2
        # at the crossover the costs match
        assert a.effective_power_w(d) == pytest.approx(
            b.effective_power_w(d), rel=1e-9
        )

    def test_crossover_parallel_lines(self):
        a = ScenarioCandidate("a", 0.1, reusable=True)
        b = ScenarioCandidate("b", 0.1, reusable=True)
        assert duty_cycle_crossover(a, b) is None

    def test_winning_regions_cover_unit_interval(self):
        analysis = ScenarioAnalysis(self._candidates())
        regions = analysis.evaluate_batch(duty_grid(1001)).winning_regions()
        assert regions[0][0] == 0.0
        assert regions[-1][1] == 1.0
        for (lo1, hi1, _), (lo2, _, _) in zip(regions, regions[1:]):
            assert hi1 == lo2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioAnalysis([
                ScenarioCandidate("x", 1.0), ScenarioCandidate("x", 2.0)
            ])

    def test_duty_cycle_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioCandidate("x", 1.0).effective_power_w(1.5)

    def test_crossover_outside_unit_interval_is_none(self):
        """Lines that cross only at d < 0 or d > 1 report no crossover."""
        # Crossing below 0: b is cheaper at every admissible duty cycle.
        a = ScenarioCandidate("a", 1.0, standby_power_w=0.50)
        b = ScenarioCandidate("b", 1.2, standby_power_w=0.55)
        assert duty_cycle_crossover(a, b) is None
        # Crossing above 1: the idle gap never closes within [0, 1].
        c = ScenarioCandidate("c", 1.0, standby_power_w=0.10)
        e = ScenarioCandidate("e", 1.1, standby_power_w=0.30)
        assert duty_cycle_crossover(c, e) is None
        # Sanity: both pairs really do cross, just outside the interval.
        for x, y in ((a, b), (c, e)):
            denom = (x.active_power_w - x.idle_power_w) - (
                y.active_power_w - y.idle_power_w
            )
            d = (y.idle_power_w - x.idle_power_w) / denom
            assert not 0.0 <= d <= 1.0

    def test_all_reusable_candidate_set(self):
        """All-reusable sets: zero idle cost, ties resolve to first-in."""
        cands = [
            ScenarioCandidate("m", 0.0387, standby_power_w=0.01,
                              reusable=True),
            ScenarioCandidate("f", 0.0581, standby_power_w=0.02,
                              reusable=True),
            ScenarioCandidate("g", 2.435, standby_power_w=0.1,
                              reusable=True),
        ]
        analysis = ScenarioAnalysis(cands)
        # At d=0 every reusable fabric costs exactly 0.0 — standby power is
        # displaced, not charged — and the tie goes to the first candidate.
        at_zero = analysis.evaluate(0.0)
        assert set(at_zero.powers_w.values()) == {0.0}
        assert at_zero.winner == "m"
        # The cheapest active fabric wins at every d > 0, so there is a
        # single winning region and no crossover strictly inside (0, 1].
        grid = analysis.evaluate_batch(duty_grid(101))
        assert grid.winning_regions() == [(0.0, 1.0, "m")]
        matrix = duty_cycle_crossover_batch(cands)
        off_diag = matrix[~np.eye(len(cands), dtype=bool)]
        # All pairwise "crossovers" collapse to the shared zero-cost point.
        assert all(math.isnan(v) or v == 0.0 for v in off_diag)
        assert duty_cycle_crossover(cands[0], cands[1]) == 0.0


_candidates_strategy = st.lists(
    st.builds(
        ScenarioCandidate,
        name=st.uuids().map(str),
        active_power_w=st.floats(1e-6, 10.0),
        standby_power_w=st.floats(0.0, 1.0),
        reusable=st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


class TestBatchedScenarioPaths:
    """The batched grid APIs are bit-identical to the scalar oracles."""

    @given(
        _candidates_strategy,
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
    )
    def test_cost_batch_equals_scalar_cost(self, cands, duties):
        analysis = ScenarioAnalysis(cands)
        grid = analysis.cost_batch(duties)
        assert grid.shape == (len(duties), len(cands))
        for k, d in enumerate(duties):
            for j, c in enumerate(cands):
                # Bitwise equality, not approx: same IEEE-754 op order.
                assert grid[k, j] == c.effective_power_w(d)

    @given(_candidates_strategy, st.integers(2, 64))
    def test_evaluate_batch_equals_scalar_sweep(self, cands, steps):
        analysis = ScenarioAnalysis(cands)
        grid = analysis.evaluate_batch(duty_grid(steps))
        scalar = [
            analysis.evaluate(i / (steps - 1)) for i in range(steps)
        ]
        assert grid.duty_cycles.tolist() == [r.duty_cycle for r in scalar]
        assert grid.winners() == [r.winner for r in scalar]
        assert [
            dict(zip(grid.names, row)) for row in grid.powers_w.tolist()
        ] == [r.powers_w for r in scalar]

    @given(_candidates_strategy)
    def test_crossover_batch_equals_scalar_pairwise(self, cands):
        matrix = duty_cycle_crossover_batch(cands)
        for i, a in enumerate(cands):
            for j, b in enumerate(cands):
                scalar = duty_cycle_crossover(a, b)
                if scalar is None:
                    assert math.isnan(matrix[i, j])
                else:
                    assert matrix[i, j] == scalar

    def test_cost_batch_validation(self):
        analysis = ScenarioAnalysis([ScenarioCandidate("x", 1.0)])
        with pytest.raises(ConfigurationError):
            analysis.cost_batch([0.5, 1.5])
        with pytest.raises(ConfigurationError):
            analysis.cost_batch([])
        with pytest.raises(ConfigurationError):
            analysis.cost_batch([[0.1], [0.2]])

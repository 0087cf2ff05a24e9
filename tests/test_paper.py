"""Tests for the paper-regeneration module (tables and figures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import REFERENCE_DDC
from repro.dsp.signals import tone
from repro.paper import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure8,
    figure9,
    figure_duty_cycle,
    section7_scenarios,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)

#: Published values the regenerated tables are checked against.
TABLE4_LE = {"EP1C3T100C6": 1656, "EP2C5T144C6": 906}
TABLE5_TOTAL_MW = {0.05: 120.9, 0.10: 141.4, 0.50: 305.3, 0.875: 458.9}
TABLE7_SCALED_MW = {
    "TI GC4016": 13.8,
    "Customised Low Power DDC": 8.7,
    "Montium TP": 38.7,
}


class TestTables:
    def test_table1_matches_published_exactly(self):
        t = table1()
        assert t.rows == t.published

    def test_table2_has_five_parameters(self):
        assert len(table2().rows) == 5

    def test_table4_two_devices(self):
        t = table4()
        assert [r[0] for r in t.rows] == ["EP1C3T100C6", "EP2C5T144C6"]

    def test_table5_static_row_constant(self):
        t = table5()
        statics = set(t.rows[2][1:])
        assert statics == {"48.0 mW"}

    def test_table6_five_parts(self):
        t = table6()
        assert len(t.rows) == 5

    def test_table7_six_solutions(self):
        t = table7()
        assert len(t.rows) == 6

    def test_table1_stage_order_and_decimations(self):
        t = table1()
        assert [r[0] for r in t.rows] == [p[0] for p in t.published]
        assert t.rows[1][2] == 16 and t.rows[2][2] == 21

    def test_table2_gc4016_parameters(self):
        t = table2()
        assert t.rows[0][1] == "Up to 100 MSPS"
        assert "115mW" in t.rows[-1][1]

    def test_table3_nco_and_cic2_dominate(self):
        t = table3(n_samples=2688)
        pct = {row[0]: float(row[2].rstrip(" %")) for row in t.rows}
        assert pct["NCO"] > pct["CIC2-integrating"] > pct["CIC5-integrating"]
        assert pct["NCO"] + pct["CIC2-integrating"] > 80
        assert pct["CIC5-cascading"] < 0.5
        assert pct["FIR125-poly-phase"] < 0.5

    def test_table4_logic_elements_near_published(self):
        for row in table4().rows:
            got_le = int(row[1].split("/")[0].strip().replace(",", ""))
            want = TABLE4_LE[row[0]]
            assert abs(got_le - want) / want < 0.10

    def test_table5_totals_match_published(self):
        totals = [float(v.split()[0]) for v in table5().rows[0][1:]]
        for got, pub in zip(totals, TABLE5_TOTAL_MW.values(), strict=True):
            assert got == pytest.approx(pub, rel=0.02)

    def test_table6_alu_utilisation(self):
        rows = {r[0]: (r[1], float(r[2].rstrip("%"))) for r in table6().rows}
        assert rows["NCO + CIC2 integrating"] == (3, 100.0)
        assert rows["CIC5 integrating"][1] == pytest.approx(25.0)
        assert rows["CIC2 cascading"][1] == pytest.approx(6.3, abs=0.2)

    def test_table7_scaled_power_and_ranking(self):
        scaled = {r[0]: float(r[4].split()[0]) for r in table7().rows}
        for arch, want in TABLE7_SCALED_MW.items():
            assert scaled[arch] == pytest.approx(want, rel=0.05)
        # Ranking at 0.13 um: low-power ASIC < GC4016 < Montium < Cyclone II.
        assert (
            scaled["Customised Low Power DDC"]
            < scaled["TI GC4016"]
            < scaled["Montium TP"]
            < scaled["Altera Cyclone II"]
        )

    def test_render_smoke(self):
        for t in (table1(), table2(), table4(), table5(), table6()):
            text = t.render()
            assert t.name.split(":")[0] in text
            assert len(text.splitlines()) >= 3


class TestFigures:
    def test_figure1_payload_is_reference_config(self):
        fig = figure1()
        assert fig.payload.total_decimation == 2688

    def test_figure2_payload_is_cic2(self):
        fig = figure2()
        assert fig.payload.order == 2 and fig.payload.decimation == 16

    def test_figure3_payload_decimates_by_5(self):
        fig = figure3()
        assert fig.payload.decimation == 5

    def test_figure4_payload_is_gsm_example(self):
        fig = figure4()
        assert fig.payload.total_decimation == 256

    def test_figure8_op_is_mac(self):
        from repro.archs.montium.alu import Level2Fn

        assert figure8().payload.level2 is Level2Fn.MAC

    def test_figure_duty_cycle_payload_is_batched_grid(self):
        fig = figure_duty_cycle(steps=41)
        grid = fig.payload
        assert grid.powers_w.shape == (41, len(grid.names))
        # The map must agree with the Section 7 conclusion at d=1.0.
        assert grid.winners()[-1] == "Customised Low Power DDC"
        assert "Customised Low Power DDC" in fig.text

    def test_figure1_chain_runs(self):
        """Fig. 1: the full DDC chain the figure depicts runs."""
        from repro import DDC

        fig = figure1()
        x = tone(2688 * 8, 10.005e6, REFERENCE_DDC.input_rate_hz, 0.5)
        assert "NCO" in fig.text
        assert len(DDC(fig.payload).process(x).baseband) == 8

    def test_figure2_payload_filters_a_block(self):
        x = np.random.default_rng(2).normal(size=16 * 64)
        assert len(figure2().payload.process(x)) == 64

    def test_figure3_unit_dc_polyphase(self):
        fir = figure3().payload
        fir.reset()
        y = fir.process(np.ones(100))
        assert len(y) == 20
        assert y[-1] == pytest.approx(1.0)  # unit-DC taps

    def test_figure4_gsm_burst(self):
        """Fig. 4: one GC4016 channel processes a GSM-band burst."""
        from repro.dsp.signals import gsm_like_burst

        channel = figure4().payload
        channel.reset()
        x = gsm_like_burst(256 * 40, 69.333e6, 10e6, seed=4)
        assert len(channel.process(x)) == 40

    def test_figure8_alu_config(self):
        """Fig. 8: the NCO+CIC2 ALU op is a MAC with a level-1 ADD."""
        from repro.archs.montium.alu import Level2Fn

        op = figure8().payload
        assert op.level2 is Level2Fn.MAC
        assert op.label == "nco_cic2_int"

    def test_figure9_schedule_structure(self):
        """Fig. 9: the first-40-cycle Gantt has the published structure."""
        lines = figure9().text.splitlines()
        alu4 = lines[4].split()[-1]
        assert alu4[0] == "2" and alu4[16] == "2"  # comb every 16 cycles
        assert set(lines[1].split()[-1]) == {"N"}  # ALU1 always busy

    def test_figure9_default_40_cycles(self):
        fig = figure9()
        header = fig.text.splitlines()[0]
        assert len(header.split()[-1]) == 40

    def test_renders(self):
        for fig in (figure1(), figure2(), figure3(), figure8(), figure9()):
            assert fig.name in fig.render()


class TestScenarios:
    def test_section7_conclusions(self):
        res = section7_scenarios()
        assert res.static_winner == "Customised Low Power DDC"
        assert res.reconfigurable_winner == "Altera Cyclone II"
        assert res.winning_regions[-1][2] == "Customised Low Power DDC"

    def test_render(self):
        text = section7_scenarios().render()
        assert "static" in text and "reconfigurable" in text

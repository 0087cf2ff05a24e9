"""Tests for the Montium TP model: ALU, tile, DDC mapping, Table 6, Fig. 9."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import REFERENCE_DDC, DDCConfig
from repro.archs.montium import (
    ALUOp,
    LocalMemory,
    MontiumModel,
    MontiumTile,
    RegisterFile,
    build_ddc_schedule,
    estimate_config_bytes,
    render_figure9,
    run_ddc_on_tile,
)
from repro.archs.montium.alu import (
    Level1Fn, Level2Fn, MontiumALU, wrap16, wrap17, wrap32,
)
from repro.archs.montium.schedule import analyze_schedule, measured_occupancy
from repro.dsp.signals import quantize_to_adc, tone
from repro.errors import ConfigurationError, SimulationError
from repro.fixedpoint import QFormat, wrap


class TestALU:
    def test_level1_add(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level1=(Level1Fn.ADD,))
        assert alu.execute(op, [3, 4]) == [7]

    def test_level1_wraps16(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level1=(Level1Fn.ADD,))
        assert alu.execute(op, [32767, 1]) == [-32768]

    def test_level1_custom_pairs(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level1=(Level1Fn.SUB,), level1_pairs=((2, 0),))
        assert alu.execute(op, [5, 0, 9]) == [4]

    def test_level2_mul_q15(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.MUL)
        # 0.5 * 0.5 in Q15 = 0.25
        out = alu.execute(op, [1 << 14, 1 << 14])
        assert out == [1 << 13]
        assert alu.mul_count == 1

    def test_level2_mac(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.MAC)
        out = alu.execute(op, [1 << 14, 1 << 14, 100])
        assert out == [(1 << 13) + 100]

    def test_level2_from_l1(self):
        alu = MontiumALU(0)
        op = ALUOp(
            "t", level1=(Level1Fn.ADD,), level2=Level2Fn.SUB,
            level2_from_l1=True,
        )
        # l1: a+b = 7; l2: 7 - b = 3
        assert alu.execute(op, [3, 4]) == [7, 3]

    def test_butterfly(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.BUTTERFLY)
        assert alu.execute(op, [10, 3]) == [13, 7]

    def test_cic2_comb_compound(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.CIC2_COMB, post_shift=0)
        # x=10, d0=3, d1=2 -> [10, 7, 5]
        assert alu.execute(op, [10, 3, 2]) == [10, 7, 5]

    def test_cic_int2_chains(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.CIC_INT2)
        # x=5, s0=10, s1=100 -> s0'=15, s1'=115
        assert alu.execute(op, [5, 10, 100]) == [15, 115]

    def test_cic_int_32bit(self):
        alu = MontiumALU(0)
        op = ALUOp("t", level2=Level2Fn.CIC_INT1)
        big = 2_000_000_000
        out = alu.execute(op, [big, big])[0]
        assert out == wrap32_check(big + big)

    def test_invalid_index(self):
        with pytest.raises(ConfigurationError):
            MontiumALU(5)


def wrap32_check(v: int) -> int:
    v &= (1 << 32) - 1
    return v - (1 << 32) if v >= 1 << 31 else v


class TestMemories:
    def test_memory_roundtrip(self):
        m = LocalMemory("m", 16)
        m.write(123, 5)
        assert m.read(5) == 123

    def test_memory_wraps16(self):
        m = LocalMemory("m", 4)
        m.write(70000, 0)
        assert m.read(0) == wrap16(70000)

    def test_memory_agu(self):
        m = LocalMemory("m", 4)
        for v in range(4):
            m.write(v)
            m.step_agu()
        assert m.addr == 0  # wrapped
        assert [m.read(i) for i in range(4)] == [0, 1, 2, 3]

    def test_memory_bounds(self):
        m = LocalMemory("m", 4)
        with pytest.raises(ConfigurationError):
            m.read(4)
        with pytest.raises(ConfigurationError):
            m.load([1] * 5)

    def test_register_file(self):
        rf = RegisterFile("rf")
        rf.write(2, -7)
        assert rf.read(2) == -7
        with pytest.raises(ConfigurationError):
            rf.read(9)


class TestTile:
    def test_env_routing(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("t", level1=(Level1Fn.ADD,),
                   sources=("env:a", "const:5"), dests=("env:b",))
        prog = TileProgram([{0: op}])
        tile.env["env:a"] = 10
        tile.step(prog)
        assert tile.env["env:b"] == 15

    def test_ext_in_out(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("copy", level1=(Level1Fn.PASS_A,),
                   sources=("ext:in",), dests=("ext:out",))
        tile.load_inputs([7, 8, 9])
        tile.run(TileProgram([{0: op}]), 3)
        assert tile.outputs == [7, 8, 9]

    def test_input_underrun_raises(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("c", level1=(Level1Fn.PASS_A,), sources=("ext:in",),
                   dests=("null",))
        tile.load_inputs([1])
        prog = TileProgram([{0: op}])
        tile.step(prog)
        with pytest.raises(SimulationError):
            tile.step(prog)

    def test_memory_agu_token(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        tile.memories["mem0_1"].load([10, 20, 30])
        op = ALUOp("r", level1=(Level1Fn.PASS_A,),
                   sources=("mem:mem0_1:agu+",), dests=("ext:out",))
        tile.run(TileProgram([{0: op}]), 3)
        assert tile.outputs == [10, 20, 30]

    def test_bad_token(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("b", level1=(Level1Fn.PASS_A,), sources=("bogus:x",),
                   dests=("null",))
        with pytest.raises(ConfigurationError):
            tile.step(TileProgram([{0: op}]))

    def test_utilisation(self):
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("t", level1=(Level1Fn.PASS_A,), sources=("const:0",),
                   dests=("null",))
        prog = TileProgram([{0: op}, {}])  # ALU0 busy every other cycle
        tile.run(prog, 10)
        util = tile.alu_utilisation()
        assert util[0] == pytest.approx(0.5)
        assert util[1] == 0.0


class TestDDCSchedule:
    @pytest.fixture(scope="class")
    def program(self):
        return build_ddc_schedule()

    def test_period_is_336(self, program):
        assert program.period == 336

    def test_table6_shape(self, program):
        rep = analyze_schedule(program)
        rows = {r[0]: (r[1], r[2]) for r in rep.table6_rows()}
        # paper Table 6: 3 ALUs 100 %, 2 ALUs 6.3 %, 25 %, 0.9 %, 0.5 %
        assert rows["NCO + CIC2 integrating"] == (3, pytest.approx(100.0))
        assert rows["CIC2 cascading"][0] == 2
        assert rows["CIC2 cascading"][1] == pytest.approx(6.25, abs=0.1)
        assert rows["CIC5 integrating"] == (2, pytest.approx(25.0))
        assert rows["CIC5 cascading"][1] == pytest.approx(0.9, abs=0.05)
        assert rows["FIR125"][1] <= 0.5  # paper: 0.5 %

    def test_no_alu_overcommit(self, program):
        for ops in program.cycles:
            assert len(ops) <= 5

    def test_three_alus_always_busy(self, program):
        for ops in program.cycles:
            assert {0, 1, 2} <= set(ops)

    def test_config_size_order(self, program):
        # paper: 1110 bytes; same order of magnitude expected
        size = estimate_config_bytes(program)
        assert 300 <= size <= 2200

    def test_nonreference_config_rejected(self):
        with pytest.raises(ConfigurationError):
            build_ddc_schedule(DDCConfig(cic2_decimation=8))

    def test_figure9_render(self, program):
        fig = render_figure9(program, 40)
        lines = fig.splitlines()
        assert len(lines) == 7  # header + 5 ALUs + legend
        # ALUs 1-3 fully busy with N
        for i in (1, 2, 3):
            assert set(lines[i].split()[-1]) == {"N"}
        # ALU4 row shows the 16-cycle comb repetition
        alu4 = lines[4].split()[-1]
        assert alu4[0] == "2" and alu4[16] == "2" and alu4[32] == "2"
        assert alu4[1:5] == "5555"
        assert alu4[5:8] == "ccc"
        assert alu4[8] == "F"
        assert alu4[9] == "."


class TestDDCFunctional:
    @pytest.fixture(scope="class")
    def result(self):
        fs = REFERENCE_DDC.input_rate_hz
        fc = round(10e6 / fs * 512) / 512 * fs  # LUT-exact carrier
        n = 2688 * 80
        x = quantize_to_adc(tone(n, fc + 1500.0, fs, 0.8), 12)
        return run_ddc_on_tile(x)

    def test_output_count(self, result):
        assert len(result.i) == 80
        assert len(result.q) == 80

    def test_tone_recovered(self, result):
        z = (result.i[16:] + 1j * result.q[16:]).astype(complex)
        z = z - z.mean()
        spec = np.abs(np.fft.fft(z * np.hanning(len(z))))
        freqs = np.fft.fftfreq(len(z), 1 / 24_000.0)
        peak = freqs[np.argmax(spec)]
        assert peak == pytest.approx(1500.0, abs=24_000.0 / len(z) * 1.5)

    def test_amplitude_sensible(self, result):
        z = np.abs(result.i[16:].astype(float) + 1j * result.q[16:])
        assert 2_000 < z.mean() < 32_768

    def test_measured_matches_static_occupancy(self, result):
        static = analyze_schedule(result.program)
        dynamic = measured_occupancy(result.tile)
        for row in static.rows:
            got = dynamic.by_label(row.label)
            assert got.n_alus == row.n_alus
            assert got.percent_of_time == pytest.approx(
                row.percent_of_time, abs=0.2
            )

    def test_rejects_float_input(self):
        with pytest.raises(ConfigurationError):
            run_ddc_on_tile(np.zeros(16))


class TestMontiumModel:
    def test_power_is_38_7_mw(self):
        report = MontiumModel().implement(REFERENCE_DDC)
        assert report.power_w * 1e3 == pytest.approx(38.7, abs=0.05)

    def test_area(self):
        report = MontiumModel().implement(REFERENCE_DDC)
        assert report.area_mm2 == pytest.approx(2.2)

    def test_maps_the_reference_plan_only(self):
        model = MontiumModel()
        assert model.implement(REFERENCE_DDC).feasible
        with pytest.raises(ConfigurationError, match="16/21/8"):
            model.implement(DDCConfig(cic2_decimation=8))


class TestScheduleAnalysis:
    """analyze_schedule's exact rows on the DDC and synthetic schedules."""

    def test_ddc_schedule_rows(self):
        """Active cycles per 336-cycle period: 21 CIC2 combs, 3 CIC5
        combs, 84 CIC5 integrations, one FIR output, NCO every cycle."""
        report = analyze_schedule(build_ddc_schedule())
        assert report.period == 336
        assert [(r.label, r.n_alus, r.percent_of_time) for r in report.rows] == [
            ("cic2_comb", 2, 100.0 * 21 / 336),
            ("cic5_comb", 2, 100.0 * 3 / 336),
            ("cic5_int", 2, 100.0 * 84 / 336),
            ("fir125", 2, 100.0 * 1 / 336),
            ("nco_cic2_int", 3, 100.0 * 336 / 336),
        ]

    def test_sparse_synthetic_schedule(self):
        from repro.archs.montium.program import TileProgram

        op_a = ALUOp(label="a")
        op_b = ALUOp(label="b")
        program = TileProgram(
            cycles=[
                {0: op_a, 3: op_b},
                {},
                {0: op_a, 1: op_a, 4: op_b},
                {2: op_b},
            ]
        )
        got = analyze_schedule(program)
        assert got.period == 4
        assert [r.label for r in got.rows] == ["a", "b"]
        assert got.by_label("a").n_alus == 2
        assert got.by_label("a").percent_of_time == 50.0
        assert got.by_label("b").n_alus == 3
        assert got.by_label("b").percent_of_time == 75.0

    def test_empty_program_raises(self):
        from repro.archs.montium.program import TileProgram

        with pytest.raises(ConfigurationError, match="empty"):
            analyze_schedule(TileProgram(cycles=[]))


@pytest.mark.parametrize("fn, width", [(wrap16, 16), (wrap17, 17), (wrap32, 32)])
@given(st.integers(-(2**50), 2**50))
def test_scalar_wraps_match_vector_wrap(fn, width, value):
    """The ALU's scalar port/register wraps are two's-complement wraps."""
    assert fn(value) == int(wrap(value, QFormat(width, 0)))

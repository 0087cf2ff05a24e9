"""Tests for the FPGA RTL components (Fig. 5) and full-DDC bit-exactness."""

from __future__ import annotations

import numpy as np
import pytest

from repro import REFERENCE_DDC, FixedDDC
from repro.archs.fpga import RTLDDC
from repro.archs.fpga.rtl_cic import RTLCIC
from repro.archs.fpga.rtl_fir import RTLPolyphaseFIR
from repro.archs.fpga.rtl_nco import build_sine_rom
from repro.dsp.cic import FixedCICDecimator
from repro.dsp.fir import FixedPolyphaseDecimator
from repro.dsp.firdesign import quantize_taps, reference_fir_taps
from repro.dsp.signals import quantize_to_adc, tone
from repro.errors import ConfigurationError
from repro.simkernel import ClockDomain, Component, Simulator, Wire


class _Feeder(Component):
    """Drives a data/valid pair from a list, one element per cycle."""

    def __init__(self, name, data: Wire, valid: Wire, samples, every: int = 1):
        super().__init__(name)
        self.add_output("d", data)
        self.add_output("v", valid)
        self.samples = list(samples)
        self.every = every
        self._i = 0
        self._phase = 0

    def tick(self, cycle):
        if self._i < len(self.samples) and self._phase == 0:
            self.write("d", int(self.samples[self._i]))
            self.write("v", 1)
            self._i += 1
        else:
            self.write("v", 0)
        self._phase = (self._phase + 1) % self.every


class _Collector(Component):
    """Collects data words gated by a valid line."""

    def __init__(self, name, data: Wire, valid: Wire):
        super().__init__(name)
        self.add_input("d", data)
        self.add_input("v", valid)
        self.values: list[int] = []

    def tick(self, cycle):
        if self.read("v"):
            self.values.append(self.read("d"))


class TestSineROM:
    def test_length(self):
        assert len(build_sine_rom(8, 12)) == 256

    def test_range(self):
        rom = build_sine_rom(10, 12)
        assert max(rom) <= 2047 and min(rom) >= -2048

    def test_quarter_symmetry(self):
        rom = build_sine_rom(10, 12)
        n = len(rom)
        for k in range(0, n // 4, 37):
            assert rom[k] == rom[n // 2 - 1 - k]
            assert rom[k] == -rom[n // 2 + k]


class TestRTLCICUnit:
    def _run(self, samples, order, decimation, width=12):
        sim = Simulator(ClockDomain("clk", 64.512e6))
        x = sim.wire("x", width)
        xv = sim.wire("xv", 1)
        y = sim.wire("y", width)
        yv = sim.wire("yv", 1)
        from repro.fixedpoint import cic_bit_growth

        g = width + cic_bit_growth(order, decimation)
        sim.add(_Feeder("src", x, xv, samples))
        sim.add(RTLCIC("cic", x, xv, y, yv, sim.wire("ip", g),
                       sim.wire("cp", g), order, decimation, width))
        col = sim.add(_Collector("col", y, yv))
        sim.step(len(samples) + 8)
        return np.array(col.values, dtype=np.int64)

    @pytest.mark.parametrize("order,decimation", [(2, 16), (5, 21), (1, 4)])
    def test_matches_fixed_cic(self, order, decimation, rng):
        n = decimation * 25
        x = rng.integers(-2048, 2048, size=n).astype(np.int64)
        got = self._run(x, order, decimation)
        want = FixedCICDecimator(order, decimation, input_width=12).process(x)
        np.testing.assert_array_equal(got, want[: len(got)])
        assert len(got) >= len(want) - 1

    def test_valid_gaps_ignored(self, rng):
        """Invalid cycles between samples must not disturb the filter."""
        sim = Simulator(ClockDomain("clk", 64.512e6))
        x = sim.wire("x", 12)
        xv = sim.wire("xv", 1)
        y = sim.wire("y", 12)
        yv = sim.wire("yv", 1)
        from repro.fixedpoint import cic_bit_growth

        g = 12 + cic_bit_growth(2, 4)
        data = rng.integers(-2048, 2048, size=40).astype(np.int64)
        sim.add(_Feeder("src", x, xv, data, every=3))  # 1 valid per 3 cycles
        sim.add(RTLCIC("cic", x, xv, y, yv, sim.wire("ip", g),
                       sim.wire("cp", g), 2, 4, 12))
        col = sim.add(_Collector("col", y, yv))
        sim.step(len(data) * 3 + 8)
        want = FixedCICDecimator(2, 4, input_width=12).process(data)
        np.testing.assert_array_equal(np.array(col.values), want[: len(col.values)])


class TestRTLFIRUnit:
    def test_matches_fixed_polyphase(self, rng):
        taps = reference_fir_taps(25, 192e3, 24e3, compensate_cic5=False)
        raw, fmt = quantize_taps(taps, 12)
        decim = 4
        n = decim * 30
        x = rng.integers(-2048, 2048, size=n).astype(np.int64)

        sim = Simulator(ClockDomain("clk", 64.512e6))
        xd = sim.wire("x", 12)
        xv = sim.wire("xv", 1)
        y = sim.wire("y", 12)
        yv = sim.wire("yv", 1)
        # inputs spaced >= taps+2 cycles apart so MAC never collides
        sim.add(_Feeder("src", xd, xv, x, every=30))
        fir = sim.add(
            RTLPolyphaseFIR("fir", xd, xv, y, yv, sim.wire("acc", 31),
                            sim.wire("addr", 8), raw, decim, 12,
                            output_shift=max(0, fmt.frac))
        )
        col = sim.add(_Collector("col", y, yv))
        sim.step(n * 30 + 60)

        want = FixedPolyphaseDecimator(
            raw, decim, output_shift=max(0, fmt.frac)
        ).process(x)
        np.testing.assert_array_equal(np.array(col.values), want)

    def test_mac_busy_collision_detected(self, rng):
        """Feeding faster than the MAC loop must raise, not corrupt."""
        from repro.errors import SimulationError

        raw = np.ones(50, dtype=np.int64)
        sim = Simulator(ClockDomain("clk", 64.512e6))
        xd = sim.wire("x", 12)
        xv = sim.wire("xv", 1)
        y = sim.wire("y", 12)
        yv = sim.wire("yv", 1)
        sim.add(_Feeder("src", xd, xv, [1] * 60, every=1))
        sim.add(RTLPolyphaseFIR("fir", xd, xv, y, yv, sim.wire("acc", 30),
                                sim.wire("addr", 8), raw, 1, 12))
        with pytest.raises(SimulationError):
            sim.step(60)


class TestRTLDDCBitTrue:
    """The FPGA top level must agree with FixedDDC word-for-word."""

    @pytest.fixture(scope="class")
    def run_pair(self):
        n = 2688 * 6
        cfg = REFERENCE_DDC
        xf = tone(n, cfg.nco_frequency_hz + 5_000.0, cfg.input_rate_hz, 0.8)
        x = quantize_to_adc(xf, 12)
        rtl = RTLDDC(cfg)
        rtl_out = rtl.run(x)
        fixed = FixedDDC(cfg)
        i_ref, q_ref = fixed.process(x)
        return rtl_out, i_ref, q_ref

    def test_i_rail_bit_exact(self, run_pair):
        rtl_out, i_ref, _ = run_pair
        n = min(len(rtl_out.i), len(i_ref))
        assert n >= 5
        np.testing.assert_array_equal(rtl_out.i[:n], i_ref[:n])

    def test_q_rail_bit_exact(self, run_pair):
        rtl_out, _, q_ref = run_pair
        n = min(len(rtl_out.q), len(q_ref))
        np.testing.assert_array_equal(rtl_out.q[:n], q_ref[:n])

    def test_output_count(self, run_pair):
        rtl_out, i_ref, _ = run_pair
        assert abs(len(rtl_out.i) - len(i_ref)) <= 1

    def test_activity_report_nonempty(self, run_pair):
        rtl_out, _, _ = run_pair
        assert 0.0 < rtl_out.activity.mean_toggle_rate < 1.0

    def test_adc_wire_near_half_toggle(self, run_pair):
        """Random-ish tone input toggles the input bus substantially.

        The paper assumes 50 % input toggling for random data; a full-scale
        tone gives a bit less.
        """
        rtl_out, _, _ = run_pair
        adc = rtl_out.activity.by_name("adc")
        assert 0.15 < adc.toggle_rate < 0.65

    def test_rejects_float_input(self):
        with pytest.raises(ConfigurationError):
            RTLDDC().run(np.zeros(16))

    def test_reset_reproduces(self):
        n = 2688 * 2
        x = quantize_to_adc(
            tone(n, 10e6, REFERENCE_DDC.input_rate_hz, 0.5), 12
        )
        rtl = RTLDDC()
        a = rtl.run(x)
        rtl.reset()
        b = rtl.run(x)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.q, b.q)

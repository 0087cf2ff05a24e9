"""Cross-model integration tests: the same stimulus through every model.

The strongest evidence the reproduction hangs together: one DRM-band tone
is pushed through the gold model, the bit-true model, the FPGA RTL, the
generated ARM code, the Montium schedule and the GC4016-style chain, and
all of them must tell the same story (same recovered frequency, sensible
relative fidelities, consistent cost accounting).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DDC, FixedDDC, REFERENCE_DDC
from repro.dsp.signals import quantize_to_adc, tone

FS = REFERENCE_DDC.input_rate_hz
OUT_RATE = 24_000.0


def _peak_hz(z: np.ndarray) -> float:
    z = np.asarray(z, dtype=complex)
    z = z - z.mean()
    spec = np.abs(np.fft.fft(z * np.hanning(len(z))))
    freqs = np.fft.fftfreq(len(z), 1 / OUT_RATE)
    return float(freqs[np.argmax(spec)])


class TestSameToneEverywhere:
    """A 1.5 kHz-offset tone must appear at +1.5 kHz in every model."""

    OFFSET = 1_500.0

    @pytest.fixture(scope="class")
    def stimulus(self):
        n = 2688 * 64
        fc = REFERENCE_DDC.nco_frequency_hz
        x = tone(n, fc + self.OFFSET, FS, amplitude=0.8)
        return quantize_to_adc(x, 12)

    def _assert_peak(self, z, n_fft):
        tol = OUT_RATE / n_fft * 1.6
        assert _peak_hz(z) == pytest.approx(self.OFFSET, abs=tol)

    def test_gold_model(self, stimulus):
        out = DDC().process(stimulus.astype(float) * 2.0**-11)
        self._assert_peak(out.baseband[8:], len(out.baseband) - 8)

    def test_fixed_model(self, stimulus):
        z = FixedDDC().process_to_float(stimulus)
        self._assert_peak(z[8:], len(z) - 8)

    def test_fpga_rtl(self, stimulus):
        from repro.archs.fpga import RTLDDC

        res = RTLDDC().run(stimulus[: 2688 * 12])
        z = (res.i[2:] + 1j * res.q[2:]) * 2.0**-11
        self._assert_peak(z, len(z))

    def test_montium_tile(self, stimulus):
        from repro.archs.montium import run_ddc_on_tile

        # Montium LUT quantises the carrier to fs/512 steps; retune the
        # stimulus to a LUT-exact carrier for the comparison.
        fc = round(10e6 / FS * 512) / 512 * FS
        n = 2688 * 64
        x = quantize_to_adc(tone(n, fc + self.OFFSET, FS, 0.8), 12)
        res = run_ddc_on_tile(x)
        z = res.i[16:].astype(float) + 1j * res.q[16:].astype(float)
        self._assert_peak(z, len(z))

    def test_arm_generated_code(self, stimulus):
        from repro.archs.gpp import profile_ddc

        n = 2688 * 140
        fc = REFERENCE_DDC.nco_frequency_hz
        x = quantize_to_adc(tone(n, fc + self.OFFSET, FS, 0.8), 12)
        prof = profile_ddc(n_samples=n, input_samples=x)
        # I rail only -> real spectrum has peaks at +-offset.
        i = prof.out_samples[-100:].astype(float)
        i = i - i.mean()
        spec = np.abs(np.fft.rfft(i * np.hanning(len(i))))
        freqs = np.fft.rfftfreq(len(i), 1 / OUT_RATE)
        assert freqs[np.argmax(spec)] == pytest.approx(
            self.OFFSET, abs=OUT_RATE / len(i) * 2
        )


class TestFidelityOrdering:
    """Gold >= fixed 12-bit in fidelity; both recover the payload."""

    def test_fixed_noise_floor_below_signal(self):
        n = 2688 * 48
        fc = REFERENCE_DDC.nco_frequency_hz
        x = quantize_to_adc(tone(n, fc + 3_000.0, FS, 0.8), 12)
        gold = DDC(lut_addr_bits=10).process(x.astype(float) * 2.0**-11)
        fixed = FixedDDC(lut_addr_bits=10).process_to_float(x)
        m = min(len(gold.baseband), len(fixed))
        err = np.sqrt(np.mean(np.abs(fixed[8:m] - gold.baseband[8:m]) ** 2))
        sig = np.sqrt(np.mean(np.abs(gold.baseband[8:m]) ** 2))
        assert err < sig * 0.1  # > 20 dB agreement


class TestCostAccountingConsistency:
    """Power/cost numbers must be mutually consistent across models."""

    def test_energy_per_sample_ordering(self):
        """ASIC < Montium < FPGA < GPP in energy per output sample."""
        from repro.core import DDCEvaluator

        res = DDCEvaluator().evaluate(REFERENCE_DDC)
        e = {r.architecture: r.energy_per_output_sample_j for r in res.reports}
        assert (
            e["Customised Low Power DDC"]
            < e["Montium TP"]
            < e["Altera Cyclone I"]
            < e["ARM922T"]
        )

    def test_fpga_vs_asic_gap(self):
        """Section 7: 'an FPGA consumes more energy compared to the ASIC
        solutions' — by roughly 3-10x for the Cyclone I."""
        from repro.archs.asic import LowPowerDDCModel
        from repro.archs.fpga import CYCLONE_I_EP1C3
        from repro.archs.fpga.model import CycloneModel

        asic = LowPowerDDCModel().implement(REFERENCE_DDC)
        fpga = CycloneModel(CYCLONE_I_EP1C3).implement(REFERENCE_DDC)
        ratio = fpga.power_w / asic.power_w
        assert 3.0 < ratio < 10.0  # paper: 141.4 / 27 = 5.2

    def test_gc4016_vs_lowpower_factor(self):
        """Section 7.1: the GC4016 'consumes roughly four times more
        energy compared to the customised low power DDC'."""
        from repro.archs.asic import GC4016Model, LowPowerDDCModel

        gc = GC4016Model().implement(REFERENCE_DDC)
        lp = LowPowerDDCModel().implement(REFERENCE_DDC)
        assert gc.power_w / lp.power_w == pytest.approx(4.26, abs=0.5)

    def test_montium_close_to_asic(self):
        """Section 6.1: 'the architecture has an energy-efficiency close
        to an ASIC' — within ~5x of the low-power DDC, far below the GPP."""
        from repro.archs.asic import LowPowerDDCModel
        from repro.archs.gpp import ARM9Model
        from repro.archs.montium import MontiumModel

        asic = LowPowerDDCModel().implement(REFERENCE_DDC).power_w
        montium = MontiumModel().implement(REFERENCE_DDC).power_w
        arm = ARM9Model(n_samples=672).implement(REFERENCE_DDC).power_w
        assert montium / asic < 5.0
        assert arm / montium > 10.0


class TestChainQualityComparison:
    """Section 3.1.2's caveat: the GC4016 chain differs from the reference.

    Quantified: on the same input band, the reference chain's narrower
    output (24 kHz vs 271 kHz) rejects an adjacent 100 kHz-offset
    interferer that the GC4016-style chain passes.
    """

    def test_adjacent_channel_rejection(self):
        from repro.archs.asic.gc4016 import GC4016Channel

        fc = 10e6
        n_ref = 2688 * 48
        interferer = tone(n_ref, fc + 100e3, FS, 0.5)

        ref_out = DDC().process(interferer).baseband[8:]
        p_ref = np.mean(np.abs(ref_out) ** 2)

        ch = GC4016Channel(FS, fc, cic_decimation=84)  # ~2688 total
        gc_out = ch.process(interferer[: 84 * 4 * 200])[8:]
        p_gc = np.mean(np.abs(gc_out) ** 2)

        # The reference chain attenuates the 100 kHz offset far harder
        # (an order of magnitude or more).
        assert p_ref < p_gc / 10

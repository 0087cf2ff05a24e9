"""Tests for the generated DDC program, profiler and ARM9 model (Table 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import REFERENCE_DDC, DDCConfig
from repro.archs.gpp import ARM922T, ARM9Model, generate_ddc_program, profile_ddc
from repro.archs.gpp.codegen import generate_ddc_source
from repro.dsp.signals import quantize_to_adc, tone
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def reference_profile():
    """One steady-state profile shared by the checks below (2688 samples)."""
    return profile_ddc()


class TestCodegen:
    def test_assembles(self):
        program, layout = generate_ddc_program(n_samples=16)
        assert len(program) > 50
        assert layout.n_samples == 16

    def test_regions_present(self):
        src, _ = generate_ddc_source(n_samples=16)
        for region in ("nco", "cic2_int", "cic2_comb", "cic5_int",
                       "cic5_comb", "fir_poly", "fir_sum"):
            assert f".region {region}" in src

    def test_rejects_nonreference_orders(self):
        with pytest.raises(ConfigurationError):
            generate_ddc_source(DDCConfig(cic2_order=3), n_samples=16)

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            generate_ddc_source(n_samples=0)

    def test_spill_slots_add_cycles(self):
        with_spill = profile_ddc(n_samples=336, spill_slots=True)
        without = profile_ddc(n_samples=336, spill_slots=False)
        assert with_spill.stats.cycles > without.stats.cycles


class TestTable3Shape:
    """The profile must reproduce Table 3's qualitative structure."""

    def test_nco_dominates(self, reference_profile):
        f = reference_profile.region_fractions
        assert 0.40 <= f["nco"] <= 0.62          # paper: 50 %

    def test_cic2_int_second(self, reference_profile):
        f = reference_profile.region_fractions
        assert 0.28 <= f["cic2_int"] <= 0.50     # paper: 40 %

    def test_sample_rate_work_dominates(self, reference_profile):
        f = reference_profile.region_fractions
        assert f["nco"] + f["cic2_int"] > 0.80   # paper: 90 %

    def test_low_rate_regions_small(self, reference_profile):
        f = reference_profile.region_fractions
        assert f["cic2_comb"] < 0.06             # paper: 3.2 %
        assert f["cic5_int"] < 0.10              # paper: 4.4 %
        assert f["cic5_comb"] < 0.005            # paper: < 0.5 %
        assert f["fir_poly"] < 0.005             # paper: < 0.5 %
        assert f["fir_sum"] < 0.05               # paper: 1.6 %

    def test_ordering_matches_paper(self, reference_profile):
        f = reference_profile.region_fractions
        assert f["nco"] > f["cic2_int"] > f["cic5_int"] > f["cic5_comb"]
        assert f["cic2_int"] > f["cic2_comb"] > f["fir_poly"]

    def test_fractions_sum_to_one(self, reference_profile):
        total = sum(reference_profile.region_fractions.values())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSection42Numbers:
    def test_cpi_matches_arm9_ballpark(self, reference_profile):
        """Paper: 4870 Mcycles / 2865 Minstr = 1.70 CPI."""
        assert 1.2 <= reference_profile.stats.cpi <= 2.2

    def test_gigacycles_per_second_order(self, reference_profile):
        """Paper: 4.87e9 cycles/s for the I rail; same order expected."""
        assert 1.5e9 <= reference_profile.cycles_per_second <= 8e9

    def test_required_clock_infeasible(self, reference_profile):
        """Paper: 9740 MHz needed, so one ARM9 cannot do it."""
        assert reference_profile.required_clock_hz > 10 * ARM922T.max_clock_hz

    def test_mips_order(self, reference_profile):
        assert 800e6 <= reference_profile.instructions_per_second <= 6e9


class TestARM9Model:
    def test_implement_report(self):
        model = ARM9Model(n_samples=2688)
        report = model.implement(REFERENCE_DDC)
        assert not report.feasible
        assert report.power_w > 0.5          # paper: 2.435 W
        assert report.power_w < 5.0
        assert report.architecture == "ARM922T"

    def test_power_equals_clock_times_constant(self):
        model = ARM9Model(n_samples=2688)
        report = model.implement(REFERENCE_DDC)
        want = report.clock_hz / 1e6 * 0.25e-3
        assert report.power_w == pytest.approx(want)

    def test_needs_over_ten_arm9s(self):
        model = ARM9Model(n_samples=2688)
        report = model.implement(REFERENCE_DDC)
        # paper: 9740/250 = 39x
        assert report.clock_hz / model.spec.max_clock_hz > 10


class TestGeneratedCodeCorrectness:
    """The assembly must actually *compute the DDC*, not just burn cycles."""

    def test_dc_settles_positive(self):
        """DC input with a 0 Hz NCO must produce a positive settled output."""
        cfg = DDCConfig(nco_frequency_hz=0.0)
        n = 2688 * 130  # enough for the 125-deep FIR ring to fill
        x = np.full(n, 1024, dtype=np.int64)
        prof = profile_ddc(cfg, n_samples=n, input_samples=x)
        assert len(prof.out_samples) == 130
        settled = prof.out_samples[-4:]
        assert (settled > 400).all()
        # steady: all settled values identical (pure DC)
        assert len(set(settled.tolist())) == 1

    def test_tone_tracks_gold_model(self):
        """I-rail output correlates strongly with the gold model's I rail.

        The generated code's decimators are phase-offset from the gold
        model by up to one output sample (counter-expiry vs index-0 keep
        conventions), so a 500 Hz baseband tone and a small lag search are
        used: residual misalignment then costs only a few degrees.
        """
        from repro import DDC

        fc = REFERENCE_DDC.nco_frequency_hz
        fs = REFERENCE_DDC.input_rate_hz
        n = 2688 * 140
        xf = tone(n, fc + 500.0, fs, amplitude=0.8)
        x = quantize_to_adc(xf, 12)

        prof = profile_ddc(n_samples=n, input_samples=x)
        got = prof.out_samples.astype(float)

        gold = DDC(lut_addr_bits=10)
        want = gold.process(x.astype(float) * 2.0**-11).i

        # Compare settled tails (FIR ring warm-up differs) over lags.
        def norm(v):
            v = v - v.mean()
            return v / np.linalg.norm(v)

        best = max(
            float(np.dot(norm(got[-100 + lag : len(got) + lag - 3]),
                         norm(want[-100:-3])))
            for lag in range(-3, 3)
        )
        assert best > 0.97

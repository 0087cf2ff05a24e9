"""Tests for the NCO (Section 2.1) and the complex mixer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.metrics import sfdr_db
from repro.dsp.mixer import Mixer, mix_to_baseband
from repro.dsp.nco import NCO, NCOMode, nco_sfdr_estimate_db
from repro.errors import ConfigurationError

FS = 64_512_000.0


class TestNCOConstruction:
    def test_defaults(self):
        nco = NCO(FS, 1e6)
        assert nco.mode is NCOMode.LUT

    def test_rejects_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            NCO(FS, FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            NCO(-1.0, 100.0)

    def test_rejects_bad_phase_bits(self):
        with pytest.raises(ConfigurationError):
            NCO(FS, 1e6, phase_bits=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["sample_rate_hz", "frequency_hz"])
    def test_rejects_non_finite_naming_the_field(self, field, value):
        kwargs = {"sample_rate_hz": FS, "frequency_hz": 1e6, field: value}
        with pytest.raises(ConfigurationError, match="must be finite") as exc:
            NCO(**kwargs)
        assert f"NCO.{field}" in str(exc.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_retune_rejects_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="NCO.frequency_hz"):
            NCO(FS, 1e6).retune(value)

    def test_frequency_resolution(self):
        nco = NCO(FS, 1e6, phase_bits=32)
        assert nco.frequency_resolution_hz == pytest.approx(FS / 2**32)

    def test_actual_frequency_close_to_requested(self):
        nco = NCO(FS, 1e6)
        assert abs(nco.actual_frequency_hz - 1e6) <= nco.frequency_resolution_hz

    def test_negative_frequency(self):
        nco = NCO(FS, -1e6)
        assert nco.actual_frequency_hz == pytest.approx(-1e6, abs=1.0)


class TestNCOOutput:
    def test_amplitude_bounded(self):
        nco = NCO(FS, 5e6)
        cos_v, sin_v = nco.generate(4096)
        assert np.abs(cos_v).max() <= 1.0
        assert np.abs(sin_v).max() <= 1.0

    def test_quadrature_relationship(self):
        """cos^2 + sin^2 ~ 1 for a quarter-shifted same-table pair."""
        nco = NCO(FS, 3e6, lut_addr_bits=12)
        cos_v, sin_v = nco.generate(8192)
        mag = cos_v**2 + sin_v**2
        assert np.abs(mag - 1.0).max() < 0.01

    def test_frequency_accuracy_fft(self):
        n = 1 << 14
        f = FS / 64  # bin-exact
        nco = NCO(FS, f)
        cos_v, _ = nco.generate(n)
        spec = np.abs(np.fft.rfft(cos_v * np.hanning(n)))
        peak = np.argmax(spec)
        assert peak == pytest.approx(f / FS * n, abs=1)

    def test_phase_continuity_across_blocks(self):
        nco1 = NCO(FS, 7e6)
        whole_c, whole_s = nco1.generate(1000)
        nco2 = NCO(FS, 7e6)
        c1, s1 = nco2.generate(400)
        c2, s2 = nco2.generate(600)
        np.testing.assert_allclose(np.concatenate([c1, c2]), whole_c)
        np.testing.assert_allclose(np.concatenate([s1, s2]), whole_s)

    def test_reset(self):
        nco = NCO(FS, 7e6)
        a, _ = nco.generate(100)
        nco.reset()
        b, _ = nco.generate(100)
        np.testing.assert_allclose(a, b)

    def test_retune_takes_effect(self):
        nco = NCO(FS, 1e6)
        nco.retune(2e6)
        assert nco.actual_frequency_hz == pytest.approx(2e6, abs=1.0)

    def test_retune_rejects_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            NCO(FS, 1e6).retune(FS)

    def test_quarter_wave_table_matches_full(self):
        full = NCO(FS, 5e6, lut_addr_bits=10, quarter_wave=False)
        quarter = NCO(FS, 5e6, lut_addr_bits=10, quarter_wave=True)
        cf, sf = full.generate(2048)
        cq, sq = quarter.generate(2048)
        np.testing.assert_allclose(cq, cf, atol=1e-12)
        np.testing.assert_allclose(sq, sf, atol=1e-12)

    def test_taylor_mode_matches_ideal(self):
        nco = NCO(FS, 5e6, mode=NCOMode.TAYLOR, taylor_order=5)
        cos_v, sin_v = nco.generate(4096)
        phases = 2 * np.pi * np.arange(4096) * nco._fcw / 2**32
        np.testing.assert_allclose(sin_v, np.sin(phases), atol=1e-8)
        np.testing.assert_allclose(cos_v, np.cos(phases), atol=1e-8)

    def test_taylor_low_order_is_worse(self):
        hi = NCO(FS, 5e6, mode=NCOMode.TAYLOR, taylor_order=6)
        lo = NCO(FS, 5e6, mode=NCOMode.TAYLOR, taylor_order=1)
        ch, _ = hi.generate(4096)
        cl, _ = lo.generate(4096)
        phases = 2 * np.pi * np.arange(4096) * hi._fcw / 2**32
        err_hi = np.abs(ch - np.cos(phases)).max()
        err_lo = np.abs(cl - np.cos(phases)).max()
        assert err_lo > err_hi

    def test_sfdr_improves_with_lut_size(self):
        n = 1 << 14
        f = 1.234e6
        small = NCO(FS, f, lut_addr_bits=6)
        large = NCO(FS, f, lut_addr_bits=12)
        sf_small = sfdr_db(small.generate(n)[0])
        sf_large = sfdr_db(large.generate(n)[0])
        assert sf_large > sf_small + 20

    def test_sfdr_meets_rule_of_thumb(self):
        n = 1 << 15
        nco = NCO(FS, 1.234e6, lut_addr_bits=10)
        measured = sfdr_db(nco.generate(n)[0])
        # Phase-truncation bound ~ 6.02*10 = 60 dB; allow measurement slack.
        assert measured >= nco_sfdr_estimate_db(10) - 8

    def test_amplitude_quantisation(self):
        nco = NCO(FS, 1e6, amplitude_bits=12)
        cos_v, _ = nco.generate(1024)
        # Every sample is on the 2**-11 grid.
        np.testing.assert_allclose(
            cos_v, np.round(cos_v * 2**11) / 2**11, atol=1e-12
        )

    def test_generate_complex_convention(self):
        """generate_complex must be cos - j*sin (down-conversion)."""
        nco = NCO(FS, 5e6)
        z = nco.generate_complex(512)
        nco.reset()
        c, s = nco.generate(512)
        np.testing.assert_allclose(z, c - 1j * s)

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            NCO(FS, 1e6).generate(-1)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-0.49, 0.49))
    def test_phase_accumulator_never_escapes(self, rel_freq):
        nco = NCO(FS, rel_freq * FS)
        words = nco.phases(257)
        assert (words >= 0).all() and (words < 2**32).all()


class TestMixer:
    def test_matches_ideal_mix(self):
        nco = NCO(FS, 5e6, lut_addr_bits=14)
        mixer = Mixer(nco)
        rng = np.random.default_rng(1)
        x = rng.normal(size=4096)
        got = mixer.process(x)
        want = mix_to_baseband(x, FS, nco.actual_frequency_hz)
        # LUT quantisation limits agreement; correlation must be ~1.
        err = np.abs(got - want).max()
        assert err < 2e-3

    def test_iq_split(self):
        nco = NCO(FS, 5e6)
        mixer = Mixer(nco)
        x = np.ones(128)
        i, q = mixer.process_iq(x)
        nco.reset()
        c, s = nco.generate(128)
        np.testing.assert_allclose(i, c)
        np.testing.assert_allclose(q, -s)

    def test_tone_lands_at_baseband(self):
        """Mixing a tone at the LO frequency produces (near-)DC."""
        f = FS / 32
        n = 1 << 12
        t = np.arange(n) / FS
        x = np.cos(2 * np.pi * f * t)
        y = mix_to_baseband(x, FS, f)
        # Mean of the complex baseband is 0.5 (the DC image), the 2f image
        # averages out.
        assert np.abs(y.mean() - 0.5) < 1e-3

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            Mixer(NCO(FS, 1e6)).process(np.zeros((2, 2)))

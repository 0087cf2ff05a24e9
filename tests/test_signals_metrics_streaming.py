"""Tests for stimuli generators and quality metrics."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import REFERENCE_DDC
from repro.dsp.metrics import (
    enob,
    passband_ripple_db,
    sfdr_db,
    sinad_db,
    snr_db,
    stopband_attenuation_db,
    tone_power_db,
)
from repro.dsp.signals import (
    _BLOCK,
    drm_like_ofdm,
    gsm_like_burst,
    quantize_to_adc,
    tone,
    white_noise,
)
from repro.errors import ConfigurationError

FS = 64_512_000.0
ROOT = Path(__file__).resolve().parent.parent


def direct_ofdm(n, fs, carrier, bandwidth, k, rms, rng):
    """The specification of ``drm_like_ofdm``: one complex exponential per
    subcarrier per sample, mixed up to the carrier and scaled to ``rms``."""
    t = np.arange(n) / fs
    offsets = (np.arange(k) - (k - 1) / 2) * (bandwidth / k)
    phases = rng.integers(0, 4, k) * (np.pi / 2) + np.pi / 4
    base = sum(
        np.exp(1j * (2 * np.pi * df * t + ph)) for df, ph in zip(offsets, phases)
    )
    x = np.real(base / np.sqrt(k) * np.exp(1j * 2 * np.pi * carrier * t))
    return x * (rms / (np.sqrt(np.mean(x**2)) or 1.0)) if n else x


class TestSignals:
    def test_tone_amplitude(self):
        x = tone(1000, 1e6, FS, amplitude=0.5)
        assert np.abs(x).max() <= 0.5 + 1e-12

    def test_tone_frequency(self):
        n = 4096
        f = FS / 64
        x = tone(n, f, FS)
        spec = np.abs(np.fft.rfft(x))
        assert np.argmax(spec) == n // 64

    def test_white_noise_rms(self):
        x = white_noise(100_000, rms=0.25, seed=1)
        assert np.std(x) == pytest.approx(0.25, rel=0.05)

    def test_white_noise_reproducible(self):
        np.testing.assert_allclose(white_noise(64, seed=3), white_noise(64, seed=3))

    def test_drm_is_real_and_in_band(self):
        x = drm_like_ofdm(1 << 14, FS, 10e6, seed=7)
        assert np.isrealobj(x)
        spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
        freqs = np.fft.rfftfreq(len(x), 1 / FS)
        peak = freqs[np.argmax(spec)]
        assert abs(peak - 10e6) < 20e3

    def test_drm_bandwidth(self):
        n = 1 << 15
        x = drm_like_ofdm(n, FS, 10e6, bandwidth_hz=10_000.0, seed=7)
        spec = np.abs(np.fft.rfft(x * np.hanning(n))) ** 2
        freqs = np.fft.rfftfreq(n, 1 / FS)
        in_band = spec[(freqs > 10e6 - 8e3) & (freqs < 10e6 + 8e3)].sum()
        out_band = spec[(freqs > 10e6 + 50e3) | (freqs < 10e6 - 50e3)].sum()
        assert in_band > 10 * out_band

    def test_drm_rms(self):
        x = drm_like_ofdm(1 << 13, FS, 10e6, rms=0.2, seed=1)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.2, rel=1e-6)

    def test_drm_empty_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = drm_like_ofdm(0, FS, 10e6, seed=1)
        assert x.dtype == np.float64 and x.shape == (0,)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0, 0.0])
    def test_sample_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ConfigurationError, match="sample_rate_hz"):
            tone(3, 1e6, rate)
        with pytest.raises(ConfigurationError, match="sample_rate_hz"):
            drm_like_ofdm(16, rate, 10e6)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_drm_bandwidth_must_be_positive_and_finite(self, bandwidth):
        with pytest.raises(ConfigurationError, match="bandwidth_hz"):
            drm_like_ofdm(16, FS, 10e6, bandwidth_hz=bandwidth)

    @pytest.mark.parametrize("rms", [np.nan, np.inf, -1.0])
    def test_drm_rms_must_be_non_negative_and_finite(self, rms):
        with pytest.raises(ConfigurationError, match="rms"):
            drm_like_ofdm(16, FS, 10e6, rms=rms)

    def test_gsm_constant_envelope_at_carrier(self):
        x = gsm_like_burst(1 << 13, FS, 10e6, seed=2)
        assert np.abs(x).max() <= 0.5 + 1e-9

    def test_gsm_energy_near_carrier(self):
        n = 1 << 15
        x = gsm_like_burst(n, FS, 10e6, seed=2)
        spec = np.abs(np.fft.rfft(x * np.hanning(n))) ** 2
        freqs = np.fft.rfftfreq(n, 1 / FS)
        near = spec[np.abs(freqs - 10e6) < 400e3].sum()
        assert near > 0.8 * spec.sum()

    @pytest.mark.parametrize("rate", [0.0, -1.0, 2 * FS])
    def test_gsm_symbol_rate_validation(self, rate):
        with pytest.raises(ConfigurationError, match="symbol rate"):
            gsm_like_burst(128, FS, 10e6, symbol_rate_hz=rate)

    def test_gsm_reproducible(self):
        np.testing.assert_array_equal(
            gsm_like_burst(4096, FS, 10e6, seed=4),
            gsm_like_burst(4096, FS, 10e6, seed=4),
        )

    @pytest.mark.parametrize("n", [0, 1, 100, 714, 715, 716])
    def test_gsm_burst_shorter_than_smoothing_kernel(self, n):
        """A burst shorter than the ~3-symbol smoothing kernel (715
        samples at 64.512 MS/s) still has exactly ``n`` samples."""
        x = gsm_like_burst(n, FS, 10e6, seed=4)
        assert x.shape == (n,)
        assert np.isfinite(x).all() and np.abs(x).max(initial=0.0) <= 0.5

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match="n must be >= 0"):
            tone(-1, 1e6, FS)
        with pytest.raises(ConfigurationError, match="n must be >= 0"):
            white_noise(-1)

    def test_carrier_validation(self):
        with pytest.raises(ConfigurationError):
            drm_like_ofdm(128, FS, FS)
        with pytest.raises(ConfigurationError):
            gsm_like_burst(128, FS, -1.0)

    def test_quantize_to_adc_range(self):
        x = np.linspace(-2, 2, 100)
        raw = quantize_to_adc(x, 12)
        assert raw.max() == 2047 and raw.min() == -2048

    def test_quantize_to_adc_monotone(self):
        x = np.linspace(-0.9, 0.9, 100)
        raw = quantize_to_adc(x, 12)
        assert (np.diff(raw) >= 0).all()

    def test_quantize_bits_validation(self):
        with pytest.raises(ConfigurationError):
            quantize_to_adc(np.zeros(4), 1)

    def test_quantize_widest_adc(self):
        raw = quantize_to_adc(np.array([-1.0, 1.0]), 32)
        assert list(raw) == [-(2**31 - 1), 2**31 - 1]
        with pytest.raises(ConfigurationError, match="bits must be in 2..32"):
            quantize_to_adc(np.zeros(4), 33)

    def test_quantize_full_scale_sets_the_extreme_code(self):
        """+-full_scale maps to +-max_raw; beyond it saturates."""
        x = np.array([-4.0, -2.0, 1.0, 2.0])
        assert list(quantize_to_adc(x, 12, full_scale=2.0)) == [
            -2048, -2047, 1024, 2047]

    @pytest.mark.parametrize("index", [0, 2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quantize_to_adc_refuses_non_finite_samples(self, bad, index):
        """nan and +-inf must not map silently to an ADC code."""
        x = np.full(5, 0.5)
        x[index] = bad
        with pytest.raises(
            ConfigurationError,
            match=f"^x must be finite, got {bad!r} at index {index}$",
        ):
            quantize_to_adc(x, 12)

    @pytest.mark.parametrize("full_scale", [np.nan, np.inf])
    def test_quantize_to_adc_refuses_non_finite_full_scale(self, full_scale):
        with pytest.raises(ConfigurationError, match="full_scale"):
            quantize_to_adc(np.zeros(4), 12, full_scale=full_scale)


class TestDRMStimulusEquivalence:
    """``drm_like_ofdm``'s blocked angle-addition synthesis against the
    direct per-subcarrier sum it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
        | st.integers(0, 4096),
        k=st.sampled_from([1, 2, 206]) | st.integers(1, 100).map(lambda v: 2 * v + 1),
        bandwidth=st.floats(100.0, 2e6),
        carrier=st.floats(1e5, FS / 2 - 1e5),
        rms=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, n, k, bandwidth, carrier, rms, seed):
        new = drm_like_ofdm(n, FS, carrier, bandwidth, k, rms, seed=seed)
        direct = direct_ofdm(n, FS, carrier, bandwidth, k, rms,
                             np.random.default_rng(seed))
        assert new.shape == direct.shape == (n,)
        assert np.abs(new - direct).max(initial=0.0) <= 1e-9

    def test_reference_ddc_adc_codes_identical(self):
        cfg = REFERENCE_DDC
        n = cfg.total_decimation * 8
        new = drm_like_ofdm(n, cfg.input_rate_hz, cfg.nco_frequency_hz, seed=0)
        direct = direct_ofdm(n, cfg.input_rate_hz, cfg.nco_frequency_hz,
                             10_000.0, 206, 0.2, np.random.default_rng(0))
        np.testing.assert_array_equal(
            quantize_to_adc(new, cfg.data_width),
            quantize_to_adc(direct, cfg.data_width),
        )

    def test_shared_generator_ends_in_the_same_state(self):
        rng_new, rng_direct = np.random.default_rng(5), np.random.default_rng(5)
        for carrier, k in ((6.1e6, 206), (9.5e6, 33)):
            drm_like_ofdm(3000, FS, carrier, n_subcarriers=k, seed=rng_new)
            direct_ofdm(3000, FS, carrier, 10_000.0, k, 0.2, rng_direct)
        assert rng_new.bit_generator.state == rng_direct.bit_generator.state

    def test_bits_do_not_depend_on_blas_threads(self):
        code = (
            "import hashlib; from repro.dsp import drm_like_ofdm; "
            f"x = drm_like_ofdm(2688 * 64, {FS!r}, 10e6, seed=3); "
            "print(hashlib.sha256(x.tobytes()).hexdigest())"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        x = drm_like_ofdm(2688 * 64, FS, 10e6, seed=3)
        assert proc.stdout.strip() == hashlib.sha256(x.tobytes()).hexdigest()


class TestMetrics:
    def test_snr_of_clean_tone_is_high(self):
        x = tone(1 << 13, FS / 64, FS)
        assert snr_db(x) > 100

    def test_snr_decreases_with_noise(self):
        x = tone(1 << 13, FS / 64, FS)
        noisy = x + white_noise(len(x), rms=0.01, seed=0)
        assert snr_db(noisy) < snr_db(x)
        assert 25 < snr_db(noisy) < 60

    def test_enob_of_quantised_tone(self):
        """An n-bit quantised full-scale tone shows ~n effective bits."""
        x = tone(1 << 14, FS * 0.1234, FS, amplitude=0.99)
        raw = quantize_to_adc(x, 10)
        measured = enob(raw.astype(float) / 512)
        assert 8.5 < measured < 11

    def test_sfdr_clean_tone(self):
        x = tone(1 << 13, FS / 64, FS)
        assert sfdr_db(x) > 100

    def test_sfdr_detects_spur(self):
        x = tone(1 << 13, FS / 64, FS) + tone(1 << 13, FS / 8, FS, 1e-3)
        assert 50 < sfdr_db(x) < 70

    def test_tone_power_relative(self):
        x = tone(1 << 12, FS / 64, FS)
        assert tone_power_db(x, rel=True) > -1.0

    def test_sinad_is_snr(self):
        x = tone(1 << 12, FS / 64, FS) + white_noise(1 << 12, rms=0.01, seed=5)
        assert sinad_db(x) == snr_db(x)

    def test_ripple_of_known_response(self):
        freqs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 5.0])
        mag = np.array([0.5, 1.0, 2.0, 1.0, 0.5, 100.0])
        assert passband_ripple_db(mag, freqs, 1.0) == pytest.approx(
            20 * np.log10(2.0))
        assert passband_ripple_db(mag, freqs, 2.0) == pytest.approx(
            20 * np.log10(4.0))
        with pytest.raises(ConfigurationError, match="passband"):
            passband_ripple_db(mag, freqs + 10, 1.0)

    def test_ripple_with_a_null_is_infinite(self):
        ripple = passband_ripple_db(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert ripple == np.inf

    def test_stopband_attenuation_of_known_response(self):
        freqs = np.array([0.0, 1.0, 2.0, 3.0])
        mag = np.array([1.0, 0.5, 0.01, 0.001])
        assert stopband_attenuation_db(mag, freqs, 2.0) == pytest.approx(40.0)
        null = stopband_attenuation_db(np.array([1.0, 0.0]), freqs[:2], 1.0)
        assert null == np.inf
        with pytest.raises(ConfigurationError, match="stopband"):
            stopband_attenuation_db(mag, freqs, 4.0)
        with pytest.raises(ConfigurationError, match="zero DC gain"):
            stopband_attenuation_db(np.array([0.0, 1.0, 1.0, 1.0]), freqs, 2.0)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            snr_db(np.zeros(4))

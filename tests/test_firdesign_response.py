"""Tests for FIR design and theoretical frequency responses."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal
from scipy.signal import windows as sp_windows

from repro.config import GC4016_GSM_EXAMPLE, REFERENCE_DDC
from repro.dsp import firdesign
from repro.dsp.firdesign import (
    BLACKMAN_HARRIS,
    HAMMING,
    _firwin2,
    cosine_window,
    design_cic_compensator,
    design_kaiser_lowpass,
    quantize_taps,
    reference_fir_taps,
)
from repro.dsp.metrics import passband_ripple_db, stopband_attenuation_db
from repro.dsp.response import (
    alias_rejection,
    cascade_response,
    chain_response,
    cic_response,
    fir_response,
)
from repro.errors import ConfigurationError

FS_FIR = 192_000.0  # FIR stage rate in the reference chain


class TestDesigns:
    def test_lowpass_rejects_stopband(self):
        taps = design_kaiser_lowpass(125, 9600.0, FS_FIR, 70.0)
        freqs = np.linspace(30_000, 96_000, 100)
        h = np.abs(fir_response(freqs, taps, FS_FIR))
        assert 20 * np.log10(h.max()) < -55

    def test_kaiser_attenuation_scales(self):
        lo = design_kaiser_lowpass(125, 9600.0, FS_FIR, 40.0)
        hi = design_kaiser_lowpass(125, 9600.0, FS_FIR, 80.0)
        # DC first: stopband_attenuation_db references the bin nearest 0 Hz.
        freqs = np.concatenate([[0.0], np.linspace(30_000, 96_000, 100)])
        att_lo = stopband_attenuation_db(
            fir_response(freqs, lo, FS_FIR), freqs, 30_000
        )
        att_hi = stopband_attenuation_db(
            fir_response(freqs, hi, FS_FIR), freqs, 30_000
        )
        assert att_lo > 40.0
        assert att_hi > att_lo + 20.0

    def test_invalid_cutoff(self):
        for cutoff in (float("nan"), 0.0, -9600.0, FS_FIR / 2):
            with pytest.raises(ConfigurationError):
                design_kaiser_lowpass(63, cutoff, FS_FIR)

    def test_invalid_taps(self):
        with pytest.raises(ConfigurationError):
            design_kaiser_lowpass(0, 9600.0, FS_FIR)

    def test_compensator_flattens_cascade(self):
        """CIC5 droop + compensator is flatter than CIC5 + plain lowpass."""
        comp = design_cic_compensator(
            125, 9600.0, FS_FIR, cic_order=5, cic_decimation=21,
            cic_input_rate_hz=FS_FIR * 21,
        )
        plain = design_kaiser_lowpass(125, 9600.0, FS_FIR, 70.0)
        freqs = np.linspace(100, 9000, 200)
        cic = cic_response(freqs, 5, 21, FS_FIR * 21)
        casc_comp = cascade_response([cic, fir_response(freqs, comp, FS_FIR)])
        casc_plain = cascade_response([cic, fir_response(freqs, plain, FS_FIR)])
        r_comp = passband_ripple_db(casc_comp, freqs, 9000)
        r_plain = passband_ripple_db(casc_plain, freqs, 9000)
        assert r_comp < r_plain

    def test_compensator_even_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            design_cic_compensator(
                124, 9600.0, FS_FIR, 5, 21, FS_FIR * 21
            )

    def test_reference_taps_count(self):
        assert len(reference_fir_taps()) == 125

    def test_reference_taps_unit_dc(self):
        assert reference_fir_taps().sum() == pytest.approx(1.0)


#: (fir rate, cic order, cic decimation) grids the compensator is built on.
_COMPENSATOR_SETTINGS = [
    (FS_FIR, 5, 21),
    (FS_FIR, 2, 16),
    (48_000.0, 3, 8),
    (1_083_328.125, 5, 64),
]


def _scipy_firwin2(numtaps, freq, gain, fs):
    return sp_signal.firwin2(numtaps, freq, gain, fs=fs)


class TestScipyPins:
    """The numpy ports stay bit-identical to the scipy routines they copy."""

    @pytest.mark.parametrize("fs,order,decimation", _COMPENSATOR_SETTINGS)
    def test_firwin2_matches_scipy(self, fs, order, decimation):
        freqs = np.linspace(0.0, fs / 2, 512)
        cic = np.abs(cic_response(freqs, order, decimation, fs * decimation))
        gains = np.where(freqs <= fs * 0.2, 1.0 / np.maximum(cic, 1e-6), 0.0)
        for numtaps in range(3, 400, 2):
            assert np.array_equal(
                _firwin2(numtaps, freqs, gains, fs),
                _scipy_firwin2(numtaps, freqs, gains, fs),
            ), numtaps

    def test_cosine_window_matches_scipy(self):
        for m in [*range(601), 1024, 4097, 65_536, 100_000]:
            assert np.array_equal(
                cosine_window(m, HAMMING), sp_windows.hamming(m)
            ), m
            assert np.array_equal(
                cosine_window(m, BLACKMAN_HARRIS), sp_windows.blackmanharris(m)
            ), m

    @pytest.mark.parametrize("config", [REFERENCE_DDC, GC4016_GSM_EXAMPLE])
    def test_reference_taps_match_scipy_path(self, config, monkeypatch):
        """Every tap count the models and benchmark strata use (31-255)."""
        fir_rate = config.input_rate_hz / (
            config.cic2_decimation * config.cic5_decimation
        )
        ours = [
            reference_fir_taps(n, fir_rate, config.output_rate_hz)
            for n in range(31, 256)
        ]
        monkeypatch.setattr(firdesign, "_firwin2", _scipy_firwin2)
        for n, taps in zip(range(31, 256), ours):
            want = reference_fir_taps(n, fir_rate, config.output_rate_hz)
            assert np.array_equal(taps, want), n


class TestQuantizeTaps:
    def test_roundtrip_error_small(self):
        taps = reference_fir_taps()
        raw, fmt = quantize_taps(taps, 12)
        back = raw.astype(float) * fmt.scale
        assert np.abs(back - taps).max() <= fmt.scale

    def test_fits_width(self):
        taps = reference_fir_taps()
        raw, fmt = quantize_taps(taps, 12)
        assert raw.max() <= 2047 and raw.min() >= -2048

    def test_explicit_frac_bits(self):
        raw, fmt = quantize_taps(np.array([0.5, -0.25]), 8, frac_bits=4)
        assert fmt.frac == 4
        assert raw[0] == 8

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize_taps(np.zeros(4), 12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize_taps(np.array([]), 12)


class TestCICResponse:
    def test_dc_gain_normalised(self):
        h = cic_response(np.array([0.0]), 2, 16, 64.512e6)
        assert np.abs(h[0]) == pytest.approx(1.0)

    def test_dc_gain_unnormalised(self):
        h = cic_response(np.array([0.0]), 2, 16, 64.512e6, normalize=False)
        assert np.abs(h[0]) == pytest.approx(256.0)

    def test_nulls_at_output_rate_multiples(self):
        """CIC has nulls at multiples of fs/R — the aliasing protections."""
        fs = 64.512e6
        h = cic_response(np.array([fs / 16, 2 * fs / 16]), 2, 16, fs)
        assert np.abs(h).max() < 1e-9

    def test_matches_fir_oracle(self):
        """Closed form equals the DFT of the boxcar-cascade impulse response."""
        from repro.dsp.cic import cic_impulse_response

        fs = 1000.0
        freqs = np.linspace(0, 400, 57)
        order, decim = 3, 5
        closed = cic_response(freqs, order, decim, fs, normalize=False)
        h_fir = cic_impulse_response(order, decim)
        oracle = fir_response(freqs, h_fir, fs)
        np.testing.assert_allclose(np.abs(closed), np.abs(oracle),
                                   rtol=1e-8, atol=1e-6)

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            cic_response(np.array([0.0]), 2, 16, -1.0)


class TestChainResponse:
    def test_reference_chain_dc(self):
        freqs = np.array([0.0])
        h = chain_response(freqs, 64.512e6, [(2, 16), (5, 21)],
                           reference_fir_taps())
        assert np.abs(h[0]) == pytest.approx(1.0, rel=1e-6)

    def test_cascade_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            cascade_response([])

    def test_stopband_of_reference_chain(self):
        freqs = np.linspace(100e3, 1e6, 200)
        h = chain_response(freqs, 64.512e6, [(2, 16), (5, 21)],
                           reference_fir_taps())
        assert 20 * np.log10(np.abs(h).max()) < -30


class TestAliasRejection:
    def test_cic5_beats_cic2(self):
        """More stages = more alias rejection (why CIC5 follows CIC2)."""
        r2 = alias_rejection(2, 16, 64.512e6, 12_000.0)
        r5 = alias_rejection(5, 16, 64.512e6, 12_000.0)
        assert r5 > r2

    def test_positive_for_reference_stages(self):
        assert alias_rejection(2, 16, 64.512e6, 12_000.0) > 40
        assert alias_rejection(5, 21, 4.032e6, 12_000.0) > 50

    def test_band_edge_validation(self):
        with pytest.raises(ConfigurationError):
            alias_rejection(2, 16, 64.512e6, 64.512e6)

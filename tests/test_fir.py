"""Tests for FIR filters and polyphase decimators (paper Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sp_signal

from repro.dsp.fir import (
    FIRFilter,
    FixedPolyphaseDecimator,
    PolyphaseDecimator,
    polyphase_decompose,
)
from repro.dsp.firdesign import quantize_taps, reference_fir_taps
from repro.errors import ConfigurationError
from stream_helpers import stream_in_blocks


class TestFIRFilter:
    def test_identity(self, rng):
        f = FIRFilter(np.array([1.0]))
        x = rng.normal(size=64)
        np.testing.assert_allclose(f.process(x), x)

    def test_matches_scipy(self, rng):
        taps = rng.normal(size=17)
        x = rng.normal(size=200)
        got = FIRFilter(taps).process(x)
        want = sp_signal.lfilter(taps, [1.0], x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_streaming_matches_one_shot(self, rng):
        taps = rng.normal(size=9)
        x = rng.normal(size=100)
        f = FIRFilter(taps)
        whole = FIRFilter(taps).process(x)
        split = np.concatenate([f.process(x[:37]), f.process(x[37:])])
        np.testing.assert_allclose(split, whole, rtol=1e-10, atol=1e-12)

    def test_empty_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            FIRFilter(np.array([]))

    def test_reset(self, rng):
        taps = rng.normal(size=5)
        f = FIRFilter(taps)
        x = rng.normal(size=50)
        y1 = f.process(x)
        f.reset()
        y2 = f.process(x)
        np.testing.assert_allclose(y1, y2)


class TestPolyphaseDecompose:
    def test_shape(self):
        phases = polyphase_decompose(np.arange(10.0), 5)
        assert phases.shape == (5, 2)

    def test_padding(self):
        phases = polyphase_decompose(np.arange(7.0), 3)
        assert phases.shape == (3, 3)
        assert phases[1, 2] == 0.0  # padded slot

    def test_phase_contents(self):
        phases = polyphase_decompose(np.arange(6.0), 2)
        np.testing.assert_allclose(phases[0], [0, 2, 4])
        np.testing.assert_allclose(phases[1], [1, 3, 5])

    def test_reconstruction(self):
        taps = np.arange(12.0)
        phases = polyphase_decompose(taps, 4)
        rebuilt = phases.T.reshape(-1)[: len(taps)]
        np.testing.assert_allclose(rebuilt, taps)

    def test_invalid_decimation(self):
        with pytest.raises(ConfigurationError):
            polyphase_decompose(np.arange(4.0), 0)


class TestPolyphaseDecimator:
    @pytest.mark.parametrize("decimation", [1, 2, 5, 8])
    def test_equals_filter_then_downsample(self, decimation, rng):
        """Fig. 3's polyphase trick must equal the naive FIR + decimation."""
        taps = rng.normal(size=25)
        x = rng.normal(size=decimation * 30)
        got = PolyphaseDecimator(taps, decimation).process(x)
        full = sp_signal.lfilter(taps, [1.0], x)
        want = full[::decimation]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_complex_input(self, rng):
        taps = rng.normal(size=11)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        got = PolyphaseDecimator(taps, 4).process(x)
        want = sp_signal.lfilter(taps, [1.0], x)[::4]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        n_taps=st.integers(1, 30),
        decimation=st.integers(1, 9),
        block_size=st.integers(1, 64),
    )
    def test_block_split_invariance(self, n_taps, decimation, block_size):
        rng = np.random.default_rng(11)
        taps = rng.normal(size=n_taps)
        x = rng.normal(size=decimation * 16)
        whole = PolyphaseDecimator(taps, decimation).process(x)
        split = stream_in_blocks(
            PolyphaseDecimator(taps, decimation), x, block_size
        )
        np.testing.assert_allclose(split, whole, rtol=1e-9, atol=1e-10)

    def test_reference_125_taps(self, rng):
        taps = reference_fir_taps()
        assert len(taps) == 125
        x = rng.normal(size=8 * 40)
        got = PolyphaseDecimator(taps, 8).process(x)
        want = sp_signal.lfilter(taps, [1.0], x)[::8]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_empty_input(self):
        p = PolyphaseDecimator(np.ones(5), 4)
        assert len(p.process(np.array([]))) == 0

    def test_single_tap_single_rate(self, rng):
        p = PolyphaseDecimator(np.array([2.0]), 1)
        x = rng.normal(size=10)
        np.testing.assert_allclose(p.process(x), 2 * x)


@pytest.mark.parametrize(
    "make",
    [FIRFilter, lambda taps: PolyphaseDecimator(taps, 2)],
    ids=["FIRFilter", "PolyphaseDecimator"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_taps_refused(make, bad):
    """A nan/inf tap would turn every output sample into nan."""
    taps = np.array([0.25, bad, 0.25])
    with pytest.raises(
        ConfigurationError, match=f"^taps must be finite, got {bad!r} at index 1$"
    ):
        make(taps)


class TestFixedPolyphaseDecimator:
    def _make(self, rng, n_taps=25, decimation=8):
        taps = rng.normal(size=n_taps) / n_taps
        raw, fmt = quantize_taps(taps, 12)
        return FixedPolyphaseDecimator(
            raw, decimation, output_shift=max(0, fmt.frac)
        ), raw

    def test_accumulator_width_default_is_31_for_paper(self):
        raw = np.ones(124, dtype=np.int64)
        f = FixedPolyphaseDecimator(raw, 8)
        assert f.acc_width == 31

    def test_rejects_wide_coefficients(self):
        with pytest.raises(ConfigurationError):
            FixedPolyphaseDecimator(np.array([5000]), 2, coeff_width=12)

    def test_rejects_float_input(self, rng):
        f, _ = self._make(rng)
        with pytest.raises(ConfigurationError):
            f.process(np.array([0.5]))

    def test_matches_integer_oracle(self, rng):
        """Bit-true output = truncated saturated integer convolution."""
        f, raw = self._make(rng, n_taps=20, decimation=4)
        x = rng.integers(-2048, 2048, size=160).astype(np.int64)
        got = f.process(x)
        full = np.convolve(x, raw)[: len(x)]
        want = full[::4] >> f.output_shift
        want = np.clip(want, -2048, 2047)
        np.testing.assert_array_equal(got, want)

    def test_saturation_clamps(self):
        # All-max coefficients and input drive the output into saturation.
        raw = np.full(4, 2047, dtype=np.int64)
        f = FixedPolyphaseDecimator(raw, 1, output_shift=0)
        x = np.full(16, 2047, dtype=np.int64)
        y = f.process(x)
        assert y.max() == 2047  # saturated, not wrapped

    @settings(max_examples=25, deadline=None)
    @given(block_size=st.integers(1, 40))
    def test_block_split_invariance(self, block_size):
        rng = np.random.default_rng(5)
        taps = rng.normal(size=15) / 15
        raw, fmt = quantize_taps(taps, 12)
        x = rng.integers(-2048, 2048, size=120).astype(np.int64)
        whole = FixedPolyphaseDecimator(
            raw, 3, output_shift=max(0, fmt.frac)
        ).process(x)
        split = stream_in_blocks(
            FixedPolyphaseDecimator(raw, 3, output_shift=max(0, fmt.frac)),
            x, block_size,
        )
        np.testing.assert_array_equal(split, whole)

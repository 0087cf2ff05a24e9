"""Extra property-based tests on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dsp.cic import CICDecimator, FixedCICDecimator
from repro.dsp.fir import PolyphaseDecimator
from repro.dsp.nco import NCO
from repro.dsp.response import cic_response
from repro.fixedpoint import (
    QFormat,
    quantize,
    saturate,
    to_fixed,
    wrap,
)

FS = 64_512_000.0


class TestFixedPointAlgebra:
    @given(
        st.integers(2, 30), st.integers(-4, 30),
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_saturate_idempotent(self, width, frac, values):
        fmt = QFormat(width, frac)
        once = saturate(np.array(values), fmt)
        twice = saturate(once, fmt)
        np.testing.assert_array_equal(once, twice)

    @given(
        st.integers(2, 30),
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrap_idempotent(self, width, values):
        fmt = QFormat(width, 0)
        once = wrap(np.array(values), fmt)
        twice = wrap(once, fmt)
        np.testing.assert_array_equal(once, twice)

    @given(
        st.integers(3, 24), st.integers(0, 20),
        st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_monotone(self, width, shift, values):
        """Truncation preserves order."""
        arr = np.sort(np.array(values))
        out = quantize(arr, shift)
        assert (np.diff(out) >= 0).all()

    @given(st.floats(-1.0, 1.0, allow_nan=False), st.integers(4, 24))
    @settings(max_examples=60, deadline=None)
    def test_more_bits_never_worse(self, v, width):
        """Quantisation error is non-increasing in word length."""
        narrow = QFormat(width, width - 1)
        wide = QFormat(width + 4, width + 3)
        err_n = abs(float(to_fixed(v, narrow)) * narrow.scale - v)
        err_w = abs(float(to_fixed(v, wide)) * wide.scale - v)
        assert err_w <= err_n + 1e-15


class TestCICProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        order=st.integers(1, 4),
        decimation=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_time_invariance_by_R_shift(self, order, decimation, seed):
        """Shifting the input by R samples shifts the output by 1 sample."""
        rng = np.random.default_rng(seed)
        n = decimation * 20
        x = rng.normal(size=n)
        y1 = CICDecimator(order, decimation).process(x)
        shifted = np.concatenate([np.zeros(decimation), x])[:n]
        y2 = CICDecimator(order, decimation).process(shifted)
        np.testing.assert_allclose(y2[1:], y1[: len(y2) - 1],
                                   rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.integers(1, 3),
        decimation=st.integers(2, 10),
        scale=st.integers(1, 1000),
    )
    def test_fixed_cic_dc_gain_exact(self, order, decimation, scale):
        """Steady-state DC out = floor(in * gain / 2**shift)."""
        f = FixedCICDecimator(order, decimation, input_width=12)
        x = np.full(decimation * (decimation + order + 50), scale,
                    dtype=np.int64)
        y = f.process(x)
        want = (scale * f.gain_int()) >> f.truncation_shift \
            if hasattr(f, "gain_int") else \
            (scale * (decimation ** order)) >> f.truncation_shift
        assert y[-1] == want

    @settings(max_examples=20, deadline=None)
    @given(order=st.integers(1, 4), decimation=st.integers(2, 16))
    def test_response_null_at_fs_over_R(self, order, decimation):
        """The CIC's first null protects the band folding to DC."""
        h = cic_response(
            np.array([FS / decimation]), order, decimation, FS
        )
        assert abs(h[0]) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(decimation=st.integers(2, 16))
    def test_higher_order_attenuates_more(self, decimation):
        f = np.array([FS / decimation * 0.9])
        h2 = abs(cic_response(f, 2, decimation, FS)[0])
        h5 = abs(cic_response(f, 5, decimation, FS)[0])
        assert h5 < h2


class TestPolyphaseProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_taps=st.integers(1, 24),
        decimation=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_linearity(self, n_taps, decimation, seed):
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=n_taps)
        x1 = rng.normal(size=decimation * 12)
        x2 = rng.normal(size=decimation * 12)
        a, b = 1.7, -0.3
        y_sum = PolyphaseDecimator(taps, decimation).process(a * x1 + b * x2)
        y1 = PolyphaseDecimator(taps, decimation).process(x1)
        y2 = PolyphaseDecimator(taps, decimation).process(x2)
        np.testing.assert_allclose(y_sum, a * y1 + b * y2,
                                   rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        n_taps=st.integers(1, 24),
        decimation=st.integers(1, 8),
    )
    def test_impulse_recovers_taps(self, n_taps, decimation):
        """Impulse response sampled at the output rate = every D-th tap."""
        rng = np.random.default_rng(n_taps * 31 + decimation)
        taps = rng.normal(size=n_taps)
        p = PolyphaseDecimator(taps, decimation)
        impulse = np.zeros(n_taps * decimation + decimation)
        impulse[0] = 1.0
        y = p.process(impulse)
        want = taps[::decimation]
        np.testing.assert_allclose(y[: len(want)], want, atol=1e-12)


class TestNCOProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(1, 200),
        phase_bits=st.integers(16, 32),
    )
    def test_fcw_exact_for_power_of_two_ratios(self, k, phase_bits):
        """Frequencies of the form k*fs/2**m are produced exactly."""
        fs = 1 << 22
        freq = k * fs / 2**10
        assume(freq < fs / 2)
        nco = NCO(float(fs), freq, phase_bits=phase_bits)
        assert nco.actual_frequency_hz == pytest.approx(freq, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(n1=st.integers(0, 300), n2=st.integers(0, 300))
    def test_block_concatenation(self, n1, n2):
        nco_a = NCO(FS, 7.1e6)
        whole_c, whole_s = nco_a.generate(n1 + n2)
        nco_b = NCO(FS, 7.1e6)
        c1, s1 = nco_b.generate(n1)
        c2, s2 = nco_b.generate(n2)
        np.testing.assert_allclose(np.concatenate([c1, c2]), whole_c)
        np.testing.assert_allclose(np.concatenate([s1, s2]), whole_s)

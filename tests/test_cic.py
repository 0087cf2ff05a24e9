"""Tests for the CIC decimators (paper Fig. 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.cic import (
    CICDecimator,
    FixedCICDecimator,
    cic_impulse_response,
    cic_reference_output,
)
from repro.errors import ConfigurationError
from stream_helpers import stream_in_blocks


class TestCICBasics:
    def test_dc_gain_normalised(self):
        cic = CICDecimator(2, 16)
        x = np.ones(16 * 50)
        y = cic.process(x)
        # After the transient, output settles to 1.0.
        assert y[-1] == pytest.approx(1.0)

    def test_dc_gain_unnormalised(self):
        cic = CICDecimator(2, 16, normalize=False)
        y = cic.process(np.ones(16 * 50))
        assert y[-1] == pytest.approx(256.0)

    def test_gain_property(self):
        assert CICDecimator(5, 21).gain == 21**5

    def test_output_length(self):
        cic = CICDecimator(2, 16)
        assert len(cic.process(np.zeros(160))) == 10

    def test_empty_input(self):
        cic = CICDecimator(2, 16)
        assert len(cic.process(np.array([]))) == 0

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            CICDecimator(0, 16)

    def test_invalid_decimation(self):
        with pytest.raises(ConfigurationError):
            CICDecimator(2, 0)

    def test_2d_input_rejected(self):
        with pytest.raises(ConfigurationError):
            CICDecimator(2, 16).process(np.zeros((4, 4)))

    def test_reset_restores_initial_state(self):
        cic = CICDecimator(2, 16)
        rng = np.random.default_rng(7)
        x = rng.normal(size=320)
        y1 = cic.process(x)
        cic.reset()
        y2 = cic.process(x)
        np.testing.assert_allclose(y1, y2)

    def test_impulse_response_length(self):
        h = cic_impulse_response(2, 16)
        assert len(h) == 2 * 15 + 1

    def test_impulse_response_sum_is_gain(self):
        h = cic_impulse_response(5, 21)
        assert h.sum() == pytest.approx(21**5)


class TestCICEquivalence:
    """The streaming CIC must equal the boxcar-cascade oracle."""

    @pytest.mark.parametrize("order,decimation", [(1, 2), (2, 16), (5, 21), (3, 7)])
    def test_matches_reference(self, order, decimation, rng):
        x = rng.normal(size=decimation * 40)
        cic = CICDecimator(order, decimation)
        got = cic.process(x)
        want = cic_reference_output(x, order, decimation)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 4),
        decimation=st.integers(1, 12),
        n_blocks=st.integers(1, 5),
        data=st.data(),
    )
    def test_block_split_invariance(self, order, decimation, n_blocks, data):
        """Output must not depend on how the stream is sliced into blocks."""
        total = decimation * 12
        rng = np.random.default_rng(42)
        x = rng.normal(size=total)
        whole = CICDecimator(order, decimation).process(x)

        block_size = data.draw(st.integers(1, total))
        split = stream_in_blocks(CICDecimator(order, decimation), x, block_size)
        np.testing.assert_allclose(split, whole, rtol=1e-9, atol=1e-9)

    def test_linearity(self, rng):
        x1 = rng.normal(size=210)
        x2 = rng.normal(size=210)
        a, b = 2.5, -1.25
        y_sum = CICDecimator(3, 7).process(a * x1 + b * x2)
        y1 = CICDecimator(3, 7).process(x1)
        y2 = CICDecimator(3, 7).process(x2)
        np.testing.assert_allclose(y_sum, a * y1 + b * y2, rtol=1e-9, atol=1e-9)

    def test_diff_delay_two(self, rng):
        x = rng.normal(size=8 * 30)
        got = CICDecimator(2, 8, diff_delay=2).process(x)
        want = cic_reference_output(x, 2, 8, diff_delay=2)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestFixedCIC:
    def test_internal_width_cic2(self):
        f = FixedCICDecimator(2, 16, input_width=12)
        assert f.internal_width == 20

    def test_internal_width_cic5(self):
        f = FixedCICDecimator(5, 21, input_width=12)
        assert f.internal_width == 34

    def test_rejects_float_input(self):
        f = FixedCICDecimator(2, 16)
        with pytest.raises(ConfigurationError):
            f.process(np.array([0.5]))

    def test_rejects_out_of_range(self):
        f = FixedCICDecimator(2, 16, input_width=12)
        with pytest.raises(ConfigurationError):
            f.process(np.array([3000]))

    def test_rejects_too_wide_internal(self):
        with pytest.raises(ConfigurationError):
            FixedCICDecimator(8, 4096, input_width=16)

    def test_dc_input_reaches_near_full_scale(self):
        """Full-scale DC in -> (close to) full-scale DC out after truncation."""
        f = FixedCICDecimator(2, 16, input_width=12)
        x = np.full(16 * 60, 2047, dtype=np.int64)
        y = f.process(x)
        # Gain 256, truncation 8 bits: steady state = 2047*256 >> 8 = 2047.
        assert y[-1] == 2047

    def test_matches_float_model_within_truncation(self, rng):
        """Fixed output = floor(float unnormalised output / 2**shift)."""
        order, decimation, width = 2, 16, 12
        x = (rng.normal(size=16 * 40) * 800).astype(np.int64)
        x = np.clip(x, -2048, 2047)
        fixed = FixedCICDecimator(order, decimation, input_width=width)
        got = fixed.process(x)
        ref = cic_reference_output(
            x.astype(float), order, decimation, normalize=False
        )
        want = np.floor(ref / 2**fixed.truncation_shift)
        np.testing.assert_allclose(got, want)

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.integers(1, 3),
        decimation=st.integers(2, 10),
        block_size=st.integers(1, 50),
    )
    def test_fixed_block_split_invariance(self, order, decimation, block_size):
        rng = np.random.default_rng(3)
        x = rng.integers(-2048, 2048, size=decimation * 15).astype(np.int64)
        whole = FixedCICDecimator(order, decimation).process(x)
        split = stream_in_blocks(
            FixedCICDecimator(order, decimation), x, block_size
        )
        np.testing.assert_array_equal(split, whole)

    def test_wraparound_integrators_are_harmless(self):
        """Hogenauer: wrapping integrators give exact results anyway.

        Drive with a long DC run so integrators wrap many times; the final
        decimated+combed output must still equal the FIR-oracle value.
        """
        order, decimation = 2, 16
        f = FixedCICDecimator(order, decimation, input_width=12)
        x = np.full(16 * 200, 1500, dtype=np.int64)
        got = f.process(x)
        ref = cic_reference_output(x.astype(float), order, decimation,
                                   normalize=False)
        want = np.floor(ref / 2**f.truncation_shift)
        np.testing.assert_allclose(got, want)
        # And the integrator registers really did wrap (exceeded +-2**19).
        assert f._int_state.max() <= 2**19 and f._int_state.min() >= -(2**19)

"""Tests for the bit-growth analysis helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import REFERENCE_DDC
from repro.dsp.ddc import FixedDDC
from repro.errors import ConfigurationError
from repro.fixedpoint import cic_bit_growth, cic_gain, fir_accumulator_bits


class TestBitGrowth:
    def test_cic_gain_reference_cic2(self):
        assert cic_gain(2, 16) == 256

    def test_cic_gain_reference_cic5(self):
        assert cic_gain(5, 21) == 21**5

    def test_cic2_growth_is_8_bits(self):
        assert cic_bit_growth(2, 16) == 8

    def test_cic5_growth_is_22_bits(self):
        # ceil(5 * log2(21)) = ceil(21.96) = 22
        assert cic_bit_growth(5, 21) == 22

    def test_diff_delay_increases_growth(self):
        assert cic_bit_growth(2, 16, diff_delay=2) == 10

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            cic_bit_growth(0, 16)

    @pytest.mark.parametrize("fn", [cic_gain, cic_bit_growth])
    @pytest.mark.parametrize(
        "args, field",
        [((0, 16, 1), "order"), ((2, 0, 1), "decimation"),
         ((2, 16, 0), "differential delay")],
    )
    def test_invalid_cic_parameters_named(self, fn, args, field):
        with pytest.raises(ConfigurationError, match=f"CIC {field} must be >= 1"):
            fn(*args)

    def test_growth_schedule_reference_chain(self):
        """The fixed-point reference DDC sizes its registers as the paper
        does: CIC2 20 bits, CIC5 34 bits, a 31-bit FIR accumulator and
        12-bit buses between the stages."""
        ddc = FixedDDC(REFERENCE_DDC)
        assert ddc.cic2_i.internal_format.width == 12 + 8 == 20
        assert ddc.cic5_i.internal_format.width == 12 + 22 == 34
        assert ddc.fir_i.accumulator_format.width == 31
        for stage in (ddc.cic2_i, ddc.cic5_i, ddc.fir_i):
            assert stage.output_format.width == 12

    def test_fir_accumulator_is_31_bits_for_paper_fir(self):
        # 12-bit data x 12-bit coeffs x 124 taps -> the paper's 31-bit bus.
        assert fir_accumulator_bits(12, 12, 124) == 31

    def test_fir_accumulator_single_tap(self):
        assert fir_accumulator_bits(12, 12, 1) == 24

    @pytest.mark.parametrize(
        "args", [(0, 12, 4), (12, 0, 4), (12, 12, 0)],
        ids=["input_width", "coeff_width", "taps"],
    )
    def test_fir_accumulator_invalid(self, args):
        with pytest.raises(ConfigurationError):
            fir_accumulator_bits(*args)

    @given(st.integers(1, 5), st.integers(1, 32), st.integers(1, 3))
    def test_growth_is_ceil_log2_gain(self, order, decimation, diff_delay):
        """Growth is the fewest bits whose range covers the DC gain."""
        growth = cic_bit_growth(order, decimation, diff_delay)
        gain = cic_gain(order, decimation, diff_delay)
        assert 2**growth >= gain
        assert growth == 0 or 2 ** (growth - 1) < gain

    @given(st.integers(1, 6), st.integers(2, 64))
    def test_growth_bounds_gain(self, order, decimation):
        """2**growth must be >= gain (growth is the ceil of log2(gain))."""
        growth = cic_bit_growth(order, decimation)
        assert 2**growth >= cic_gain(order, decimation)
        assert 2 ** (growth - 1) < cic_gain(order, decimation) or growth == 0

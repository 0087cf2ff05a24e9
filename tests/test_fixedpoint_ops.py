"""Tests for repro.fixedpoint.ops — vectorised saturate/wrap/quantize."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FixedPointError
from repro.fixedpoint import (
    Overflow,
    QFormat,
    Rounding,
    quantize,
    saturate,
    to_fixed,
    wrap,
)

Q12 = QFormat(12, 0)
Q12F = QFormat(12, 11)


class TestSaturate:
    def test_in_range_unchanged(self):
        assert saturate(100, Q12) == 100

    def test_clamps_high(self):
        assert saturate(5000, Q12) == 2047

    def test_clamps_low(self):
        assert saturate(-5000, Q12) == -2048

    def test_vector(self):
        out = saturate(np.array([-9999, 0, 9999]), Q12)
        assert list(out) == [-2048, 0, 2047]

    def test_rejects_floats(self):
        with pytest.raises(FixedPointError):
            saturate(np.array([1.5]), Q12)


class TestWrap:
    def test_in_range_unchanged(self):
        assert wrap(-2048, Q12) == -2048
        assert wrap(2047, Q12) == 2047

    def test_wraps_positive_overflow(self):
        assert wrap(2048, Q12) == -2048

    def test_wraps_negative_overflow(self):
        assert wrap(-2049, Q12) == 2047

    def test_full_period(self):
        assert wrap(4096 + 5, Q12) == 5

    @given(st.integers(-(2**40), 2**40), st.integers(2, 50))
    def test_wrap_is_mod_2w(self, value, width):
        fmt = QFormat(width, 0)
        wrapped = int(wrap(value, fmt))
        assert fmt.min_raw <= wrapped <= fmt.max_raw
        assert (wrapped - value) % (1 << width) == 0

    def test_64_bit_wrap_is_identity(self):
        x = np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max])
        out = wrap(x, QFormat(64, 0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    @given(st.integers(-(2**40), 2**40), st.integers(2, 50))
    def test_wrap_and_saturate_agree_in_range(self, value, width):
        fmt = QFormat(width, 0)
        if fmt.min_raw <= value <= fmt.max_raw:
            assert int(wrap(value, fmt)) == int(saturate(value, fmt)) == value
        else:
            assert int(saturate(value, fmt)) in (fmt.min_raw, fmt.max_raw)

    @given(st.integers(-(2**30), 2**30), st.integers(-(2**30), 2**30))
    def test_wrap_add_homomorphic(self, a, b):
        """Wrapping is a ring homomorphism: wrap(a)+wrap(b) ~ wrap(a+b)."""
        fmt = QFormat(16, 0)
        lhs = int(wrap(int(wrap(a, fmt)) + int(wrap(b, fmt)), fmt))
        rhs = int(wrap(a + b, fmt))
        assert lhs == rhs


class TestQuantize:
    def test_zero_shift_identity(self):
        x = np.array([1, -7, 100])
        assert list(quantize(x, 0)) == [1, -7, 100]

    def test_truncate_floors(self):
        assert quantize(np.array([7]), 2)[0] == 1
        assert quantize(np.array([-7]), 2)[0] == -2  # floor(-1.75) = -2

    def test_nearest_rounds(self):
        assert quantize(np.array([6]), 2, Rounding.NEAREST)[0] == 2  # 1.5 -> 2
        assert quantize(np.array([-6]), 2, Rounding.NEAREST)[0] == -2

    def test_negative_shift_rejected(self):
        with pytest.raises(FixedPointError):
            quantize(np.array([1]), -1)

    @given(st.integers(-(2**40), 2**40), st.integers(0, 20))
    def test_truncate_equals_floor_division(self, value, shift):
        out = int(quantize(np.array([value]), shift)[0])
        assert out == value // (1 << shift)

    @given(st.integers(-(2**40), 2**40), st.integers(1, 20))
    def test_nearest_rounds_half_away_from_zero(self, value, shift):
        out = int(quantize(np.array([value]), shift, Rounding.NEAREST)[0])
        q, r = divmod(abs(value), 1 << shift)
        expected = q + (2 * r >= 1 << shift)
        assert out == (expected if value >= 0 else -expected)

    def test_unknown_rounding_rejected(self):
        with pytest.raises(FixedPointError, match="unknown rounding mode"):
            quantize(np.array([5]), 1, "nearest")  # type: ignore[arg-type]


class TestConversions:
    def test_roundtrip_exact_grid(self):
        values = np.array([-1.0, -0.5, 0.0, 0.25, 0.5])
        raw = to_fixed(values, Q12F)
        back = raw * Q12F.scale
        np.testing.assert_allclose(back, values, atol=Q12F.scale)

    def test_saturates_out_of_range(self):
        raw = to_fixed(np.array([2.0, -2.0]), Q12F)
        assert raw[0] == Q12F.max_raw
        assert raw[1] == Q12F.min_raw

    def test_wrap_policy(self):
        raw = to_fixed(np.array([1.0]), Q12F, overflow=Overflow.WRAP)
        # 1.0 * 2**11 = 2048 wraps to -2048
        assert raw[0] == -2048

    def test_truncating_conversion_floors(self):
        lsb = Q12F.scale
        raw = to_fixed(np.array([0.75 * lsb, -0.25 * lsb, -1.5 * lsb]), Q12F,
                       rounding=Rounding.TRUNCATE)
        assert list(raw) == [0, -1, -2]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_nearest_conversion_rounds_half_away_from_zero(self, sign):
        raw = to_fixed(np.array([sign * 2.5 * Q12F.scale]), Q12F)
        assert raw[0] == sign * 3

    def test_conversion_rejects_unknown_rounding(self):
        with pytest.raises(FixedPointError, match="unknown rounding mode"):
            to_fixed(0.5, Q12F, rounding="up")  # type: ignore[arg-type]

    @given(st.floats(-0.999, 0.999, allow_nan=False))
    def test_quantisation_error_bounded(self, v):
        raw = to_fixed(v, Q12F)
        err = abs(float(raw) * Q12F.scale - v)
        assert err <= Q12F.scale / 2 + 1e-12

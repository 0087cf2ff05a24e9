"""Tests for repro.fixedpoint.qformat."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import FixedPointError
from repro.fixedpoint import QFormat


class TestQFormatConstruction:
    def test_basic(self):
        q = QFormat(12, 11)
        assert q.width == 12
        assert q.frac == 11

    def test_min_max_raw(self):
        q = QFormat(12, 11)
        assert q.min_raw == -2048
        assert q.max_raw == 2047

    def test_scale(self):
        assert QFormat(16, 15).scale == 2.0**-15

    def test_min_max_value(self):
        q = QFormat(8, 7)
        assert q.min_value == -1.0
        assert q.max_value == pytest.approx(1.0 - 2**-7)

    def test_negative_frac_allowed(self):
        q = QFormat(8, -2)
        assert q.max_value == 127 * 4.0

    def test_frac_beyond_width_allowed(self):
        q = QFormat(4, 8)
        assert q.max_value == 7 * 2.0**-8

    def test_width_zero_rejected(self):
        with pytest.raises(FixedPointError):
            QFormat(0, 0)

    def test_width_too_large_rejected(self):
        with pytest.raises(FixedPointError):
            QFormat(65, 0)

    def test_non_int_rejected(self):
        with pytest.raises(FixedPointError):
            QFormat(12.0, 11)  # type: ignore[arg-type]

    def test_non_int_frac_rejected(self):
        with pytest.raises(FixedPointError, match="must be ints"):
            QFormat(12, 11.0)  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "width, lo, hi", [(1, -1, 0), (64, -(2**63), 2**63 - 1)],
    )
    def test_extreme_widths(self, width, lo, hi):
        q = QFormat(width, 0)
        assert (q.min_raw, q.max_raw) == (lo, hi)

    def test_frozen(self):
        q = QFormat(12, 11)
        with pytest.raises(AttributeError):
            q.width = 16  # type: ignore[misc]

    def test_str(self):
        assert str(QFormat(12, 11)) == "Q12.11"


class TestQFormatDerivation:
    @given(st.integers(1, 64), st.integers(-8, 64))
    def test_range_is_symmetric_ish(self, width, frac):
        q = QFormat(width, frac)
        assert q.min_raw == -q.max_raw - 1
        assert q.min_raw <= 0 <= q.max_raw

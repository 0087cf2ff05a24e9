"""Tests for the reference configuration module (paper Table 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DDCConfig,
    GC4016_GSM_EXAMPLE,
    REFERENCE_DDC,
    StageConfig,
    TOTAL_DECIMATION,
    check_finite_array,
)
from repro.errors import ConfigurationError


class TestReferenceConfig:
    def test_total_decimation_2688(self):
        assert REFERENCE_DDC.total_decimation == TOTAL_DECIMATION == 2688

    def test_output_rate_24khz(self):
        assert REFERENCE_DDC.output_rate_hz == pytest.approx(24_000.0)

    def test_stage_rates_match_table1(self):
        stages = {s.name: s for s in REFERENCE_DDC.stages()}
        assert stages["NCO"].input_rate_hz == pytest.approx(64.512e6)
        assert stages["CIC2"].input_rate_hz == pytest.approx(64.512e6)
        assert stages["CIC5"].input_rate_hz == pytest.approx(4.032e6)
        assert stages["125 taps FIR"].input_rate_hz == pytest.approx(192e3)

    def test_table1_rows_include_output(self):
        rows = REFERENCE_DDC.table1_rows()
        assert rows[-1][0] == "Output"
        assert rows[-1][1] == pytest.approx(24_000.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            REFERENCE_DDC.cic2_decimation = 8  # type: ignore[misc]


class TestGSMExample:
    """Section 3.1.2's GC4016 GSM configuration."""

    def test_total_decimation_256(self):
        assert GC4016_GSM_EXAMPLE.total_decimation == 256

    def test_output_rate_is_270k(self):
        assert GC4016_GSM_EXAMPLE.output_rate_hz == pytest.approx(
            270_832.0, rel=1e-3
        )

    def test_no_cic2(self):
        assert GC4016_GSM_EXAMPLE.cic2_order == 0
        assert GC4016_GSM_EXAMPLE.cic2_decimation == 1

    def test_output_roughly_10x_drm(self):
        """'roughly ten times the required sample rate for a DRM receiver'."""
        ratio = GC4016_GSM_EXAMPLE.output_rate_hz / REFERENCE_DDC.output_rate_hz
        assert 10 <= ratio <= 12


class TestValidation:
    def test_bad_decimation(self):
        with pytest.raises(ConfigurationError):
            DDCConfig(cic5_decimation=0)

    def test_bad_taps(self):
        with pytest.raises(ConfigurationError):
            DDCConfig(fir_taps=-1)

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            DDCConfig(input_rate_hz=0.0)

    def test_bad_order(self):
        with pytest.raises(ConfigurationError):
            DDCConfig(cic2_order=-1)

    def test_stage_config_validation(self):
        with pytest.raises(ConfigurationError):
            StageConfig("x", 1e6, 0)
        with pytest.raises(ConfigurationError):
            StageConfig("x", -1e6, 2)

    def test_stage_output_rate(self):
        s = StageConfig("x", 64.512e6, 16)
        assert s.output_rate_hz == pytest.approx(4.032e6)


class TestCheckFiniteArray:
    def test_returns_float64_copy_of_finite_input(self):
        out = check_finite_array("x", [1, -2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, -2.0, 3.0])

    def test_empty_is_accepted(self):
        assert check_finite_array("x", []).shape == (0,)

    def test_names_the_first_bad_value(self):
        with pytest.raises(
            ConfigurationError, match=r"^taps must be finite, got inf at index 1$"
        ):
            check_finite_array("taps", [0.0, np.inf, np.nan])

    def test_index_is_flat_for_2d_input(self):
        x = np.zeros((3, 4))
        x[2, 1] = -np.inf
        with pytest.raises(ConfigurationError, match="-inf at index 9$"):
            check_finite_array("x", x)

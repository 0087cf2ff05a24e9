"""Tests for the FPGA resource estimator (Table 4) and power model (Table 5)."""

from __future__ import annotations

import pytest

from repro import REFERENCE_DDC, DDCConfig
from repro.archs.fpga import (
    CYCLONE_I_EP1C3,
    CYCLONE_II_EP2C5,
    CycloneModel,
    FPGAPowerModel,
    estimate_ddc_resources,
)
from repro.archs.fpga.resources import require_fit
from repro.errors import ConfigurationError, MappingError

PUBLISHED_TABLE4 = {
    "EP1C3T100C6": dict(le=1656, mem=6780, mult=0, pins=41),
    "EP2C5T144C6": dict(le=906, mem=7686, mult=8, pins=41),
}

PUBLISHED_TABLE5 = {0.05: 120.9, 0.10: 141.4, 0.50: 305.3, 0.875: 458.9}


class TestTable4:
    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_le_within_10_percent(self, device):
        got = estimate_ddc_resources(device).logic_elements
        want = PUBLISHED_TABLE4[device.name]["le"]
        assert abs(got - want) / want < 0.10

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_memory_within_5_percent(self, device):
        got = estimate_ddc_resources(device).memory_bits
        want = PUBLISHED_TABLE4[device.name]["mem"]
        assert abs(got - want) / want < 0.05

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_multipliers_exact(self, device):
        got = estimate_ddc_resources(device).multipliers_9bit
        assert got == PUBLISHED_TABLE4[device.name]["mult"]

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_pins_exact(self, device):
        assert estimate_ddc_resources(device).pins == 41

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_design_fits_smallest_devices(self, device):
        usage = estimate_ddc_resources(device)
        assert usage.fits(device)
        require_fit(usage, device)  # must not raise

    def test_cyclone_ii_uses_fewer_les(self):
        """Embedded multipliers move logic out of the LE fabric."""
        le1 = estimate_ddc_resources(CYCLONE_I_EP1C3).logic_elements
        le2 = estimate_ddc_resources(CYCLONE_II_EP2C5).logic_elements
        assert le2 < le1 * 0.65

    def test_utilisation_fractions(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        util = usage.utilisation(CYCLONE_I_EP1C3)
        # Table 4: 56 % LEs, 12 % memory, 63 % pins on the Cyclone I.
        assert util["logic_elements"] == pytest.approx(0.56, abs=0.06)
        assert util["memory_bits"] == pytest.approx(0.12, abs=0.03)
        assert util["pins"] == pytest.approx(0.63, abs=0.05)

    def test_oversized_design_rejected(self):
        cfg = DDCConfig(fir_taps=1999, data_width=16)
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3, cfg)
        with pytest.raises(MappingError):
            require_fit(usage, CYCLONE_I_EP1C3)


class TestTable5:
    def test_cyclone_i_sweep_matches_published(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        for toggle, breakdown in model.table5_sweep(usage):
            want = PUBLISHED_TABLE5[toggle]
            assert breakdown.total_mw == pytest.approx(want, rel=0.02)

    def test_cyclone_i_static_constant(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        sweeps = model.table5_sweep(usage)
        for _, b in sweeps:
            assert b.static_w == pytest.approx(0.048)

    def test_cyclone_ii_published_point(self):
        usage = estimate_ddc_resources(CYCLONE_II_EP2C5)
        b = FPGAPowerModel(CYCLONE_II_EP2C5).estimate(usage)
        assert b.total_mw == pytest.approx(57.98, rel=0.02)
        assert b.static_w * 1e3 == pytest.approx(26.86, rel=1e-6)
        assert b.dynamic_w * 1e3 == pytest.approx(31.11, rel=0.03)

    def test_dynamic_linear_in_toggle(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        b1 = model.estimate(usage, internal_toggle=0.2)
        b2 = model.estimate(usage, internal_toggle=0.4)
        b3 = model.estimate(usage, internal_toggle=0.6)
        step1 = b2.total_w - b1.total_w
        step2 = b3.total_w - b2.total_w
        assert step1 == pytest.approx(step2, rel=1e-9)

    def test_power_scales_with_frequency(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        full = model.estimate(usage, frequency_hz=64.512e6)
        half = model.estimate(usage, frequency_hz=32.256e6)
        assert half.dynamic_w == pytest.approx(full.dynamic_w / 2, rel=1e-9)
        assert half.static_w == full.static_w

    def test_toggle_validation(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        with pytest.raises(ConfigurationError):
            model.estimate(usage, internal_toggle=1.5)
        with pytest.raises(ConfigurationError):
            model.estimate(usage, frequency_hz=-1.0)

    def test_sweep_is_the_estimate_at_each_toggle(self):
        """Each sweep point is the scalar estimate at that toggle, in
        the order given, endpoints included."""
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        toggles = (1.0, 0.0, 0.05, 0.875, 0.10)
        sweep = model.table5_sweep(usage, toggles, frequency_hz=40e6)
        assert [t for t, _ in sweep] == list(toggles)
        for toggle, breakdown in sweep:
            # dataclass equality: every field bitwise
            assert breakdown == model.estimate(usage, 40e6, toggle)
        assert model.table5_sweep(usage, ()) == []

    def test_sweep_rejects_an_out_of_range_toggle(self):
        usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
        model = FPGAPowerModel(CYCLONE_I_EP1C3)
        with pytest.raises(ConfigurationError):
            model.table5_sweep(usage, (0.1, 1.2))
        with pytest.raises(ConfigurationError):
            model.table5_sweep(usage, (-0.1,))


class TestCycloneModel:
    def test_implement_reference(self):
        report = CycloneModel(CYCLONE_II_EP2C5).implement(REFERENCE_DDC)
        assert report.feasible
        assert report.power_w == pytest.approx(0.05798, rel=0.02)
        assert report.clock_hz == REFERENCE_DDC.input_rate_hz

    def test_cyclone_i_feasible_at_64mhz(self):
        """Section 5.2.1: Cyclone I fmax 66.08 MHz > 64.512 MHz."""
        report = CycloneModel(CYCLONE_I_EP1C3).implement(REFERENCE_DDC)
        assert report.feasible

    def test_implement_checks_timing(self):
        model = CycloneModel(CYCLONE_I_EP1C3)
        fast = DDCConfig(input_rate_hz=100e6)
        assert not model.implement(fast).feasible

    def test_dynamic_power_component(self):
        model = CycloneModel(CYCLONE_II_EP2C5)
        dyn = model.dynamic_power_w(REFERENCE_DDC)
        assert dyn == pytest.approx(0.03111, rel=0.03)

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_single_tap_fir_is_unmappable(self, device):
        """A one-tap FIR implements zero taps: ``implement`` raises and
        ``implement_batch`` records the same error instead of aborting."""
        model = CycloneModel(device)
        config = DDCConfig(fir_taps=1)
        with pytest.raises(ConfigurationError) as raised:
            model.implement(config)
        batch = model.implement_batch([config, REFERENCE_DDC])
        assert not batch.mappable[0] and batch.mappable[1]
        error = batch.errors[0]
        assert type(error) is ConfigurationError
        assert str(error) == str(raised.value)

    @pytest.mark.parametrize("device", [CYCLONE_I_EP1C3, CYCLONE_II_EP2C5])
    def test_batch_over_a_grid_reports_the_power_model(self, device):
        """Over a word-width x taps grid, each batch entry is the power
        model's estimate of the estimated resources, or the estimator's
        own error where the design cannot be mapped."""
        model = CycloneModel(device)
        configs = [
            DDCConfig(data_width=w, fir_taps=taps)
            for w in (8, 12, 16, 20)
            for taps in (1, 63, 125)
        ]
        batch = model.implement_batch(configs)
        assert len(batch) == len(configs)
        for i, config in enumerate(configs):
            try:
                usage = estimate_ddc_resources(device, config)
                require_fit(usage, device)
            except (ConfigurationError, MappingError) as exc:
                assert not batch.mappable[i]
                with pytest.raises(type(exc)) as raised:
                    batch.report_at(i)
                assert str(raised.value) == str(exc)
                continue
            want = model.power_model.estimate(
                usage, config.input_rate_hz,
                model.internal_toggle, model.input_toggle,
            )
            assert batch.mappable[i]
            assert batch.power_w[i] == want.total_w
            assert batch.report_at(i).power_w == want.total_w
            assert bool(batch.feasible[i]) == (
                config.input_rate_hz <= device.fmax_ddc_hz
            )

"""Workload-protocol conformance + registry behaviour.

The parametrized half of this file is the *conformance suite* the
``Workload`` protocol promises: every workload in the registry must pass
it unchanged.  It asserts protocol completeness (identity, default
configuration, axes, models), the batch == scalar bit-identity contract
through ``run_sweep``/``run_explore`` (serial and on the thread pool),
and config picklability.

The rest covers the registry (names, the default, unknown names, the one
shared evaluator per workload), the ``--workload`` CLI flag, the RTL
engine selector and the refusal of non-finite configuration fields.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.evaluator import ReportCache, config_cache_key
from repro.errors import ConfigurationError
from repro.explore import ExploreSpec
from repro.explore.refine import run_explore
from repro.sweep import SweepSpec, run_sweep
from repro.workloads import DEFAULT_WORKLOAD, Workload, available, get
from repro.workloads.drm import STATION_SPACING_HZ, DRMReceiverConfig
from repro.workloads.ofdm import OFDMDemodConfig

WORKLOADS = available()


# --------------------------------------------------------------- conformance
@pytest.mark.parametrize("name", WORKLOADS)
class TestWorkloadConformance:
    """Every workload honours the full protocol."""

    def test_identity(self, name):
        wl = get(name)
        assert wl.name == name
        assert wl.title
        assert isinstance(wl, Workload)
        assert get(name) is wl  # registry caches instances

    def test_default_config(self, name):
        wl = get(name)
        cfg = wl.default_config
        assert isinstance(cfg, wl.config_cls)
        assert wl.check_config(cfg) is cfg

    def test_config_rejects_wrong_type(self, name):
        wl = get(name)
        with pytest.raises(ConfigurationError, match="expects a"):
            wl.check_config(object())

    def test_axes_are_config_fields(self, name):
        wl = get(name)
        axes = wl.config_axes()
        field_names = {
            f.name for f in dataclasses.fields(wl.config_cls)
        }
        assert set(axes) == field_names
        assert set(wl.continuous_axes()) <= set(axes)

    def test_default_explore_axis(self, name):
        wl = get(name)
        field, lo, hi = wl.default_explore_axis()
        assert field in wl.continuous_axes()
        assert lo < hi

    def test_scenario_axes_valid_and_feasible(self, name):
        wl = get(name)
        axes = wl.scenario_axes()
        assert axes
        wl.check_axes(tuple(axes.items()), kind="scenario")
        # Every scenario value bound alone to the default config must
        # leave >= 1 feasible architecture (the <name>_sweep bench grid).
        ev = wl.evaluator()
        for field, values in axes.items():
            for value in values:
                cfg = dataclasses.replace(
                    wl.default_config, **{field: value}
                )
                cands = ev.scenario_candidates(cfg, strict=False)
                assert cands, f"{name}: no candidate at {field}={value}"

    @staticmethod
    def _scenario_configs(wl):
        """The default configuration and each scenario-axis value bound
        alone to it, each also at 8-bit words (so that the smallest
        devices map something too)."""
        configs = [wl.default_config] + [
            dataclasses.replace(wl.default_config, **{field: value})
            for field, values in wl.scenario_axes().items()
            for value in values
        ]
        return configs + [
            dataclasses.replace(c, data_width=8) for c in configs
        ]

    def test_one_name_per_model(self, name):
        """A model's ``name`` is the ``architecture`` of its vectorised
        batch, its scalar batch and every report it maps."""
        wl = get(name)
        configs = self._scenario_configs(wl)
        labels = {}
        for model in wl.models():
            batch = model.implement_batch(configs)
            scalar = model.implement_batch_scalar(configs)
            empty = model.implement_batch([])
            reports = [
                r for r in batch.reports + scalar.reports if r is not None
            ]
            assert reports, f"{model.name} maps no configuration"
            labels[model.name] = {
                batch.architecture, scalar.architecture, empty.architecture,
            } | {r.architecture for r in reports}
        assert {n: ls for n, ls in labels.items() if ls != {n}} == {}

    def test_reports_carry_the_model_flexibility(self, name):
        wl = get(name)
        configs = self._scenario_configs(wl)
        for model in wl.models():
            reports = model.implement_batch(configs).reports
            assert all(
                r.flexibility == model.flexibility
                for r in reports
                if r is not None
            )

    def test_models_fresh_and_evaluator_shared(self, name):
        wl = get(name)
        a, b = wl.models(), wl.models()
        assert len(a) == len(b) >= 1
        assert all(x is not y for x, y in zip(a, b))
        assert wl.shared_evaluator() is wl.shared_evaluator()
        assert wl.evaluator() is not wl.evaluator()

    def test_config_pickles_and_cache_keys(self, name):
        wl = get(name)
        cfg = wl.default_config
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert config_cache_key(clone) == config_cache_key(cfg)
        assert config_cache_key(cfg) == tuple(
            getattr(cfg, f.name)
            for f in dataclasses.fields(wl.config_cls)
        )

    def test_sweep_batch_scalar_identity(self, name):
        wl = get(name)
        spec = SweepSpec.from_axes(
            dict(wl.scenario_axes()), duty_cycle_steps=3, workload=name
        )
        batch = run_sweep(spec, engine="batch")
        scalar = run_sweep(spec, engine="scalar")
        assert batch.render("json") == scalar.render("json")
        assert batch.render("csv") == scalar.render("csv")

    def test_explore_adaptive_dense_identity(self, name):
        wl = get(name)
        spec = ExploreSpec(
            coarse_steps=3, target_steps=5, duty_cycle_steps=3,
            workload=name,
        )
        assert spec.axis == wl.default_explore_axis()
        adaptive = run_explore(
            spec, "adaptive", wl.evaluator(cache=ReportCache())
        )
        dense = run_explore(spec, "dense", wl.evaluator())
        assert adaptive.render("json") == dense.render("json")

    def test_sweep_thread_pool_identity(self, name):
        spec = SweepSpec.from_axes(
            dict(get(name).scenario_axes()),
            duty_cycle_steps=2,
            workload=name,
        )
        serial = run_sweep(spec)
        pooled = run_sweep(spec, workers=2)
        assert serial.render("json") == pooled.render("json")


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_available_lists_builtins(self):
        assert available() == ("ddc", "drm", "ofdm")

    def test_default_is_ddc(self):
        assert DEFAULT_WORKLOAD == "ddc"
        assert get() is get("ddc")

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get("nonesuch")

    def test_spec_rejects_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            SweepSpec(workload="nonesuch")
        with pytest.raises(ConfigurationError, match="unknown workload"):
            ExploreSpec(workload="nonesuch")

    def test_spec_rejects_cross_workload_config(self):
        ddc_cfg = get("ddc").default_config
        with pytest.raises(ConfigurationError, match="expects a"):
            SweepSpec(base_config=ddc_cfg, workload="ofdm")

    def test_spec_axes_validated_per_workload(self):
        # fir_taps is a DDC field, not an OFDM one.
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            SweepSpec.from_axes({"fir_taps": (63,)}, workload="ofdm")
        SweepSpec.from_axes({"fft_size": (2048,)}, workload="ofdm")

    def test_paper_tables_share_the_ddc_evaluator(self):
        from repro.paper.tables import table7

        ev = get("ddc").shared_evaluator()
        table7()
        before = ev.cache.hits
        table7()
        assert ev.cache.hits > before
        assert [type(m) for m in ev.models] == [
            type(m) for m in get("ddc").models()
        ]

    def test_cli_workload_flag(self, capsys):
        from repro.sweep.__main__ import main as sweep_main

        rc = sweep_main(
            ["--workload", "ofdm", "--steps", "2",
             "--axis", "fft_size=2048,4096", "--summary"]
        )
        assert rc == 0
        assert "OFDM" in capsys.readouterr().out

    def test_cli_explore_workload_flag(self, capsys):
        from repro.explore.__main__ import main as explore_main

        rc = explore_main(
            ["--workload", "drm", "--coarse", "2", "--target", "3",
             "--steps", "2", "--summary"]
        )
        assert rc == 0
        assert "DRM" in capsys.readouterr().out


# ---------------------------------------------------------- engine selector
class TestEngineKwargShims:
    def test_rtl_unknown_engine(self):
        from repro.archs.fpga.rtl_ddc import RTLDDC

        with pytest.raises(ConfigurationError, match="unknown RTL run"):
            RTLDDC().run(np.zeros(8, dtype=np.int64), engine="bogus")


class TestWorkloadConfigs:
    """Validation and derived quantities of the DRM and OFDM configs."""

    def test_ofdm_defaults_derived(self):
        cfg = OFDMDemodConfig()
        assert cfg.symbol_len == 2048 + 504
        assert cfg.symbol_rate_hz == pytest.approx(2_048_000.0 / 2552)
        assert cfg.fft_stages == 11
        assert cfg.butterflies_per_symbol == 1024 * 11

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("sample_rate_hz", 0.0, "sample_rate_hz"),
            ("fft_size", 4, "power of two"),
            ("fft_size", 1000, "power of two"),
            ("cp_len", -1, "cp_len"),
            ("cp_len", 2048, "cp_len"),
            ("carriers", 0, "carriers"),
            ("carriers", 2049, "carriers"),
            ("data_width", 7, "data_width"),
            ("data_width", 33, "data_width"),
        ],
    )
    def test_ofdm_config_validation(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            OFDMDemodConfig(**{field: value})

    def test_drm_rails_are_one_station_apart(self):
        cfg = DRMReceiverConfig()
        assert cfg.station_frequencies() == tuple(
            10e6 + k * STATION_SPACING_HZ for k in range(3))
        rail = cfg.ddc_config(2)
        assert rail.nco_frequency_hz == cfg.station_frequencies()[2]
        assert rail.total_decimation == cfg.total_decimation == 2688
        assert rail.output_rate_hz == cfg.output_rate_hz == pytest.approx(24e3)

    @pytest.mark.parametrize("channel", [-1, 3])
    def test_drm_channel_out_of_range(self, channel):
        with pytest.raises(ConfigurationError, match="out of range 0..2"):
            DRMReceiverConfig().ddc_config(channel)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_channels": 0}, "n_channels"),
            # The highest rail (not just the first) must stay below Nyquist.
            ({"n_channels": 400}, "Nyquist"),
        ],
    )
    def test_drm_config_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            DRMReceiverConfig(**kwargs)


# ------------------------------------------------------ non-finite configs
def _float_fields():
    """``(config class, field)`` for every float field of each workload's
    config — the fields nan/inf can reach through an axis."""
    classes = {get(name).config_cls for name in WORKLOADS}
    return [
        (cls, f.name)
        for cls in sorted(classes, key=lambda c: c.__name__)
        for f in dataclasses.fields(cls)
        if f.type in (float, "float")
    ]


class TestNonFiniteConfigs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "cls,field", _float_fields(), ids=lambda v: getattr(v, "__name__", v)
    )
    def test_refused_naming_the_field(self, cls, field, value):
        with pytest.raises(ConfigurationError, match="must be finite") as exc:
            cls(**{field: value})
        assert f"{cls.__name__}.{field}" in str(exc.value)

    def test_every_workload_has_a_float_field(self):
        assert {cls for cls, _ in _float_fields()} == {
            get(name).config_cls for name in WORKLOADS
        }

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_cli_refuses_non_finite_axis(self, value, capsys):
        from repro.sweep.__main__ import main

        assert main(["--axis", f"input_rate_hz={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DDCConfig.input_rate_hz must be finite" in captured.err

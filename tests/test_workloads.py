"""Workload-protocol conformance + registry behaviour.

The parametrized half of this file is the *conformance suite* the
``Workload`` protocol promises: every registered workload — in-tree or
third-party — must pass it unchanged.  It asserts protocol completeness
(axes, chain, formats, mappings all well-formed), the batch == scalar
bit-identity contract through ``run_sweep``/``run_explore``, and config
picklability through a ``repro.parallel`` process pool.

The rest covers the registry (env default, unknown names, duplicate
registration) and the ``engine=``/legacy ``mode=`` deprecation shims.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import StageConfig
from repro.core.evaluator import ReportCache, config_cache_key
from repro.errors import ConfigurationError
from repro.explore import ExploreSpec
from repro.explore.refine import run_explore
from repro.sweep import SweepSpec, run_sweep
from repro.workloads import (
    DEFAULT_WORKLOAD,
    ENV_VAR,
    Workload,
    WorkloadMapping,
    available,
    default_name,
    get,
    register,
)
from repro.workloads.base import Workload as BaseWorkload

WORKLOADS = available()


# --------------------------------------------------------------- conformance
@pytest.mark.parametrize("name", WORKLOADS)
class TestWorkloadConformance:
    """Every registered workload honours the full protocol."""

    def test_identity(self, name):
        wl = get(name)
        assert wl.name == name
        assert wl.title
        assert isinstance(wl, BaseWorkload)
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

    def test_chain_and_formats(self, name):
        wl = get(name)
        chain = wl.chain()
        assert chain and all(isinstance(s, StageConfig) for s in chain)
        formats = wl.fixed_formats()
        assert formats
        for label, fmt in formats.items():
            assert isinstance(label, str) and label
            assert fmt.width > 0

    def test_mappings(self, name):
        wl = get(name)
        mappings = wl.mappings()
        assert mappings
        runnable = 0
        for slug, mapping in mappings.items():
            assert isinstance(mapping, WorkloadMapping), slug
            assert mapping.architecture and mapping.description
            if mapping.run is not None:
                runnable += 1
        assert runnable >= 1  # >= 1 executable mapping per workload

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

    def test_sweep_process_pool_identity(self, name):
        spec = SweepSpec.from_axes(
            dict(get(name).scenario_axes()),
            duty_cycle_steps=2,
            workload=name,
        )
        serial = run_sweep(spec)
        pooled = run_sweep(spec, workers=2, backend="process")
        assert serial.render("json") == pooled.render("json")


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_available_lists_builtins(self):
        assert {"ddc", "drm", "ofdm"} <= set(available())

    def test_default_name_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_name() == DEFAULT_WORKLOAD
        monkeypatch.setenv(ENV_VAR, "ofdm")
        assert default_name() == "ofdm"
        assert get().name == "ofdm"
        monkeypatch.setenv(ENV_VAR, "")
        assert default_name() == DEFAULT_WORKLOAD

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get("nonesuch")

    def test_register_duplicate_and_replace(self):
        class Dummy(Workload):
            name = "ddc"  # collides with the built-in

            def models(self):
                return []

            def default_explore_axis(self):
                return ("x", 0.0, 1.0)

            def scenario_axes(self):
                return {}

            def chain(self, config=None):
                return ()

            def fixed_formats(self, config=None):
                return {}

            def mappings(self):
                return {}

        with pytest.raises(ConfigurationError, match="already registered"):
            register(Dummy())

        class Anon(Dummy):
            name = "abstract"

        with pytest.raises(ConfigurationError, match="non-default name"):
            register(Anon())

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

    def test_ddc_shared_evaluator_is_process_singleton(self):
        from repro.core.evaluator import shared_evaluator

        assert get("ddc").shared_evaluator() is shared_evaluator()

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


# ------------------------------------------------------- deprecation shims
class TestEngineKwargShims:
    def test_rtl_unknown_engine(self):
        from repro.archs.fpga.rtl_ddc import RTLDDC

        with pytest.raises(ConfigurationError, match="unknown RTL run"):
            RTLDDC().run(np.zeros(8, dtype=np.int64), engine="bogus")

"""The design-space exploration engine: Pareto, refinement, store.

The load-bearing contracts (mirroring the batch/oracle conventions of
``tests/test_evaluator_batch.py`` and ``tests/test_sweep.py``):

- the vectorised Pareto mask is **bit-identical** to the scalar
  double-loop oracle, and both satisfy the frontier axioms: members are
  mutually non-dominated and every dominated row has a dominating
  frontier witness (Hypothesis-pinned over random objective matrices);
- adaptive refinement delivers the same report, byte for byte, as the
  dense scalar-oracle grid on random small spaces over the rate axis;
- the on-disk :class:`~repro.explore.store.ReportStore` round-trips
  reports and cached mapping errors exactly, ignores records of models
  whose content digest no longer matches, and warm-starts a second run
  to >= 90 % report-cache hits with byte-identical frontiers (the PR's
  acceptance criterion).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archs.asic.lowpower import LowPowerDDCModel
from repro.archs.montium.model import MontiumModel
from repro.config import REFERENCE_DDC
from repro.core.evaluator import (
    DDCEvaluator,
    ReportCache,
    config_cache_key,
    default_models,
)
from repro.errors import ConfigurationError
from repro.explore import (
    ExploreSpec,
    ReportStore,
    frontier_from_batches,
    frontier_scalar,
    model_digest,
    pareto_mask,
    pareto_mask_scalar,
    run_explore,
)
from repro.explore.__main__ import main as explore_main
from repro.explore.store import space_digest
from repro.workloads import get as get_workload

from cache_helpers import cached_implement

#: A small space spanning both Cyclone f_max thresholds (candidate-set
#: flips at ~66.08 and ~80.87 MHz) — cheap enough for scalar oracles.
SMALL_SPACE = ExploreSpec(
    axis=("input_rate_hz", 48_384_000.0, 96_768_000.0),
    coarse_steps=3,
    target_steps=9,
    duty_cycle_steps=11,
)


def stored_frontier(store, spec, models):
    """The report document ``save_frontier`` stored for this space, if any."""
    _, frontiers = store._read_records()
    return frontiers.get(space_digest(spec, models))


# --------------------------------------------------------------- the engine
def finite_rows():
    value = st.one_of(
        st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False, width=32
        ),
        st.sampled_from([0.0, 1.0, 2.0, math.inf]),
    )
    n = st.shared(st.integers(min_value=1, max_value=6), key="n")
    m = st.shared(st.integers(min_value=1, max_value=3), key="m")
    return n.flatmap(
        lambda rows: m.flatmap(
            lambda cols: st.lists(
                st.lists(value, min_size=cols, max_size=cols),
                min_size=rows, max_size=rows,
            )
        )
    )


class TestParetoEngine:
    @settings(max_examples=200, deadline=None)
    @given(rows=finite_rows(), data=st.data())
    def test_batch_equals_scalar_and_axioms(self, rows, data):
        eligible = data.draw(
            st.lists(
                st.booleans(), min_size=len(rows), max_size=len(rows)
            )
        )
        scalar = pareto_mask_scalar(rows, eligible)
        batch = pareto_mask(
            np.array(rows, dtype=float), np.array(eligible, dtype=bool)
        )
        assert scalar == list(batch)
        # Frontier axioms, on the scalar oracle:
        members = [j for j, keep in enumerate(scalar) if keep]
        for j in members:  # mutually non-dominated
            for i in members:
                if i == j:
                    continue
                all_le = all(
                    a <= b for a, b in zip(rows[i], rows[j])
                )
                any_lt = any(a < b for a, b in zip(rows[i], rows[j]))
                assert not (all_le and any_lt)
        for j, keep in enumerate(scalar):  # dominated -> member witness
            if keep or not eligible[j]:
                continue
            assert any(
                all(a <= b for a, b in zip(rows[i], rows[j]))
                and any(a < b for a, b in zip(rows[i], rows[j]))
                for i in members
            )

    def test_batched_leading_dimension(self):
        rows = np.array(
            [
                [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]],
                [[1.0, 1.0], [1.0, 1.0], [0.5, 2.0]],
            ]
        )
        got = pareto_mask(rows)
        assert got.shape == (2, 3)
        for k in range(2):
            assert list(got[k]) == pareto_mask_scalar(rows[k].tolist())

    def test_duplicates_survive_together(self):
        assert pareto_mask_scalar([[1.0, 2.0], [1.0, 2.0]]) == [True, True]

    def test_ineligible_rows_neither_join_nor_dominate(self):
        rows = [[0.0, 0.0], [1.0, 1.0]]
        assert pareto_mask_scalar(rows, [False, True]) == [False, True]

    def test_frontier_from_batches_equals_scalar(self):
        models = default_models()
        configs = [
            dataclasses.replace(REFERENCE_DDC, input_rate_hz=r)
            for r in (32_256_000.0, 64_512_000.0, 90_000_000.0)
        ]
        batches = [m.implement_batch(configs) for m in models]
        objectives = ("power_w", "area_mm2", "clock_hz")
        masks = frontier_from_batches(batches, objectives)
        for i, config in enumerate(configs):
            reports = []
            for m in models:
                try:
                    reports.append(m.implement(config))
                except ConfigurationError:
                    reports.append(None)
            assert list(masks[i]) == frontier_scalar(reports, objectives)

    def test_unknown_objective_rejected(self):
        report = LowPowerDDCModel().implement(REFERENCE_DDC)
        with pytest.raises(ConfigurationError, match="objective"):
            frontier_scalar([report], ("bogus",))


class TestExploreSpec:
    def test_validates_axis_field(self):
        with pytest.raises(ConfigurationError, match="continuous axis"):
            ExploreSpec(axis=("data_width", 8.0, 16.0))

    def test_validates_axis_range(self):
        with pytest.raises(ConfigurationError, match="lo < hi"):
            ExploreSpec(axis=("input_rate_hz", 9e7, 9e7))

    @pytest.mark.parametrize(
        "lo,hi",
        [(3e7, math.inf), (math.nan, 1e8), (-math.inf, 1e8), (3e7, math.nan)],
    )
    def test_refuses_non_finite_axis_bounds(self, lo, hi):
        with pytest.raises(ConfigurationError, match="ExploreSpec.axis"):
            ExploreSpec(axis=("input_rate_hz", lo, hi))

    def test_discrete_axis_may_not_repeat_the_continuous_axis(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExploreSpec.from_axes(
                {"input_rate_hz": (8e7,)},
                axis=("input_rate_hz", 6e7, 9e7),
            )

    def test_validates_bisection_geometry(self):
        with pytest.raises(ConfigurationError, match="2\\*\\*k"):
            ExploreSpec(coarse_steps=5, target_steps=13)  # stride 3

    def test_validates_objectives(self):
        with pytest.raises(ConfigurationError, match="objective"):
            ExploreSpec(objectives=("power_w", "bogus"))
        with pytest.raises(ConfigurationError, match="unique"):
            ExploreSpec(objectives=("power_w", "power_w"))

    def test_probe_indices_are_deterministic_and_disjoint(self):
        spec = dataclasses.replace(SMALL_SPACE, probe_points=3, seed=7)
        probes = spec.probe_indices()
        assert probes == spec.probe_indices()
        assert len(probes) == 3
        assert not set(probes) & set(spec.coarse_indices())
        other = dataclasses.replace(spec, seed=8).probe_indices()
        assert probes != other or len(set(range(9)) - {0, 4, 8}) <= 3

    def test_grid_geometry(self):
        assert SMALL_SPACE.coarse_indices() == [0, 4, 8]
        assert SMALL_SPACE.coarse_stride == 4
        assert SMALL_SPACE.n_cells == 9
        assert SMALL_SPACE.value_at(0) == 48_384_000.0
        assert SMALL_SPACE.value_at(8) == 96_768_000.0


class TestAdaptiveEqualsDense:
    def test_small_space_byte_identical(self):
        adaptive = run_explore(
            SMALL_SPACE, "adaptive", DDCEvaluator(cache=ReportCache())
        )
        dense = run_explore(SMALL_SPACE, "dense")
        assert adaptive.render("json") == dense.render("json")
        assert adaptive.render("csv") == dense.render("csv")
        assert adaptive.evaluations < dense.evaluations == 9

    def test_discrete_axes_and_architectures(self):
        spec = dataclasses.replace(
            SMALL_SPACE,
            discrete_axes=(("data_width", (10, 12)),),
            architectures=(
                "Montium TP", "Altera Cyclone II", "Altera Cyclone I",
            ),
            objectives=("power_w", "energy_per_output_sample_j"),
        )
        adaptive = run_explore(
            spec, "adaptive", DDCEvaluator(cache=ReportCache())
        )
        dense = run_explore(spec, "dense")
        assert adaptive.render("json") == dense.render("json")
        assert len(adaptive.points) == 2

    def test_filtered_drm_frontier_names_the_reports(self):
        """Regression: the drm Cyclone models once labelled their batches
        with the device name but their reports without it, so filtering
        by the report name dropped the Cyclone II from the adaptive
        frontier only and the engines' reports differed."""
        wanted = "Altera Cyclone II (DRM)"
        spec = ExploreSpec(
            workload="drm", coarse_steps=3, target_steps=9,
            duty_cycle_steps=3, architectures=(wanted, "Montium TP (DRM)"),
        )
        drm = get_workload("drm")
        adaptive = run_explore(
            spec, "adaptive", drm.evaluator(cache=ReportCache())
        )
        dense = run_explore(spec, "dense", drm.evaluator())
        assert adaptive.render("json") == dense.render("json")
        cells = [cell for p in adaptive.points for cell in p.cells]
        assert any(wanted in cell.candidates for cell in cells)
        assert any(wanted in cell.frontier for cell in cells)

    @settings(max_examples=8, deadline=None)
    @given(
        lo=st.sampled_from([24_192_000.0, 40_320_000.0, 56_448_000.0]),
        span=st.sampled_from([16_128_000.0, 48_384_000.0, 80_640_000.0]),
        shape=st.sampled_from([(3, 9), (5, 9), (3, 5)]),
        steps=st.sampled_from([5, 11]),
        objectives=st.sampled_from(
            [
                ("power_w",),
                ("power_w", "area_mm2"),
                ("energy_per_output_sample_j", "clock_hz"),
            ]
        ),
        probes=st.sampled_from([0, 2]),
    )
    def test_random_small_spaces(
        self, lo, span, shape, steps, objectives, probes
    ):
        coarse, target = shape
        spec = ExploreSpec(
            axis=("input_rate_hz", lo, lo + span),
            coarse_steps=coarse,
            target_steps=target,
            duty_cycle_steps=steps,
            objectives=objectives,
            probe_points=probes,
            seed=3,
        )
        adaptive = run_explore(
            spec, "adaptive", DDCEvaluator(cache=ReportCache())
        )
        dense = run_explore(spec, "dense")
        assert adaptive.render("json") == dense.render("json")

    def test_budget_stops_refinement_but_fills_every_cell(self):
        spec = dataclasses.replace(SMALL_SPACE, max_evaluations=4)
        report = run_explore(
            spec, "adaptive", DDCEvaluator(cache=ReportCache())
        )
        assert report.evaluations <= 4
        assert len(report.points[0].cells) == spec.target_steps
        assert [c.index for c in report.points[0].cells] == list(range(9))

    def test_snapshots_cover_the_coarse_grid(self):
        report = run_explore(
            SMALL_SPACE, "adaptive", DDCEvaluator(cache=ReportCache())
        )
        assert [s.index for s in report.points[0].snapshots] == [0, 4, 8]
        snap = report.points[0].snapshots[0]
        names = [a.name for a in snap.architectures]
        assert "Montium TP" in names and "Altera Cyclone II" in names

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            run_explore(SMALL_SPACE, "magic")


class TestReportStore:
    def _space(self):
        return SMALL_SPACE

    def test_round_trip_reports_and_errors(self, tmp_path):
        models = [LowPowerDDCModel(), MontiumModel()]
        off = dataclasses.replace(
            REFERENCE_DDC, cic5_decimation=42, fir_decimation=4
        )
        cache = ReportCache()
        for m in models:
            cache.implement_batch(m, [REFERENCE_DDC, off])
        store = ReportStore(tmp_path / "store.jsonl")
        assert store.save(cache) == 4

        clone = ReportCache()
        loaded = ReportStore(tmp_path / "store.jsonl").load(clone, models)
        assert loaded == 4
        for m in models:
            want = cache.implement_batch(m, [REFERENCE_DDC, off])
            got = clone.implement_batch(m, [REFERENCE_DDC, off])
            assert got.reports == want.reports
            assert got.architecture == want.architecture
            for g, w in zip(got.errors, want.errors):
                assert (g is None) == (w is None)
                if g is not None:
                    assert type(g) is type(w) and str(g) == str(w)
        # everything above served from the store, no model re-runs
        assert clone.misses == 0

    def test_invalidation_by_model_content_hash(self, tmp_path):
        cache = ReportCache()
        model = LowPowerDDCModel()
        cached_implement(cache, model, REFERENCE_DDC)
        store = ReportStore(tmp_path / "store.jsonl")
        store.save(cache)
        # A model whose constants changed has a different cache_key()
        # (the cache-key contract), so its digest no longer matches.
        tweaked = LowPowerDDCModel(
            dataclasses.replace(
                model.spec, power_w_at_reference=0.030
            )
        )
        assert model_digest(tweaked.cache_key()) != model_digest(
            model.cache_key()
        )
        fresh = ReportCache()
        assert store.load(fresh, [tweaked]) == 0
        assert store.load(fresh, [model]) == 1

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            ReportStore(path).load(ReportCache(), default_models())

    @pytest.mark.parametrize("old_kind", ["label", "checkpoint"])
    def test_old_label_records_load_and_drop_out(self, tmp_path, old_kind):
        """Older store files hold record kinds no reader keeps: ``label``
        records (from before a model's name was its reports'
        architecture) and ``checkpoint`` records (the round state of an
        exploration killed when explore still saved one).  They load as
        nothing, the report records beside them still load, and the next
        save drops them."""
        model = LowPowerDDCModel()
        cache = ReportCache()
        report = cached_implement(cache, model, REFERENCE_DDC)
        store = ReportStore(tmp_path / "store.jsonl")
        store.save(cache)
        head, *records = store.path.read_text().splitlines()
        old = json.dumps(
            {
                "label": {
                    "architecture": model.name,
                    "kind": "label",
                    "model": model_digest(model.cache_key()),
                },
                "checkpoint": {
                    "kind": "checkpoint",
                    "space": space_digest(SMALL_SPACE, [model]),
                    "doc": {
                        "round": 1,
                        "evaluations": 3,
                        "counts": [3],
                        "evaluated": [{}],
                        "pending": [[0, 1]],
                    },
                },
            }[old_kind],
            sort_keys=True,
        )
        store.path.write_text("\n".join([head, old, *records]) + "\n")
        warm = ReportCache()
        assert store.load(warm, [model]) == 1
        assert cached_implement(warm, model, REFERENCE_DDC) == report
        assert warm.misses == 0
        store.save(warm)
        assert f'"kind": "{old_kind}"' not in store.path.read_text()

    def test_save_leaves_no_temp_droppings(self, tmp_path):
        cache = ReportCache()
        cached_implement(cache, LowPowerDDCModel(), REFERENCE_DDC)
        store = ReportStore(tmp_path / "store.jsonl")
        store.save(cache)
        store.save(cache)
        assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]

    def test_save_merges_with_existing_records(self, tmp_path):
        store = ReportStore(tmp_path / "store.jsonl")
        first = ReportCache()
        cached_implement(first, LowPowerDDCModel(), REFERENCE_DDC)
        store.save(first)
        second = ReportCache()
        cached_implement(second, MontiumModel(), REFERENCE_DDC)
        assert store.save(second) == 2  # union, not clobber

    def test_warm_start_hit_rate_and_identical_frontiers(self, tmp_path):
        """The acceptance criterion: a second run against a warm store
        reproduces the same frontiers with >= 90 % report-cache hits."""
        spec = self._space()
        store = ReportStore(tmp_path / "store.jsonl")

        cold_ev = DDCEvaluator(cache=ReportCache())
        cold = run_explore(spec, "adaptive", cold_ev)
        store.save(cold_ev.cache)
        store.save_frontier(spec, cold_ev.models, cold.to_json_doc())

        warm_cache = ReportCache()
        warm_ev = DDCEvaluator(cache=warm_cache)
        assert store.load(warm_cache, warm_ev.models) > 0
        warm = run_explore(spec, "adaptive", warm_ev)
        total = warm_cache.hits + warm_cache.misses
        assert total > 0
        assert warm_cache.hits / total >= 0.90
        assert warm.render("json") == cold.render("json")
        assert stored_frontier(store, spec, warm_ev.models) == json.loads(
            json.dumps(cold.to_json_doc())
        )

    def test_save_frontier_writes_report_lines_back_as_read(self, tmp_path):
        """``save_frontier`` encodes only the frontier records: every
        report line comes back byte for byte, here one spelled without
        spaces."""
        off = dataclasses.replace(REFERENCE_DDC, cic5_decimation=42)
        cache = ReportCache()
        for m in (LowPowerDDCModel(), MontiumModel()):
            cache.implement_batch(m, [REFERENCE_DDC, off])
        store = ReportStore(tmp_path / "store.jsonl")
        store.save(cache)
        head, first, *rest = store.path.read_text().splitlines()
        tight = json.dumps(json.loads(first), separators=(",", ":"))
        assert tight != first
        store.path.write_text("\n".join([head, tight, *rest]) + "\n")
        store.save_frontier(SMALL_SPACE, default_models(), {"cells": 9})
        *reports, frontier = store.path.read_text().splitlines()
        assert reports == [head, tight, *rest]
        assert json.loads(frontier)["doc"] == {"cells": 9}

    def test_frontier_snapshot_keyed_on_space(self, tmp_path):
        store = ReportStore(tmp_path / "store.jsonl")
        models = default_models()
        store.save_frontier(SMALL_SPACE, models, {"cells": 9})
        other = dataclasses.replace(SMALL_SPACE, target_steps=5)
        assert stored_frontier(store, other, models) is None
        assert stored_frontier(store, SMALL_SPACE, models) == {"cells": 9}


class TestReportCacheHook:
    def test_insert_and_entries_round_trip(self):
        cache = ReportCache()
        model = LowPowerDDCModel()
        report = model.implement(REFERENCE_DDC)
        cache.insert(
            model.cache_key(), config_cache_key(REFERENCE_DDC), report,
            None,
        )
        assert cached_implement(cache, model, REFERENCE_DDC) == report
        assert cache.hits == 1 and cache.misses == 0
        entries = list(cache.entries())
        assert entries == [
            (
                model.cache_key(),
                config_cache_key(REFERENCE_DDC),
                report,
                None,
            )
        ]

    def test_insert_rejects_malformed_entries(self):
        cache = ReportCache()
        with pytest.raises(ConfigurationError, match="exactly one"):
            cache.insert(("m",), (1,), None, None)


class TestExploreCLI:
    def test_verify_small_space(self, capsys):
        assert (
            explore_main(
                ["--verify", "--coarse", "3", "--target", "9",
                 "--steps", "11"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verify OK" in out

    def test_report_and_summary(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.json"
        assert (
            explore_main(
                ["--coarse", "3", "--target", "9", "--steps", "11",
                 "--output", str(out_path)]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-explore/v1"
        assert len(doc["points"][0]["cells"]) == 9
        assert (
            explore_main(
                ["--coarse", "3", "--target", "9", "--steps", "11",
                 "--summary"]
            )
            == 0
        )
        assert "frontier" in capsys.readouterr().out

    def test_bad_spec_is_a_clean_error(self, capsys):
        assert explore_main(["--target", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["3e7:inf", "nan:1e8"])
    def test_non_finite_axis_is_a_clean_error(self, bounds, capsys):
        assert explore_main(["--axis", f"input_rate_hz={bounds}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ExploreSpec.axis bounds must be finite" in captured.err

    def test_store_requires_the_adaptive_engine(self, tmp_path, capsys):
        """--store with the uncached modes is a loud error, not a
        silently skipped spill."""
        path = str(tmp_path / "s.jsonl")
        for extra in (["--engine", "dense"], ["--verify"]):
            assert explore_main(["--store", path, *extra]) == 2
            assert "adaptive engine" in capsys.readouterr().err


def _store_header() -> str:
    return json.dumps({"schema": "repro-explore-store/v1"}) + "\n"


def _non_utf8_store(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(_store_header().encode() + b"\xff\xfe\x80 garbage\n")
    return path


def _directory_store(tmp_path):
    path = tmp_path / "store"
    path.mkdir()
    return path


def _store_under_a_file(tmp_path):
    (tmp_path / "file").write_text("not a directory\n")
    return tmp_path / "file" / "store.jsonl"


def _report_without_technology(tmp_path):
    """A record of a model the CLI runs, whose report lost a field."""
    model = get_workload("ddc").shared_evaluator().models[0]
    cache = ReportCache()
    cached_implement(cache, model, REFERENCE_DDC)
    store = ReportStore(tmp_path / "store.jsonl")
    store.save(cache)
    head, line = store.path.read_text().splitlines()
    record = json.loads(line)
    del record["report"]["technology"]
    store.path.write_text(f"{head}\n{json.dumps(record)}\n")
    return store.path


def _torn_tail(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text(_store_header() + '{"kind": "report", "model"')
    return path


def _garbled_header(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('definitely not json\n{"kind": "label"}\n')
    return path


def _snapshot(tmp_path) -> dict:
    return {
        p.relative_to(tmp_path): p.read_bytes() if p.is_file() else None
        for p in tmp_path.rglob("*")
    }


class TestUnreadableStore:
    """A store the CLI cannot read is refused: exit 2 with one
    ``error:`` line naming the path, and nothing on disk changes."""

    @pytest.mark.parametrize(
        "make, names",
        [
            (_non_utf8_store, ":2: damaged report store, not UTF-8"),
            (_directory_store, "Is a directory"),
            (_store_under_a_file, "Not a directory"),
            (_report_without_technology, ":2: damaged report store, bad"),
            (_torn_tail, ":2: damaged report store, not a JSON line"),
            (_garbled_header, ":1: damaged report store, not a JSON line"),
        ],
        ids=[
            "non-utf8", "directory", "under-a-file",
            "report-without-technology", "torn-tail", "garbled-header",
        ],
    )
    def test_exits_2_and_leaves_the_file(self, tmp_path, capsys, make, names):
        path = make(tmp_path)
        before = _snapshot(tmp_path)
        argv = ["--coarse", "3", "--target", "5", "--steps", "5"]
        assert explore_main([*argv, "--store", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        error = [line for line in lines if line.startswith("error:")]
        assert len(error) == 1, captured.err
        assert str(path) in error[0] and names in error[0], error[0]
        assert "Traceback" not in captured.err
        assert _snapshot(tmp_path) == before


def test_figure_pareto_renders():
    from repro.paper import figure_pareto

    text = figure_pareto().render()
    assert "Pareto frontier" in text
    assert "Montium TP" in text
    assert "*" in text

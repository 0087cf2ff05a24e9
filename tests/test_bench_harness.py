"""Unit tests of the benchmark harness (no heavy measurement)."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.bench.__main__ import main
from repro.bench.report import SCHEMA, check_regression, load_report, write_report
from repro.bench.runner import (
    BENCH_NAMES,
    BENCHES,
    GUARDED_BENCHES,
    BenchResult,
    run_dsp_suite,
    time_fn,
)
from repro.errors import ConfigurationError
from repro.telemetry import load_trace


def _result(name: str, sps: float, baseline: float | None = None) -> BenchResult:
    return BenchResult(
        name=name,
        samples_per_sec=sps,
        seconds=1.0,
        repeats=1,
        n_samples=int(sps),
        baseline_samples_per_sec=baseline,
        baseline_seconds=1.0 if baseline else None,
    )


class TestTimeFn:
    def test_returns_positive_seconds(self):
        calls = []
        secs = time_fn(lambda: calls.append(1), repeats=3, warmup=2)
        assert secs > 0.0
        assert len(calls) == 5  # warmup + repeats


class TestReportRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "BENCH_dsp.json"
        results = {"rtl_ddc": _result("rtl_ddc", 5e6, baseline=7e4)}
        doc = write_report(path, results, quick=True)
        assert doc["schema"] == SCHEMA
        loaded = load_report(path)
        bench = loaded["benches"]["rtl_ddc"]
        assert bench["samples_per_sec"] == pytest.approx(5e6)
        assert bench["baseline_samples_per_sec"] == pytest.approx(7e4)
        assert bench["speedup"] == pytest.approx(5e6 / 7e4, rel=1e-3)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/v0"}))
        with pytest.raises(ConfigurationError):
            load_report(path)


class TestRegressionCheck:
    def _committed(self, sps: float) -> dict:
        return {
            "schema": SCHEMA,
            "benches": {"rtl_ddc": {"samples_per_sec": sps}},
        }

    def test_pass_when_fast_enough(self):
        results = {"rtl_ddc": _result("rtl_ddc", 8e6)}
        assert check_regression(
            results, self._committed(1e7), names=("rtl_ddc",)
        ) == []

    def test_default_guard_covers_every_fast_path(self):
        """CI guards the streaming kernel tier, the architecture fast
        paths, the batched sweep, the batched model layer, the adaptive
        explorer, the fault-tolerant sweep path, the non-default
        workload grids and the population Monte-Carlo engine."""
        from repro.bench.report import GUARDED_BENCHES

        assert GUARDED_BENCHES == (
            "nco", "cic", "fir", "fixed_ddc", "rtl_ddc",
            "sim_step", "gpp_ddc", "montium_ddc", "scenario_sweep",
            "evaluator_batch", "explore_frontier", "sweep_faulty",
            "drm_sweep", "ofdm_sweep", "montecarlo_population",
        )
        # every guarded bench must be present on both sides, or the
        # guard fails
        results = {n: _result(n, 1e6) for n in GUARDED_BENCHES}
        committed = {
            "schema": SCHEMA,
            "benches": {n: {"samples_per_sec": 1e6} for n in GUARDED_BENCHES},
        }
        assert check_regression(results, committed) == []
        del results["montium_ddc"]
        assert check_regression(results, committed) != []

    def test_bench_names_are_the_table_rows_in_order(self):
        assert BENCH_NAMES == tuple(b.name for b in BENCHES)
        assert len(set(BENCH_NAMES)) == len(BENCH_NAMES)

    def test_guarded_benches_are_exactly_the_guarded_rows(self, capsys):
        from repro.bench import report

        assert report.GUARDED_BENCHES is GUARDED_BENCHES
        assert GUARDED_BENCHES == tuple(b.name for b in BENCHES if b.guarded)
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(BENCH_NAMES)
        marked = tuple(line.split()[0] for line in lines if "[guarded]" in line)
        assert marked == GUARDED_BENCHES

    def test_unknown_only_name_is_refused(self, capsys):
        assert main(["--only", "nco,no_such_bench"]) == 2
        assert "no_such_bench" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="no_such_bench"):
            run_dsp_suite(quick=True, only={"nco", "no_such_bench"})

    def test_fail_beyond_threshold(self):
        results = {"rtl_ddc": _result("rtl_ddc", 6e6)}
        failures = check_regression(
            results, self._committed(1e7), names=("rtl_ddc",),
            max_regression=0.30,
        )
        assert len(failures) == 1 and "rtl_ddc" in failures[0]

    def test_fail_when_bench_missing(self):
        assert check_regression({}, self._committed(1e7)) != []
        results = {"rtl_ddc": _result("rtl_ddc", 1e7)}
        assert check_regression(results, {"benches": {}}) != []

    def test_slow_machine_forgiven_when_speedup_holds(self):
        """Absolute regression + stable measured speedup = slower hardware."""
        committed = {
            "schema": SCHEMA,
            "benches": {"rtl_ddc": {"samples_per_sec": 1e7, "speedup": 90.0}},
        }
        # Half the absolute throughput, but the block-vs-cycle ratio held.
        results = {"rtl_ddc": _result("rtl_ddc", 5e6, baseline=5e6 / 88.0)}
        assert check_regression(results, committed, names=("rtl_ddc",)) == []
        # Ratio collapsed too: a genuine engine regression.
        results = {"rtl_ddc": _result("rtl_ddc", 5e6, baseline=5e6 / 40.0)}
        assert check_regression(results, committed, names=("rtl_ddc",)) != []

    def test_custom_threshold(self):
        results = {"rtl_ddc": _result("rtl_ddc", 9.6e6)}
        assert check_regression(
            results, self._committed(1e7), names=("rtl_ddc",),
            max_regression=0.05,
        ) == []
        assert check_regression(
            results, self._committed(1e7), names=("rtl_ddc",),
            max_regression=0.01,
        ) != []


class TestBenchResult:
    def test_speedup_none_without_baseline(self):
        assert _result("x", 1e6).speedup is None

    def test_json_omits_absent_baseline(self):
        j = _result("x", 1e6).to_json()
        assert "baseline_samples_per_sec" not in j and "speedup" not in j

    def test_quick_single_bench_run_is_traced_once(self, tmp_path):
        trace = tmp_path / "bench-trace.jsonl"
        with telemetry.tracing(trace):
            results = run_dsp_suite(quick=True, only={"nco"})
        assert list(results) == ["nco"]
        r = results["nco"]
        assert r.samples_per_sec > 0 and r.baseline_samples_per_sec > 0
        assert r.speedup is not None and r.notes and r.unit == "samples/s"
        spans = [s for s in load_trace(trace) if s["name"] == "bench.run"]
        assert [s["attrs"]["bench"] for s in spans] == ["nco"]

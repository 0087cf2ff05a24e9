"""Telemetry layer: spans, counters, shard merge, CLI contracts.

The load-bearing invariants pinned here:

- the disabled path is structurally inert (nothing reaches the emit
  path) and cheap (a generous wall-clock bound on the ``parallel_map``
  hot path);
- telemetry never perturbs results: the sweep/explore/montecarlo CLIs
  produce byte-identical reports with and without ``--trace``, and all
  three ``--verify`` modes pass with tracing active;
- per-pid shard merge is deterministic (same shards -> same bytes) under
  the process backend and after a killed worker (torn shards salvaged,
  run recovered by the resilience layer);
- ``python -m repro.telemetry`` summarises a process-backend montecarlo
  trace into span stats, cache hit rates and worker utilisation.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import faults, parallel, telemetry
from repro.core.evaluator import ReportCache
from repro.explore.__main__ import main as explore_main
from repro.explore.store import ReportStore
from repro.faults import FaultPlan, FaultSpec
from repro.montecarlo.__main__ import main as montecarlo_main
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.collect import load_trace, merge_trace, read_shards
from repro.telemetry.summary import render, summarize


@pytest.fixture(autouse=True)
def _telemetry_disabled_after():
    """Every test leaves tracing disarmed (and the env var unset)."""
    yield
    telemetry.disable()


def _double(x: int) -> int:
    return 2 * x


def _sweep_spec(**kw) -> SweepSpec:
    return SweepSpec.from_axes(
        {"fir_taps": (63, 127, 255)}, duty_cycle_steps=5, **kw
    )


# ----------------------------------------------------------------- core API
class TestCoreAPI:
    def test_disabled_by_default_and_null_span_is_shared(self):
        assert not telemetry.enabled()
        assert telemetry.span("a") is telemetry.span("b", k=1)

    def test_enable_emit_flush_shard(self, tmp_path):
        telemetry.enable(tmp_path)
        assert telemetry.enabled()
        assert os.environ[telemetry.ENV_VAR] == str(tmp_path)
        with telemetry.span("demo", cell=3):
            telemetry.counter("hits", 2)
            telemetry.histogram("batch", 7)
            telemetry.event("mark")
        telemetry.flush()
        records, n_shards, salvaged = read_shards(tmp_path)
        assert n_shards == 1 and salvaged == 0
        kinds = [r["kind"] for r in records]
        assert sorted(kinds) == ["counter", "event", "histogram", "span"]
        # every record is stamped with this process and a rising seq
        assert {r["pid"] for r in records} == {os.getpid()}
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        span = next(r for r in records if r["kind"] == "span")
        assert span["name"] == "demo"
        assert span["attrs"] == {"cell": 3}
        assert span["dur"] >= 0.0
        telemetry.disable()
        assert telemetry.ENV_VAR not in os.environ

    def test_tracing_context_merges_and_cleans_up(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.tracing(out) as shard_dir:
            telemetry.counter("c")
            assert telemetry.enabled()
        assert not telemetry.enabled()
        assert not os.path.exists(shard_dir)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == telemetry.SCHEMA
        assert header["records"] == 1 and header["salvaged"] == 0
        assert load_trace(out)[0]["name"] == "c"

    def test_tracing_none_is_a_noop(self):
        with telemetry.tracing(None) as shard_dir:
            assert shard_dir is None
            assert not telemetry.enabled()


# ------------------------------------------------------------ disabled path
class TestDisabledPath:
    def test_nothing_reaches_emit_when_disabled(self, monkeypatch):
        def boom(record):
            raise AssertionError("emit path reached while disabled")

        monkeypatch.setattr(telemetry, "_emit", boom)
        telemetry.counter("x")
        telemetry.histogram("x", 1.0)
        telemetry.event("x")
        with telemetry.span("x"):
            pass
        assert parallel.parallel_map(
            _double, [1, 2, 3], workers=2, backend="thread"
        ) == [2, 4, 6]
        assert run_sweep(_sweep_spec()).points

    def test_disabled_overhead_bound_on_parallel_map_hot_path(self):
        """Pinned bound: the disabled checks add microseconds, not more.

        The bound is two orders of magnitude above the measured cost on
        a laptop — it exists to catch a structural regression (work on
        the disabled path), not to benchmark CI hardware.
        """
        assert not telemetry.enabled()
        items = list(range(2000))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            parallel.parallel_map(_double, items)
            best = min(best, time.perf_counter() - t0)
        assert best / len(items) < 50e-6  # < 50 us per item end to end

        # and the primitive calls themselves: < 5 us each, best-of-3
        n = 20_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                telemetry.counter("x")
                telemetry.span("x")
            best = min(best, time.perf_counter() - t0)
        assert best / (2 * n) < 5e-6


# ------------------------------------------------------------- shard merge
class TestShardMerge:
    def _write_shards(self, d):
        (d / "shard-2.jsonl").write_text(
            json.dumps({"kind": "counter", "name": "b", "pid": 2, "seq": 0}) + "\n"
        )
        (d / "shard-1.jsonl").write_text(
            json.dumps({"kind": "counter", "name": "a", "pid": 1, "seq": 1})
            + "\n"
            + json.dumps({"kind": "counter", "name": "a", "pid": 1, "seq": 0})
            + "\n"
            + '{"kind": "counter", "torn tail...'
        )

    def test_merge_sorts_salvages_and_is_deterministic(self, tmp_path):
        self._write_shards(tmp_path)
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        header = merge_trace(tmp_path, out1)
        merge_trace(tmp_path, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert header == {
            "schema": telemetry.SCHEMA,
            "records": 3,
            "shards": 2,
            "salvaged": 1,
        }
        records = load_trace(out1)
        assert [(r["pid"], r["seq"]) for r in records] == [(1, 0), (1, 1), (2, 0)]

    def test_process_backend_workers_write_their_own_shards(self, tmp_path):
        parallel.shutdown()  # workers must spawn after tracing is armed
        telemetry.enable(tmp_path / "shards")
        try:
            result = parallel.parallel_map(
                _double, list(range(8)), workers=2, backend="process"
            )
        finally:
            telemetry.disable()
            parallel.shutdown()
        assert result == [2 * x for x in range(8)]
        records, n_shards, _ = read_shards(tmp_path / "shards")
        task_pids = {r["pid"] for r in records if r.get("name") == "parallel.task"}
        # every task ran in a pool worker, never the parent
        assert task_pids and os.getpid() not in task_pids
        assert n_shards >= 2  # parent shard + at least one worker shard
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        merge_trace(tmp_path / "shards", out1)
        merge_trace(tmp_path / "shards", out2)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.faults
    def test_killed_worker_shard_merge_is_deterministic(self, tmp_path):
        """A SIGKILLed worker loses its buffer mid-run; the merge still
        succeeds (torn tails salvaged) and stays byte-deterministic,
        while the resilience layer recovers the run itself."""
        baseline = run_sweep(_sweep_spec()).render()
        parallel.shutdown()
        telemetry.enable(tmp_path / "shards")
        plan = FaultPlan(
            (FaultSpec("sweep.point", kind="kill", keys=(1,)),),
            scratch=str(tmp_path),
        )
        try:
            with faults.inject(plan):
                report = run_sweep(
                    _sweep_spec(on_error="retry"), workers=2, backend="process"
                )
        finally:
            telemetry.disable()
            parallel.shutdown()
        assert not report.partial
        assert (
            json.loads(report.render())["points"]
            == json.loads(baseline)["points"]
        )
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        h1 = merge_trace(tmp_path / "shards", out1)
        merge_trace(tmp_path / "shards", out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert h1["records"] > 0
        # the parent observed the broken pool on the telemetry channel
        names = {r["name"] for r in load_trace(out1)}
        assert "parallel.broken_pool" in names


# ------------------------------------------------------- instrumented seams
class TestInstrumentation:
    def test_sweep_and_cache_records(self, tmp_path):
        telemetry.enable(tmp_path)
        try:
            run_sweep(_sweep_spec())
            telemetry.flush()
        finally:
            telemetry.disable()
        records, _, _ = read_shards(tmp_path)
        names = {r["name"] for r in records}
        assert "sweep.point" in names
        assert "cache.miss" in names or "cache.hit" in names
        assert "evaluator.batch_size" in names

    def test_store_spans_and_counters(self, tmp_path):
        from repro.workloads import get as get_workload

        models = get_workload("ddc").shared_evaluator().models
        telemetry.enable(tmp_path / "shards")
        try:
            store = ReportStore(tmp_path / "store.jsonl")
            cache = ReportCache()
            store.save(cache)
            store.load(cache, models)
            telemetry.flush()
        finally:
            telemetry.disable()
        records, _, _ = read_shards(tmp_path / "shards")
        names = [r["name"] for r in records]
        assert "store.save" in names and "store.load" in names

    def test_kernel_dispatch_counter_names_the_tier_that_ran(self, tmp_path):
        from repro.dsp.nco import NCO, NCOMode

        telemetry.enable(tmp_path)
        try:
            NCO(1e6, 1e5).generate(8)
            NCO(1e6, 1e5).generate(8, engine="python")
            # Taylor mode has no fused kernel: the oracle runs and says so
            NCO(1e6, 1e5, mode=NCOMode.TAYLOR).generate(8, engine="fused")
            telemetry.flush()
        finally:
            telemetry.disable()
        records, _, _ = read_shards(tmp_path)
        tiers = [r["attrs"] for r in records if r["name"] == "kernel.dispatch"]
        assert tiers == [
            {"primitive": "nco", "engine": "fused"},
            {"primitive": "nco", "engine": "python"},
            {"primitive": "nco", "engine": "python"},
        ]


# ------------------------------------------------------------ CLI contracts
class TestCLIByteIdentity:
    def _stdout(self, capsys) -> str:
        return capsys.readouterr().out

    def test_sweep_report_identical_with_trace(self, tmp_path, capsys):
        assert sweep_main(["--steps", "5"]) == 0
        plain = self._stdout(capsys)
        trace = tmp_path / "t.jsonl"
        assert sweep_main(["--steps", "5", "--trace", str(trace)]) == 0
        assert self._stdout(capsys) == plain
        assert load_trace(trace)

    def test_explore_report_identical_with_trace(self, tmp_path, capsys):
        argv = ["--coarse", "3", "--target", "5", "--steps", "5"]
        assert explore_main(argv) == 0
        plain = self._stdout(capsys)
        trace = tmp_path / "t.jsonl"
        assert explore_main(argv + ["--trace", str(trace)]) == 0
        assert self._stdout(capsys) == plain
        assert load_trace(trace)

    def test_montecarlo_report_identical_with_trace(self, tmp_path, capsys):
        argv = ["--samples", "500", "--chunk-samples", "256"]
        assert montecarlo_main(argv) == 0
        plain = self._stdout(capsys)
        trace = tmp_path / "t.jsonl"
        assert montecarlo_main(argv + ["--trace", str(trace)]) == 0
        assert self._stdout(capsys) == plain
        assert load_trace(trace)

    def test_all_three_verifies_pass_with_trace(self, tmp_path, capsys):
        sweep_argv = ["--steps", "5", "--verify"]
        explore_argv = ["--coarse", "3", "--target", "5", "--steps", "5", "--verify"]
        mc_argv = ["--samples", "400", "--chunk-samples", "128", "--verify"]
        for main, argv, name in (
            (sweep_main, sweep_argv, "sweep.jsonl"),
            (explore_main, explore_argv, "explore.jsonl"),
            (montecarlo_main, mc_argv, "mc.jsonl"),
        ):
            trace = tmp_path / name
            assert main(argv + ["--trace", str(trace)]) == 0
            assert "verify OK" in self._stdout(capsys)
            assert load_trace(trace)

    def test_metrics_goes_to_stderr_not_stdout(self, capsys):
        assert sweep_main(["--steps", "5", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "report-cache:" not in captured.out
        assert "report-cache:" in captured.err

    def test_metrics_dispatches_no_kernel(self, tmp_path, capsys):
        """Measuring must not change the measurement: a montecarlo run
        touches no DSP kernel, and ``--metrics`` must not add any."""
        trace = tmp_path / "t.jsonl"
        argv = ["--samples", "500", "--metrics", "--trace", str(trace)]
        assert montecarlo_main(argv) == 0
        assert "report-cache:" in capsys.readouterr().err
        names = [r["name"] for r in load_trace(trace)]
        assert "kernel.dispatch" not in names

    def test_summary_surfaces_cache_and_warm_hit_rate(self, tmp_path, capsys):
        assert sweep_main(["--steps", "5", "--summary"]) == 0
        assert "report-cache:" in self._stdout(capsys)
        store = tmp_path / "store.jsonl"
        argv = ["--coarse", "3", "--target", "5", "--steps", "5", "--summary"]
        argv += ["--store", str(store)]
        assert explore_main(argv) == 0
        capsys.readouterr()
        assert explore_main(argv) == 0
        captured = capsys.readouterr()
        assert "store warm-hit rate: 100.0%" in captured.out


class TestTelemetryCLI:
    def test_summarises_process_backend_montecarlo_run(self, tmp_path, capsys):
        trace = tmp_path / "mc.jsonl"
        argv = ["--samples", "2000", "--chunk-samples", "256", "--workers", "2"]
        argv += ["--backend", "process", "--trace", str(trace)]
        parallel.shutdown()  # fresh pool, spawned inside the traced run
        try:
            assert montecarlo_main(argv) == 0
        finally:
            parallel.shutdown()
        capsys.readouterr()
        assert telemetry_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "montecarlo.chunk" in out
        assert "report-cache:" in out
        assert "worker utilisation" in out
        assert "slowest" in out
        # machine-readable path: per-worker task accounting is present
        doc = summarize(load_trace(trace))
        assert doc["workers"]
        assert sum(w["tasks"] for w in doc["workers"].values()) >= 8
        assert render(doc, top=3)

    def test_summary_accepts_a_raw_shard_dir(self, tmp_path, capsys):
        telemetry.enable(tmp_path / "shards")
        with telemetry.span("demo"):
            pass
        telemetry.disable()
        assert telemetry_main([str(tmp_path / "shards")]) == 0
        assert "demo" in capsys.readouterr().out

    def test_unreadable_trace_is_a_clean_error(self, tmp_path, capsys):
        assert telemetry_main([str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

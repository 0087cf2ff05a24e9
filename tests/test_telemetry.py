"""Telemetry layer: spans, counters, the trace file, CLI contracts.

The load-bearing invariants pinned here:

- the disabled path is structurally inert (nothing reaches the emit
  path) and cheap (a generous wall-clock bound on the ``parallel_map``
  hot path);
- telemetry never perturbs results: the sweep/explore/montecarlo CLIs
  produce byte-identical reports with and without ``--trace``, and all
  three ``--verify`` modes pass with tracing active;
- ``tracing(path)`` writes one trace file holding every record of the
  block, pool threads included;
- ``python -m repro.telemetry`` summarises a pooled montecarlo trace
  into span stats, cache hit rates and worker utilisation.
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import parallel, telemetry
from repro.core.evaluator import ReportCache
from repro.explore.__main__ import main as explore_main
from repro.explore.store import ReportStore
from repro.montecarlo.__main__ import main as montecarlo_main
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec
from repro.telemetry import load_trace
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.summary import render, summarize


def _traced(tmp_path, fn) -> list[dict]:
    """Run ``fn()`` under ``tracing`` and return the records it left."""
    trace = tmp_path / "trace.jsonl"
    with telemetry.tracing(trace):
        fn()
    return load_trace(trace)


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

    def test_tracing_records_every_kind(self, tmp_path):
        def run():
            assert telemetry.enabled()
            with telemetry.span("demo", cell=3):
                telemetry.counter("hits", 2)
                telemetry.histogram("batch", 7)

        records = _traced(tmp_path, run)
        assert not telemetry.enabled()
        kinds = [r["kind"] for r in records]
        assert sorted(kinds) == ["counter", "histogram", "span"]
        # every record is stamped with this process and a rising seq
        assert {r["pid"] for r in records} == {os.getpid()}
        assert [r["seq"] for r in records] == [0, 1, 2]
        span = next(r for r in records if r["kind"] == "span")
        assert span["name"] == "demo"
        assert span["attrs"] == {"cell": 3}
        assert span["dur"] >= 0.0

    def test_tracing_writes_one_file_with_a_header(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.tracing(out):
            telemetry.counter("c")
        assert os.listdir(tmp_path) == ["trace.jsonl"]  # no temp file left
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": telemetry.SCHEMA, "records": 1}
        assert load_trace(out)[0]["name"] == "c"

    def test_trace_and_store_get_the_mode_of_a_plain_open(self, tmp_path):
        """Under umask 022 a new trace and a new store are 0644, as an
        ``open(path, "w")`` file would be; a rewrite keeps the mode."""
        trace = tmp_path / "trace.jsonl"
        store = ReportStore(tmp_path / "store.jsonl")
        old_umask = os.umask(0o022)
        try:
            with telemetry.tracing(trace):
                telemetry.counter("c")
            store.save(ReportCache())
            assert stat.S_IMODE(trace.stat().st_mode) == 0o644
            assert stat.S_IMODE(store.path.stat().st_mode) == 0o644
            store.path.chmod(0o600)
            store.save(ReportCache())
            assert stat.S_IMODE(store.path.stat().st_mode) == 0o600
        finally:
            os.umask(old_umask)
        assert sorted(os.listdir(tmp_path)) == ["store.jsonl", "trace.jsonl"]

    def test_failed_write_keeps_the_old_trace_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "trace.jsonl"
        with telemetry.tracing(out):
            telemetry.counter("old")
        before = out.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            with telemetry.tracing(out):
                telemetry.counter("new")
        assert os.listdir(tmp_path) == ["trace.jsonl"]
        assert out.read_bytes() == before

    def test_concurrent_emits_lose_no_record(self, tmp_path):
        """More threads than cores emitting under a short switch interval:
        every record survives, with one unique, gap-free seq each."""
        n_threads, per_thread = 8, 500

        def emit():
            for _ in range(per_thread):
                telemetry.counter("c")

        def run():
            threads = [threading.Thread(target=emit) for _ in range(n_threads)]
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in threads)

        records = _traced(tmp_path, run)
        assert sorted(r["seq"] for r in records) == list(
            range(n_threads * per_thread)
        )

    def test_tracing_none_is_a_noop(self):
        with telemetry.tracing(None):
            assert not telemetry.enabled()


# ------------------------------------------------------------ disabled path
class TestDisabledPath:
    def test_nothing_reaches_emit_when_disabled(self, monkeypatch):
        def boom(record):
            raise AssertionError("emit path reached while disabled")

        monkeypatch.setattr(telemetry, "_emit", boom)
        telemetry.counter("x")
        telemetry.histogram("x", 1.0)
        with telemetry.span("x"):
            pass
        assert parallel.parallel_map(_double, [1, 2, 3], workers=2) == [2, 4, 6]
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


# ------------------------------------------------------- instrumented seams
class TestInstrumentation:
    def test_sweep_and_cache_records(self, tmp_path):
        records = _traced(tmp_path, lambda: run_sweep(_sweep_spec()))
        names = {r["name"] for r in records}
        assert "sweep.point" in names
        assert "cache.miss" in names or "cache.hit" in names
        assert "evaluator.batch_size" in names

    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_task_span_per_item_serial_or_pooled(self, tmp_path, workers):
        records = _traced(
            tmp_path, lambda: parallel.parallel_map(_double, range(5), workers)
        )
        names = [r["name"] for r in records]
        assert names.count("parallel.task") == 5
        pooled = min(workers or 1, os.cpu_count() or 1) > 1
        assert names.count("parallel.map") == int(pooled)

    def test_store_spans_and_counters(self, tmp_path):
        from repro.workloads import get as get_workload

        models = get_workload("ddc").shared_evaluator().models

        def run():
            store = ReportStore(tmp_path / "store.jsonl")
            cache = ReportCache()
            store.save(cache)
            store.load(cache, models)

        records = _traced(tmp_path, run)
        names = [r["name"] for r in records]
        assert "store.save" in names and "store.load" in names

    def test_kernel_dispatch_counter_names_the_tier_that_ran(self, tmp_path):
        from repro.dsp.nco import NCO, NCOMode

        def run():
            NCO(1e6, 1e5).generate(8)
            NCO(1e6, 1e5).generate(8, engine="python")
            # Taylor mode has no fused kernel: the oracle runs and says so
            NCO(1e6, 1e5, mode=NCOMode.TAYLOR).generate(8, engine="fused")

        records = _traced(tmp_path, run)
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


class TestVerifyRefusesReportFlags:
    """``--verify`` prints only its verdict, so a report flag it would
    silently drop is refused up front: exit 2, naming the flag."""

    @pytest.mark.parametrize(
        "flag", [["--output", "report.json"], ["--summary"]],
        ids=["output", "summary"],
    )
    @pytest.mark.parametrize(
        "main", [sweep_main, explore_main, montecarlo_main],
        ids=["sweep", "explore", "montecarlo"],
    )
    def test_refused_with_exit_2(self, main, flag, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--verify", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and flag[0] in captured.err
        assert list(tmp_path.iterdir()) == []


#: A small run per study CLI, for the path-error tests.
SMALL_RUNS = {
    "sweep": (sweep_main, ["--steps", "5"]),
    "explore": (explore_main, ["--coarse", "3", "--target", "5", "--steps", "5"]),
    "montecarlo": (montecarlo_main, ["--samples", "500"]),
}


class TestUnwritablePathExits2:
    """An ``--output`` or ``--trace`` path that cannot be written (a
    directory, or a path whose parent is missing or a file) ends the run
    with exit 2 and one ``error:`` line naming the path, not a traceback,
    and is refused before any work: stdout stays empty."""

    @staticmethod
    def assert_refused(capsys, target) -> None:
        captured = capsys.readouterr()
        err = captured.err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(target) in errors[0], err
        assert "Traceback" not in err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--output", "--trace"])
    @pytest.mark.parametrize("cli", sorted(SMALL_RUNS))
    def test_directory_path(self, cli, flag, tmp_path, capsys):
        main, argv = SMALL_RUNS[cli]
        target = tmp_path / "out"
        target.mkdir()
        assert main([*argv, flag, str(target)]) == 2
        self.assert_refused(capsys, target)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("parent", ["missing", "file"])
    @pytest.mark.parametrize("flag", ["--output", "--trace"])
    @pytest.mark.parametrize("cli", sorted(SMALL_RUNS))
    def test_parent_not_a_directory(self, cli, flag, parent, tmp_path, capsys):
        main, argv = SMALL_RUNS[cli]
        if parent == "file":
            (tmp_path / "file").write_text("keep")
        target = tmp_path / parent / "out.json"
        assert main([*argv, flag, str(target)]) == 2
        self.assert_refused(capsys, target)
        assert [p.name for p in tmp_path.iterdir()] == (
            ["file"] if parent == "file" else []
        )


class TestTelemetryCLI:
    def test_summarises_pooled_montecarlo_run(self, tmp_path, capsys):
        trace = tmp_path / "mc.jsonl"
        argv = ["--samples", "2000", "--chunk-samples", "256", "--workers", "2"]
        assert montecarlo_main(argv + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert telemetry_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "montecarlo.chunk" in out
        assert "report-cache:" in out
        assert "worker utilisation" in out
        assert "slowest" in out
        # machine-readable path: every chunk ran as a parallel.task span
        records = load_trace(trace)
        tasks = [r for r in records if r["name"] == "parallel.task"]
        assert len(tasks) == 8  # 2000 samples in chunks of 256
        doc = summarize(records)
        assert sum(w["tasks"] for w in doc["workers"].values()) == 8
        assert render(doc, top=3)

    def test_unreadable_trace_is_a_clean_error(self, tmp_path, capsys):
        assert telemetry_main([str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_damaged_trace_is_a_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"kind": "counter", "name": "c"}\n{"kind": ')
        assert telemetry_main([str(trace)]) == 2
        assert "error: cannot read trace" in capsys.readouterr().err

    def test_reader_closing_the_pipe_is_a_quiet_exit_1(self, tmp_path):
        """``python -m repro.telemetry TRACE | head -1``: once the reader
        is gone the CLI stops with exit 1 and no traceback."""
        trace = tmp_path / "t.jsonl"
        n = 5000  # --top n renders several pipe buffers of text
        with telemetry.tracing(trace):
            for i in range(n):
                with telemetry.span(f"span{i}"):
                    pass
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        with subprocess.Popen(
            [sys.executable, "-m", "repro.telemetry", str(trace),
             "--top", str(n)],
            env={**os.environ, "PYTHONPATH": repo_src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("trace:")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

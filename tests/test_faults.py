"""Chaos suite: deterministic fault injection against the execution layer.

Marked ``faults`` (``pytest -m faults`` runs just this file — the CI
chaos leg).  Every test follows the same shape: arm a seeded
:class:`~repro.faults.FaultPlan`, run a sweep/exploration through a
recovery path, and require the output *byte-identical* to the fault-free
run (for ``retry``/resume) or an explicitly partial report with the
failure recorded (for ``skip``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults, parallel
from repro.archs.asic.lowpower import LowPowerDDCModel
from repro.config import REFERENCE_DDC
from repro.core.evaluator import DDCEvaluator, ReportCache
from repro.errors import ConfigurationError, PartialResultError
from repro.explore.refine import run_explore
from repro.explore.spec import ExploreSpec
from repro.explore.store import ReportStore
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.montecarlo.engine import run_population
from repro.montecarlo.spec import PopulationSpec
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec

pytestmark = pytest.mark.faults

SWEEP_AXES = {"fir_taps": (63, 127, 255)}
EXPLORE_KWARGS = dict(coarse_steps=3, target_steps=9, duty_cycle_steps=5)


def sweep_spec(**kwargs) -> SweepSpec:
    return SweepSpec.from_axes(SWEEP_AXES, duty_cycle_steps=5, **kwargs)


def explore_spec(**kwargs) -> ExploreSpec:
    return ExploreSpec(**EXPLORE_KWARGS, **kwargs)


def one_fault(site: str, key, **kwargs) -> FaultPlan:
    return FaultPlan((FaultSpec(site, keys=(key,), **kwargs),))


class TestFaultHarness:
    """The injection machinery itself must be deterministic."""

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("")
        with pytest.raises(ConfigurationError):
            FaultSpec("x", kind="meteor")
        with pytest.raises(ConfigurationError):
            FaultSpec("x", times=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(())

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            (
                FaultSpec("a.b", kind="kill", keys=((0, 4), 7), times=2),
                FaultSpec("c", kind="sleep", delay_s=1.5),
            ),
            scratch="/tmp/x",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_firing_counts_bound_injections(self):
        plan = one_fault("site", "k", times=2)
        with faults.inject(plan):
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    faults.fault_point("site", key="k")
            # Third and later visits: the spec is spent.
            faults.fault_point("site", key="k")
            faults.fault_point("site", key="k")

    def test_keys_match_by_repr(self):
        plan = one_fault("site", (0, 4))
        with faults.inject(plan):
            faults.fault_point("site", key=(0, 3))  # no match
            with pytest.raises(InjectedFault):
                faults.fault_point("site", key=(0, 4))

    def test_scratch_markers_claim_across_counters(self, tmp_path):
        """Marker-file claims: a second claimant (fresh counters, same
        scratch) sees the firing already spent."""
        plan = FaultPlan(
            (FaultSpec("site", keys=("k",)),), scratch=str(tmp_path)
        )
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                faults.fault_point("site", key="k")
        # Re-arm from scratch: in-memory counters reset, markers persist.
        with faults.inject(plan):
            faults.fault_point("site", key="k")  # already claimed on disk

    def test_deactivate_clears_env(self):
        plan = one_fault("site", "k")
        with faults.inject(plan):
            assert os.environ.get(faults.ENV_VAR)
        assert faults.ENV_VAR not in os.environ
        assert faults.active_plan() is None


class TestSweepChaos:
    def test_skip_records_failure_and_marks_partial(self):
        with faults.inject(one_fault("sweep.point", 1)):
            report = run_sweep(sweep_spec(on_error="skip"))
        assert report.partial
        assert [f.index for f in report.failures] == [1]
        assert [p.index for p in report.points] == [0, 2]
        doc = report.to_json_doc()
        assert doc["partial"] is True
        assert doc["failures"][0]["error"]["type"] == "InjectedFault"

    def test_skip_is_engine_identical(self):
        with faults.inject(one_fault("sweep.point", 1)):
            batch = run_sweep(sweep_spec(on_error="skip"), engine="batch")
        with faults.inject(one_fault("sweep.point", 1)):
            scalar = run_sweep(sweep_spec(on_error="skip"), engine="scalar")
        assert batch.render() == scalar.render()

    def test_retry_recovers_byte_identical(self):
        baseline = run_sweep(sweep_spec()).render()
        with faults.inject(one_fault("sweep.point", 1)):
            recovered = run_sweep(sweep_spec(on_error="retry"))
        assert not recovered.partial
        doc = json.loads(recovered.render())
        assert doc["points"] == json.loads(baseline)["points"]

    def test_retry_exhaustion_is_recorded(self):
        with faults.inject(one_fault("sweep.point", 1, times=5)):
            report = run_sweep(sweep_spec(on_error="retry"))
        assert report.partial
        assert report.failures[0].attempts == 3

    def test_all_points_failing_raises(self):
        plan = FaultPlan((FaultSpec("sweep.point", times=99),))
        with faults.inject(plan):
            with pytest.raises(PartialResultError, match="all 3"):
                run_sweep(sweep_spec(on_error="skip"))

    def test_strict_mode_still_aborts(self):
        with faults.inject(one_fault("sweep.point", 1)):
            with pytest.raises(InjectedFault):
                run_sweep(sweep_spec())

    def test_worker_kill_under_retry_recovers(self, tmp_path):
        """A killed process-pool worker costs a rebuild, not the sweep:
        on_error="retry" arms BrokenExecutor recovery and the report
        comes back byte-identical to the fault-free pooled run."""
        baseline = run_sweep(sweep_spec()).render()
        parallel.shutdown()  # workers must spawn after the plan is armed
        plan = FaultPlan(
            (FaultSpec("sweep.point", kind="kill", keys=(1,)),),
            scratch=str(tmp_path),
        )
        try:
            with faults.inject(plan):
                report = run_sweep(
                    sweep_spec(on_error="retry"), workers=2,
                    backend="process",
                )
        finally:
            parallel.shutdown()
        assert not report.partial
        doc = json.loads(report.render())
        assert doc["points"] == json.loads(baseline)["points"]


class TestMontecarloChaos:
    def test_worker_kill_under_retry_recovers(self, tmp_path):
        """A worker killed on chunk 1 costs a pool rebuild: the pooled
        retry report is byte-identical to the fault-free retry run."""
        spec = PopulationSpec(
            seed=6, n_samples=512, chunk_samples=128, on_error="retry"
        )
        baseline = run_population(spec).render()
        parallel.shutdown()  # workers must spawn after the plan is armed
        plan = FaultPlan(
            (FaultSpec("montecarlo.chunk", kind="kill", keys=(1,)),),
            scratch=str(tmp_path),
        )
        try:
            with faults.inject(plan):
                report = run_population(spec, workers=2, backend="process")
        finally:
            parallel.shutdown()
        assert any(tmp_path.iterdir())  # the kill fired
        assert report.render() == baseline


#: A kill fault per study CLI: (module, fault site, CLI arguments).
DEAD_WORKER_RUNS = [
    ("repro.sweep", "sweep.point", ["--axis", "fir_taps=63,125,255"]),
    ("repro.montecarlo", "montecarlo.chunk",
     ["--samples", "512", "--chunk-samples", "128"]),
]


class TestDeadWorkerExit:
    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    @pytest.mark.parametrize("module, site, args", DEAD_WORKER_RUNS)
    def test_dead_worker_exits_2_with_error(
        self, tmp_path, module, site, args, on_error
    ):
        """Without retry a dead pool worker ends the run as a
        TaskFailedError: exit 2 with one error line, no traceback."""
        plan = FaultPlan(
            (FaultSpec(site, kind="kill", keys=(1,)),), scratch=str(tmp_path)
        )
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [sys.executable, "-m", module, *args, "--workers", "2",
             "--backend", "process", "--on-error", on_error],
            env={**os.environ, "PYTHONPATH": repo_src,
                 faults.ENV_VAR: plan.to_json()},
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: a process pool worker died")
        assert "Traceback" not in run.stderr
        assert run.stdout == ""


class TestExploreChaos:
    def test_skip_is_engine_identical_and_partial(self):
        # (0, 4) is a coarse cell: both engines evaluate it.
        with faults.inject(one_fault("explore.cell", (0, 4))):
            adaptive = run_explore(explore_spec(on_error="skip"), "adaptive")
        with faults.inject(one_fault("explore.cell", (0, 4))):
            dense = run_explore(explore_spec(on_error="skip"), "dense")
        assert adaptive.partial and dense.partial
        assert adaptive.render() == dense.render()
        failed = [c for c in adaptive.points[0].cells if c.failed]
        assert [c.index for c in failed] == [4]
        assert failed[0].static_winner == "unavailable"

    def test_retry_recovers_byte_identical(self):
        baseline = run_explore(explore_spec(), "adaptive").render()
        with faults.inject(one_fault("explore.cell", (0, 4))):
            recovered = run_explore(explore_spec(on_error="retry"),
                                    "adaptive")
        assert not recovered.partial
        doc = json.loads(recovered.render())
        assert doc["points"] == json.loads(baseline)["points"]

    def test_all_cells_failing_raises(self):
        plan = FaultPlan((FaultSpec("explore.cell", times=9999),))
        with faults.inject(plan):
            with pytest.raises(PartialResultError):
                run_explore(explore_spec(on_error="skip"), "adaptive")


class TestCheckpointResume:
    def test_interrupted_round_resumes_byte_identical(self, tmp_path):
        baseline = run_explore(
            explore_spec(), "adaptive", DDCEvaluator(cache=ReportCache())
        ).render()
        store = ReportStore(tmp_path / "store.jsonl")
        with faults.inject(one_fault("explore.round", 1)):
            with pytest.raises(InjectedFault):
                run_explore(
                    explore_spec(), "adaptive",
                    DDCEvaluator(cache=ReportCache()), store=store,
                )
        checkpoint = store.load_checkpoint(
            explore_spec(), DDCEvaluator().models
        )
        assert checkpoint is not None and checkpoint["round"] == 1
        resumed = run_explore(
            explore_spec(), "adaptive",
            DDCEvaluator(cache=ReportCache()), store=store,
        )
        assert resumed.render() == baseline
        # Completion drops the checkpoint.
        assert store.load_checkpoint(
            explore_spec(), DDCEvaluator().models
        ) is None

    def test_error_cell_round_trips_byte_identical(self, tmp_path):
        """The checkpoint codec keeps an error cell and ``None`` snapshot
        objectives: a skip run interrupted at round 1 resumes to exactly
        the report of an uninterrupted skip run."""
        spec = explore_spec(on_error="skip")
        cell_fault = FaultSpec("explore.cell", keys=((0, 4),))
        with faults.inject(FaultPlan((cell_fault,))):
            baseline = run_explore(
                spec, "adaptive", DDCEvaluator(cache=ReportCache())
            ).render()
        store = ReportStore(tmp_path / "store.jsonl")
        plan = FaultPlan((cell_fault, FaultSpec("explore.round", keys=(1,))))
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                run_explore(
                    spec, "adaptive",
                    DDCEvaluator(cache=ReportCache()), store=store,
                )
        checkpoint = store.load_checkpoint(spec, DDCEvaluator().models)
        cells = [c for point in checkpoint["evaluated"] for c in point.values()]
        assert [o["index"] for o, _ in cells if o["error"]] == [4]
        assert any(
            None in arch["objectives"]
            for _, snapshot in cells
            for arch in snapshot["architectures"]
        )
        resumed = run_explore(
            spec, "adaptive", DDCEvaluator(cache=ReportCache()), store=store
        )
        assert resumed.partial
        assert resumed.render() == baseline

    def test_store_needs_adaptive_engine(self, tmp_path):
        with pytest.raises(ConfigurationError, match="adaptive"):
            run_explore(
                explore_spec(), "dense",
                store=ReportStore(tmp_path / "s.jsonl"),
            )

    def test_cli_sigkill_resume_byte_identical(self, tmp_path):
        """The full crash story: a CLI exploration is killed dead
        mid-refinement (os._exit in round 1), rerun with the same store,
        and must print byte-identical output to an uninterrupted run."""
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        args = [
            sys.executable, "-m", "repro.explore",
            "--coarse", "3", "--target", "9", "--steps", "5",
        ]
        env = {**os.environ, "PYTHONPATH": repo_src}
        env.pop(faults.ENV_VAR, None)

        baseline = subprocess.run(
            args, env=env, capture_output=True, text=True, timeout=120
        )
        assert baseline.returncode == 0, baseline.stderr

        store = str(tmp_path / "store.jsonl")
        plan = FaultPlan(
            (FaultSpec("explore.round", kind="kill", keys=(1,)),),
            scratch=str(tmp_path),
        )
        killed = subprocess.run(
            args + ["--store", store],
            env={**env, faults.ENV_VAR: plan.to_json()},
            capture_output=True, text=True, timeout=120,
        )
        assert killed.returncode == 23  # the fault's kill_code

        resumed = subprocess.run(
            args + ["--store", store],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from checkpoint" in resumed.stderr
        assert resumed.stdout == baseline.stdout


#: Writer A as its own process: saves LowPowerDDC reports for the
#: comma-separated ``fir_taps`` in argv[2] to the store at argv[1].
STORE_WRITER = """
import sys
from dataclasses import replace
from repro.archs.asic.lowpower import LowPowerDDCModel
from repro.config import REFERENCE_DDC
from repro.core.evaluator import ReportCache
from repro.explore.store import ReportStore

cache = ReportCache()
for n in sys.argv[2].split(","):
    config = replace(REFERENCE_DDC, fir_taps=int(n))
    cache.implement_batch(LowPowerDDCModel(), [config])
ReportStore(sys.argv[1]).save(cache)
"""


class TestStoreConcurrency:
    def test_concurrent_writers_keep_every_record(self, tmp_path):
        """Writer A (a child process) is held by a sleep fault between
        its read and its write; writer B (this process) saves during
        that sleep.  The store lock makes B wait for A and merge on top
        of it, so no record is lost."""
        path = tmp_path / "store" / "store.jsonl"
        claims = tmp_path / "claims"
        claims.mkdir()
        plan = FaultPlan(
            (
                FaultSpec(
                    "store.update", kind="sleep",
                    keys=("store.jsonl",), delay_s=2.0,
                ),
            ),
            scratch=str(claims),
        )
        cache_b = ReportCache()
        for n in (69, 71, 73):
            config = dataclasses.replace(REFERENCE_DDC, fir_taps=n)
            cache_b.implement_batch(LowPowerDDCModel(), [config])
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        writer_a = subprocess.Popen(
            [sys.executable, "-c", STORE_WRITER, str(path), "63,65,67"],
            env={
                **os.environ, "PYTHONPATH": repo_src,
                faults.ENV_VAR: plan.to_json(),
            },
            stderr=subprocess.PIPE, text=True,
        )
        try:
            # The fault's claim marker appears as A starts its sleep,
            # after its read: B's save lands inside A's read-modify-write.
            deadline = time.monotonic() + 60
            while not any(claims.iterdir()):
                assert writer_a.poll() is None, writer_a.communicate()[1]
                assert time.monotonic() < deadline
                time.sleep(0.01)
            ReportStore(path).save(cache_b)
            assert writer_a.wait(timeout=60) == 0, writer_a.communicate()[1]
        finally:
            writer_a.kill()
        loaded = ReportStore(path).load(ReportCache(), [LowPowerDDCModel()])
        assert loaded == 6
        assert [p.name for p in path.parent.iterdir()] == ["store.jsonl"]


class TestTornWrites:
    def test_torn_store_write_is_salvaged(self, tmp_path):
        """A write that tears the published file (crash after partial
        flush) loses at most the tail: the next read salvages the valid
        prefix and quarantines the torn line."""
        store = ReportStore(tmp_path / "store.jsonl")
        cache = ReportCache()
        config = explore_spec().config_at(explore_spec().points()[0], 0)
        for model in DDCEvaluator().models:
            cache.implement_batch(model, [config])
        store.save(cache)
        intact = store.path.read_text()
        plan = FaultPlan(
            (
                FaultSpec(
                    "store.write", kind="torn",
                    keys=("store.jsonl",), tear_bytes=10,
                ),
            )
        )
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                store.save(cache)
        assert store.path.read_text() != intact  # really torn
        store._read_records()
        assert store.last_salvaged == 1
        assert store.quarantine_path.exists()
        # Salvage + rewrite: the next save restores a clean store whose
        # surviving records match what the cache still holds.
        store.save(cache)
        assert store.path.read_text() == intact

"""Chaos suite: deterministic fault injection against the execution layer.

Marked ``faults`` (``pytest -m faults`` runs just this file — the CI
chaos leg).  Every test follows the same shape: arm a seeded
:class:`~repro.faults.FaultPlan`, run a sweep/exploration through a
recovery path, and require the output *byte-identical* to the fault-free
run (for ``retry``) or an explicitly partial report with the failure
recorded (for ``skip``).  The store tests hold a writer inside its
read-modify-write or fail its write, and require every record kept.
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

from repro import faults
from repro.archs.asic.lowpower import LowPowerDDCModel
from repro.config import REFERENCE_DDC
from repro.core.evaluator import DDCEvaluator, ReportCache
from repro.errors import ConfigurationError, PartialResultError
from repro.explore.refine import run_explore
from repro.explore.spec import ExploreSpec
from repro.explore.store import ReportStore
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.montecarlo.__main__ import main as montecarlo_main
from repro.montecarlo.engine import run_population
from repro.montecarlo.spec import PopulationSpec
from repro.sweep.__main__ import main as sweep_main
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

    @pytest.mark.parametrize("kind", ["meteor", "kill", "torn"])
    def test_spec_validation(self, kind):
        with pytest.raises(ConfigurationError):
            FaultSpec("")
        with pytest.raises(
            ConfigurationError, match=r"expected one of \('error', 'sleep'\)"
        ):
            FaultSpec("x", kind=kind)
        with pytest.raises(ConfigurationError):
            FaultSpec("x", times=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(())

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            (
                FaultSpec("a.b", kind="error", keys=((0, 4), 7), times=2),
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

    def test_pooled_retry_recovers_byte_identical(self):
        """A point error under retry on the thread pool is retried in its
        task: the report equals the fault-free serial one."""
        baseline = run_sweep(sweep_spec()).render()
        with faults.inject(one_fault("sweep.point", 1)):
            report = run_sweep(sweep_spec(on_error="retry"), workers=2)
        assert not report.partial
        doc = json.loads(report.render())
        assert doc["points"] == json.loads(baseline)["points"]


class TestMontecarloChaos:
    def test_pooled_retry_recovers_byte_identical(self):
        """A chunk error under retry on the thread pool costs a re-run of
        that chunk: the report equals the fault-free retry run."""
        spec = PopulationSpec(
            seed=6, n_samples=512, chunk_samples=128, on_error="retry"
        )
        baseline = run_population(spec).render()
        with faults.inject(one_fault("montecarlo.chunk", 1)):
            report = run_population(spec, workers=2)
        assert report.render() == baseline


#: An error fault per pooled study CLI: (main, fault site, CLI arguments).
POOLED_CLI_RUNS = [
    (sweep_main, "sweep.point", ["--axis", "fir_taps=63,125,255"]),
    (montecarlo_main, "montecarlo.chunk",
     ["--samples", "512", "--chunk-samples", "128"]),
]


class TestPooledCLIFaults:
    @pytest.mark.parametrize(
        "on_error, status", [("raise", 2), ("skip", 3), ("retry", 0)]
    )
    @pytest.mark.parametrize(
        "main, site, args", POOLED_CLI_RUNS, ids=["sweep", "montecarlo"]
    )
    def test_pooled_run_ends_like_the_serial_run(
        self, capsys, main, site, args, on_error, status
    ):
        """A task error on the thread pool ends the run exactly as it
        ends a serial one: same exit status, stdout and stderr."""
        runs = []
        for workers in ("1", "2"):
            with faults.inject(one_fault(site, 1)):
                code = main([*args, "--workers", workers,
                             "--on-error", on_error])
            runs.append((code, *capsys.readouterr()))
        assert runs[1] == runs[0]
        code, out, err = runs[0]
        assert code == status
        assert "Traceback" not in err
        assert (out == "") == (on_error == "raise")


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


class TestFailedStoreWrite:
    def test_failed_save_leaves_the_previous_store(self, tmp_path):
        """A save that fails at its write leaves the previous store whole
        and loadable; the next save writes exactly what a fault-free save
        of the same cache writes."""
        config = explore_spec().config_at(explore_spec().points()[0], 0)
        models = DDCEvaluator().models
        first, second = ReportCache(), ReportCache()
        first.implement_batch(models[0], [config])
        for model in models:
            second.implement_batch(model, [config])
        store = ReportStore(tmp_path / "store.jsonl")
        store.save(first)
        intact = store.path.read_bytes()
        plan = one_fault("store.write", "store.jsonl")
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                store.save(second)
        assert store.path.read_bytes() == intact
        assert store.load(ReportCache(), models) == 1
        store.save(second)
        reference = ReportStore(tmp_path / "reference" / "store.jsonl")
        reference.save(first)
        reference.save(second)
        assert store.path.read_bytes() == reference.path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "reference", "store.jsonl"
        ]

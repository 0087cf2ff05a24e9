"""Spans around the package's public layer calls, recorded from outside.

The tracer never edits the package: :meth:`Tracer.install` swaps each
function or method named in :data:`PATCHES` for a wrapper that records a
span (name, start, end, parent) and optional counts, and
:meth:`Tracer.uninstall` puts the originals back.  Functions are patched
at every module that binds them, so a call through a ``from x import f``
name is seen too.  Spans stay in memory; :meth:`Tracer.layer_metrics`
reduces them to the per-layer figures of :data:`layers.PER_LAYER`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_CYCLONE = {"Cyclone I": "cyclone1", "Cyclone II": "cyclone2"}


def _cyclone_name(args, kwargs) -> str:
    return f"archs.{_CYCLONE[args[0].device.family]}.implement_batch"


def _rtl_name(args, kwargs) -> str:
    engine = kwargs.get("engine") or "cycle"
    return "archs.rtl_block" if engine == "block" else "simkernel.rtl_cycle"


def _configs(args, kwargs, result) -> dict:
    return {"evaluator.configs": len(args[1])}


def _arch_reports(args, kwargs, result) -> dict:
    return {"archs.reports": len(args[1])}


def _sweep_counts(args, kwargs, result) -> dict:
    return {"sweep.points": args[0].n_points}


def _explore_counts(args, kwargs, result) -> dict:
    return {
        "explore.cells_evaluated": result.evaluations,
        "explore.cells_target": args[0].n_cells,
    }


def _population_counts(args, kwargs, result) -> dict:
    return {"montecarlo.distinct_configs": result.n_distinct_configs}


def _rtl_counts(args, kwargs, result) -> dict:
    if _rtl_name(args, kwargs) != "simkernel.rtl_cycle":
        return {}
    return {"simkernel.cycles": result.cycles}


def _tasks(args, kwargs, result) -> dict:
    return {"parallel.tasks": len(args[1])}


#: (module, attribute path, span name or name function, count function).
#: A ``None`` span name marks a count-only wrapper (no span is recorded,
#: so it never changes another span's self time).
PATCHES = (
    ("repro.core.evaluator", "DDCEvaluator.report_batches",
     "evaluator.report_batches", _configs),
    ("repro.core.evaluator", "DDCEvaluator.scenario_candidates",
     "evaluator.candidates", None),
    ("repro.core.evaluator", "DDCEvaluator.scenario_candidates_from_batches",
     "evaluator.candidates", None),
    ("repro.core.evaluator",
     "DDCEvaluator.scenario_candidate_outcomes_from_batches",
     "evaluator.candidates", None),
    ("repro.archs.base", "ArchitectureModel.implement_batch",
     "archs.other.implement_batch", _arch_reports),
    ("repro.archs.asic.gc4016", "GC4016Model.implement_batch",
     "archs.gc4016.implement_batch", _arch_reports),
    ("repro.archs.asic.lowpower", "LowPowerDDCModel.implement_batch",
     "archs.lowpower.implement_batch", _arch_reports),
    ("repro.archs.gpp.arm9", "ARM9Model.implement_batch",
     "archs.arm9.implement_batch", _arch_reports),
    ("repro.archs.fpga.model", "CycloneModel.implement_batch",
     _cyclone_name, _arch_reports),
    ("repro.archs.montium.model", "MontiumModel.implement_batch",
     "archs.montium.implement_batch", _arch_reports),
    ("repro.energy.scenarios", "ScenarioAnalysis.evaluate_batch",
     "energy.evaluate_batch", None),
    ("repro.energy.scenarios", "ScenarioAnalysis.cost_batch",
     "energy.evaluate_batch", None),
    ("repro.energy.scenarios", "effective_power_samples",
     "energy.population_math", None),
    ("repro.energy.scenarios", "winner_counts",
     "energy.population_math", None),
    ("repro.montecarlo.engine", "effective_power_samples",
     "energy.population_math", None),
    ("repro.montecarlo.engine", "winner_counts",
     "energy.population_math", None),
    ("repro.sweep.engine", "run_sweep", "sweep.run", _sweep_counts),
    ("repro.sweep.report", "SweepReport.render", "sweep.render", None),
    ("repro.explore.refine", "run_explore", "explore.run", _explore_counts),
    ("repro.explore.refine", "frontier_from_batches", "explore.pareto", None),
    ("repro.explore.report", "ExploreReport.render", "explore.render", None),
    ("repro.explore.store", "ReportStore.save", "store.save", None),
    ("repro.explore.store", "ReportStore.save_frontier", "store.save", None),
    ("repro.explore.store", "ReportStore.load", "store.load", None),
    ("repro.montecarlo.engine", "run_population", "montecarlo.run",
     _population_counts),
    ("repro.montecarlo.engine", "sample_population", "montecarlo.sample",
     None),
    ("repro.montecarlo.engine", "dedup_axis_indices", "montecarlo.dedup",
     None),
    ("repro.montecarlo.engine", "build_candidate_table", "montecarlo.table",
     None),
    ("repro.montecarlo.report", "build_report", "montecarlo.aggregate", None),
    ("repro.montecarlo.report", "PopulationReport.render", "montecarlo.render",
     None),
    ("repro.parallel", "parallel_map", None, _tasks),
    ("repro.sweep.engine", "parallel_map", None, _tasks),
    ("repro.montecarlo.engine", "parallel_map", None, _tasks),
    ("repro.dsp.ddc", "FixedDDC.process", "dsp.fixed_ddc", None),
    ("repro.archs.fpga.rtl_ddc", "RTLDDC.run", _rtl_name, _rtl_counts),
    ("repro.archs.gpp.profiler", "profile_ddc", "archs.gpp_iss", None),
    ("repro.archs.montium.ddc_mapping", "run_ddc_on_tile",
     "archs.montium_tile", None),
    ("repro.workloads.drm", "drm_receive", "workloads.drm_receive", None),
)

#: Spans whose self time (span minus its direct children) is a metric.
SELF_TIMES = {
    "sweep.self_s": "sweep.run",
    "explore.self_s": "explore.run",
    "montecarlo.stream_s": "montecarlo.run",
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        # [name, start, end, parent index, in_pass]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_walls: list[float] = []
        self._stack: list[int] = []
        self._in_pass = False
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._in_pass]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _count(self, values: dict) -> None:
        for key, value in values.items():
            if key == "archs.reports" and any(
                self.spans[i][0].endswith(".implement_batch")
                for i in self._stack
            ):
                continue  # a model called by another model: counted once
            self.counts[key] += value

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name if isinstance(name, str) else name(args, kwargs)
                with tracer.span(label):
                    result = fn(*args, **kwargs)
            if count is not None:
                tracer._count(count(args, kwargs, result))
            return result

        return wrapper

    def _wrap_cache(self, fn):
        tracer = self

        def wrapper(cache, *args, **kwargs):
            hits, misses = cache.hits, cache.misses
            try:
                return fn(cache, *args, **kwargs)
            finally:
                tracer.counts["cache.hits"] += cache.hits - hits
                tracer.counts["cache.misses"] += cache.misses - misses

        return wrapper

    # ------------------------------------------------------------- patching
    @staticmethod
    def _owner(module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr

    def install(self) -> None:
        """Swap every patched callable for its recording wrapper."""
        if self._saved:
            return
        # Resolve (and so import) every target before patching any, so no
        # module imported here binds a wrapper as its own global.
        targets = [
            (*self._owner(module, path), name, count)
            for module, path, name, count in PATCHES
        ]
        for owner, attr, name, count in targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        cache_cls = importlib.import_module("repro.core.evaluator").ReportCache
        for attr in ("implement_batch", "_outcome"):
            original = vars(cache_cls)[attr]
            self._saved.append((cache_cls, attr, original))
            setattr(cache_cls, attr, self._wrap_cache(original))

    def uninstall(self) -> None:
        """Restore every original callable."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def traced_pass(self):
        """Install the wrappers around one timed pass and record its wall."""
        self.install()
        self._in_pass = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.pass_walls.append(time.perf_counter() - start)
            self._in_pass = False
            self.uninstall()

    # ------------------------------------------------------------ reduction
    def _durations(self) -> tuple[dict, dict, float]:
        """(outermost time per name, self time per name, top-level time)."""
        outer: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        top = 0.0
        for record in self.spans:
            name, start, end, parent, in_pass = record
            duration = end - start
            if parent is not None:
                child_time[parent] += duration
            elif in_pass:
                top += duration
            ancestor, nested = parent, False
            while ancestor is not None:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                outer[name] += duration
        own: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            own[record[0]] += record[2] - record[1] - child_time[index]
        return outer, own, top

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass layer figures from the recorded spans and counts."""
        passes = max(1, len(self.pass_walls))
        outer, own, top = self._durations()
        out = {
            f"{name}_s": value / passes for name, value in outer.items()
        }
        for metric, name in SELF_TIMES.items():
            out[metric] = own.get(name, 0.0) / passes
        counts = self.counts
        for key in (
            "evaluator.configs", "archs.reports", "sweep.points",
            "explore.cells_evaluated", "montecarlo.distinct_configs",
            "parallel.tasks",
        ):
            out[key] = counts.get(key, 0.0) / passes
        lookups = counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0)
        out["evaluator.cache_lookups"] = lookups / passes
        out["evaluator.cache_hit_ratio"] = (
            counts.get("cache.hits", 0.0) / lookups if lookups else 0.0
        )
        target = counts.get("explore.cells_target", 0.0)
        out["explore.eval_ratio"] = (
            counts.get("explore.cells_evaluated", 0.0) / target
            if target else 0.0
        )
        cycle_s = outer.get("simkernel.rtl_cycle", 0.0)
        out["simkernel.cycles_per_s"] = (
            counts.get("simkernel.cycles", 0.0) / cycle_s if cycle_s else 0.0
        )
        walls = sum(self.pass_walls)
        out["trace.coverage"] = top / walls if walls else 0.0
        return out

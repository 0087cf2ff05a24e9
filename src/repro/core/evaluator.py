"""Cross-architecture evaluation of a DDC spec.

Runs every architecture model on a configuration, assembles the Table 7
comparison, applies the paper's technology scaling, and answers the two
Section 7 scenario questions (static winner, reconfigurable winner).

Two entry points serve one configuration at a time
(:meth:`DDCEvaluator.evaluate`, the Table 7 comparison and the winners;
:meth:`DDCEvaluator.scenario_candidates`, the Section 7 candidates), and
one serves whole configuration axes
(:meth:`DDCEvaluator.report_batches`, one ``implement_batch`` per model,
which the study engines feed to
:meth:`DDCEvaluator.scenario_candidate_outcomes_from_batches`).  On a
cached evaluator every path shares the same per-(model, configuration)
reports, so their answers are bit-identical.

:class:`DDCEvaluator` is stateless: every method takes the configuration
explicitly and two interleaved calls on one instance can never observe
each other (the seed kept a mutable ``_last_config``, which made the
reconfigurable-winner answer depend on call order).  :class:`ReportCache`
memoises per-(model, configuration) reports — including mapping errors —
behind a content-hashed key so repeated grid consumers (sweep, explore,
paper) amortise model evaluation; each workload's
:meth:`~repro.workloads.base.Workload.shared_evaluator` is the
per-process cached instance they share.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Any, NamedTuple, Sequence

from .. import telemetry
from ..archs.base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)
from ..config import DDCConfig, REFERENCE_DDC
from ..energy.comparison import ArchitectureComparison
from ..energy.scenarios import ScenarioCandidate
from ..energy.technology import TECH_130NM, scale_power
from ..errors import ConfigurationError, MappingError


def default_models() -> list[ArchitectureModel]:
    """The paper's five architectures, in Table 7 order."""
    from ..archs.asic.gc4016 import GC4016Model
    from ..archs.asic.lowpower import LowPowerDDCModel
    from ..archs.fpga.devices import CYCLONE_I_EP1C3, CYCLONE_II_EP2C5
    from ..archs.fpga.model import CycloneModel
    from ..archs.gpp.arm9 import ARM9Model
    from ..archs.montium.model import MontiumModel

    return [
        GC4016Model(),
        LowPowerDDCModel(),
        ARM9Model(),
        CycloneModel(CYCLONE_I_EP1C3),
        CycloneModel(CYCLONE_II_EP2C5),
        MontiumModel(),
    ]


def config_cache_key(config: Any) -> tuple:
    """Content hash of a configuration: the tuple of its field values.

    Two configurations with equal fields share cache entries regardless
    of object identity; any new configuration field automatically
    extends the key.  Works for any workload's frozen configuration
    dataclass (for :class:`~repro.config.DDCConfig` the tuple is
    unchanged from when this helper was DDC-specific, so cache keys and
    the explore store's records carry over).
    """
    return _field_values(type(config))(config)


@lru_cache(maxsize=None)
def _field_values(cls: type) -> attrgetter:
    """One ``attrgetter`` per configuration type, built on first use (every
    configuration has several fields, so it returns a tuple)."""
    return attrgetter(*(f.name for f in fields(cls)))


class ReportCache:
    """Content-hashed (model, configuration) -> implementation report cache.

    Stores the *outcome* of ``model.implement(config)`` — the report, or
    the :class:`~repro.errors.ConfigurationError` /
    :class:`~repro.errors.MappingError` the model raised — keyed by
    ``(model.cache_key(), config_cache_key(config))``.  Mapping errors
    are cached too, so fully-unmappable grid points cost one model call,
    not one per consumer.

    **Picklability contract**: every entry is a frozen dataclass of
    primitives (or a library exception), so a populated cache — and any
    evaluator holding one — pickles cleanly, and the explore store can
    spill it to disk.

    Nothing expires implicitly: :meth:`clear` drops every entry.
    ``hits``/``misses`` make cache behaviour observable for tests and
    benches.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (and reset the hit/miss counters)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------- store hook
    def entries(self):
        """Iterate ``(model_key, config_key, report, error)`` tuples.

        The export side of the on-disk spill
        (:class:`repro.explore.store.ReportStore`): every entry is a
        frozen dataclass of primitives or a library exception, exactly
        what the picklability contract already guarantees.
        """
        for (model_key, config_key), (report, error) in self._entries.items():
            yield model_key, config_key, report, error

    def insert(
        self,
        model_key: tuple,
        config_key: tuple,
        report: ImplementationReport | None,
        error: Exception | None,
    ) -> None:
        """Warm-start one entry (the import side of the on-disk spill).

        Counts as neither a hit nor a miss; the entry must honour the
        cache contract (a report or a cached mapping error, keyed by the
        model's ``cache_key()`` and :func:`config_cache_key` content).
        """
        if (report is None) == (error is None):
            raise ConfigurationError(
                "a cache entry is exactly one of report or error"
            )
        self._entries[(model_key, tuple(config_key))] = (report, error)

    def _outcome(
        self, model: ArchitectureModel, config: DDCConfig
    ) -> tuple[ImplementationReport | None, Exception | None]:
        key = (model.cache_key(), config_cache_key(config))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            telemetry.counter("cache.hit")
            return entry
        self.misses += 1
        telemetry.counter("cache.miss")
        batch = model.implement_batch([config])
        entry = (batch.reports[0], batch.errors[0])
        self._entries[key] = entry
        return entry

    def implement_batch(
        self, model: ArchitectureModel, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """Cached ``model.implement_batch(configs)``.

        Consults the cache per configuration and runs one batched model
        call over the misses only, so a warm cache serves whole axes
        without touching the model.
        """
        if not configs:
            return model.implement_batch(configs)
        model_key = model.cache_key()
        outcomes: list[tuple | None] = []
        missing: list[int] = []
        for i, config in enumerate(configs):
            entry = self._entries.get((model_key, config_cache_key(config)))
            if entry is None:
                missing.append(i)
            else:
                self.hits += 1
            outcomes.append(entry)
        if len(configs) > len(missing):
            telemetry.counter("cache.hit", len(configs) - len(missing))
        telemetry.histogram(
            "cache.batch_size", len(configs), misses=len(missing)
        )
        if missing:
            self.misses += len(missing)
            telemetry.counter("cache.miss", len(missing))
            fresh = model.implement_batch([configs[i] for i in missing])
            for j, i in enumerate(missing):
                entry = (fresh.reports[j], fresh.errors[j])
                self._entries[
                    (model_key, config_cache_key(configs[i]))
                ] = entry
                outcomes[i] = entry
        reports = [entry[0] for entry in outcomes]  # type: ignore[index]
        errors = [entry[1] for entry in outcomes]  # type: ignore[index]
        return BatchImplementationReport.from_reports(
            model.name, reports, errors
        )


@dataclass
class EvaluationResult:
    """Everything the evaluation produced."""

    config: DDCConfig
    reports: list[ImplementationReport]
    comparison: ArchitectureComparison
    static_winner: str
    reconfigurable_winner: str

    def render(self) -> str:
        """The Table 7-style text table."""
        return self.comparison.render()


class DDCEvaluator:
    """Evaluates DDC configurations across architecture models.

    Stateless: configurations are threaded explicitly through every
    method, so one instance serves interleaved or concurrent evaluations
    of different configurations correctly.  ``cache`` (optional) memoises
    per-(model, configuration) reports; the default ``None`` keeps every
    call a fresh model run — the scalar-oracle behaviour the sweep
    verification compares against.
    """

    def __init__(
        self,
        models: list[ArchitectureModel] | None = None,
        cache: ReportCache | None = None,
    ) -> None:
        self.models = models if models is not None else default_models()
        if not self.models:
            raise ConfigurationError("need at least one architecture model")
        self.cache = cache

    # ------------------------------------------------------------- plumbing
    def _outcome(
        self, model: ArchitectureModel, config: DDCConfig
    ) -> tuple[ImplementationReport | None, Exception | None]:
        """``(report, mapping error)`` of one scalar model run."""
        if self.cache is not None:
            return self.cache._outcome(model, config)
        try:
            return model.implement(config), None
        except (ConfigurationError, MappingError) as exc:
            return None, exc

    def _implement(
        self, model: ArchitectureModel, config: DDCConfig
    ) -> ImplementationReport:
        report, error = self._outcome(model, config)
        if error is not None:
            raise error
        return report

    def _implement_batch(
        self, model: ArchitectureModel, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        if self.cache is None:
            return model.implement_batch(configs)
        return self.cache.implement_batch(model, configs)

    def report_batches(
        self, configs: Sequence[DDCConfig]
    ) -> list[BatchImplementationReport]:
        """One :class:`~repro.archs.base.BatchImplementationReport` per
        model over the whole configuration axis, in model order.

        The raw material of the batched consumers: the scenario candidate
        builder (:meth:`scenario_candidates_from_batches`) and the
        design-space explorer's Pareto engine both reuse the same batches
        so each model runs (or hits the cache) exactly once per axis.
        """
        telemetry.histogram(
            "evaluator.batch_size", len(configs), models=len(self.models)
        )
        return [self._implement_batch(model, configs) for model in self.models]

    # ------------------------------------------------------------ evaluate
    def evaluate(self, config: DDCConfig = REFERENCE_DDC) -> EvaluationResult:
        """Run every model; build the comparison and scenario answers."""
        reports: list[ImplementationReport] = []
        comparison = ArchitectureComparison(TECH_130NM)
        for model in self.models:
            report = self._implement(model, config)
            reports.append(report)
            scaled = None
            dyn_only = getattr(model, "dynamic_power_w", None)
            if dyn_only is not None and report.technology.feature_um < 0.13:
                # The paper scales only the *dynamic* component when going
                # up from 0.09 um to the 0.13 um reference (Cyclone II row).
                scaled = scale_power(
                    dyn_only(config), report.technology, TECH_130NM
                )
            comparison.add(report, scaled_power_w=scaled)

        static = self._static_winner(reports)
        reconf = self._reconfigurable_winner(reports, config)
        return EvaluationResult(config, reports, comparison, static, reconf)

    # ------------------------------------------------------------- winners
    def _static_winner(self, reports: list[ImplementationReport]) -> str:
        """Section 7.1: full-time DDC -> lowest feasible native power."""
        feasible = [r for r in reports if r.feasible]
        if not feasible:
            raise ConfigurationError("no architecture sustains the DDC")
        return min(feasible, key=lambda r: r.power_w).architecture

    def _reconfigurable_winner(
        self,
        reports: list[ImplementationReport],
        config: DDCConfig,
    ) -> str:
        """Section 7.2: part-time DDC -> best *reconfigurable* architecture.

        Fixed-function chips waste their silicon when the DDC is idle, so
        the race is restricted to reconfigurable fabrics.  The power
        attributable to the DDC on a shared fabric is its *dynamic*
        component — leakage burns regardless of which task the fabric
        hosts — which is how the Cyclone II (31 mW dynamic at its native
        0.09 um) beats the Montium's 38.7 mW, the paper's "best performing
        architecture at the reconfigurable area is the Altera Cyclone II
        due to its smaller technology size".

        ``config`` is the configuration the reports were produced for —
        threaded explicitly (the evaluator keeps no per-call state).
        """
        best_name = None
        best_power = float("inf")
        for model, report in zip(self.models, reports):
            if not report.feasible:
                continue
            if report.flexibility == Flexibility.FIXED_FUNCTION:
                continue
            dyn = getattr(model, "dynamic_power_w", None)
            power = dyn(config) if dyn else report.power_w
            if power < best_power:
                best_power = power
                best_name = report.architecture
        if best_name is None:
            raise ConfigurationError("no reconfigurable architecture fits")
        return best_name

    # ----------------------------------------------------------- scenarios
    def scenario_candidates(
        self, config: DDCConfig = REFERENCE_DDC,
        standby_fraction: float = 0.05,
        strict: bool = True,
    ) -> list[ScenarioCandidate]:
        """One configuration's scenario candidates, one (cached) model
        run each, through the builder the batched engines share."""
        outcomes = [self._outcome(model, config) for model in self.models]
        columns = [_Column((report,), (error,)) for report, error in outcomes]
        return self.scenario_candidates_from_batches(
            columns, [config], standby_fraction, strict
        )[0]

    def scenario_candidates_from_batches(
        self,
        batches: Sequence[BatchImplementationReport],
        configs: Sequence[DDCConfig],
        standby_fraction: float = 0.05,
        strict: bool = True,
    ) -> list[list[ScenarioCandidate]]:
        """The candidate lists alone, raising the first recorded error
        (``strict=False`` lets unmappable models drop out silently)."""
        build = self.scenario_candidate_outcomes_from_batches
        outcomes = build(batches, configs, standby_fraction, strict)
        if errors := [error for _, error in outcomes if error is not None]:
            raise errors[0]
        return [candidates for candidates, _ in outcomes]

    def scenario_candidate_outcomes_from_batches(
        self,
        batches: Sequence[BatchImplementationReport],
        configs: Sequence[DDCConfig],
        standby_fraction: float = 0.05,
        strict: bool = False,
    ) -> list[tuple[list[ScenarioCandidate] | None, Exception | None]]:
        """The one scenario-candidate builder: ``(candidates, error)`` per
        configuration.

        ``batches`` holds one column per model, aligned with ``configs``:
        a :class:`~repro.archs.base.BatchImplementationReport`, or any
        object with the same ``reports``/``errors`` sequences (the scalar
        :meth:`scenario_candidates` passes one-configuration columns).
        Feasible reports become candidates in model order.  Fixed-function
        chips are charged ``standby_fraction`` of their active power while
        idle (leakage/standby); reconfigurable fabrics are reusable (their
        idle time hosts other work).

        Models that cannot map a configuration (e.g. the Montium schedule
        only implements the reference decimation plan) drop out.  A
        configuration left without a candidate yields ``(None, error)``:
        a :class:`~repro.errors.ConfigurationError` naming it, so one
        poisoned grid cell cannot abort an ``on_error="skip"``/``"retry"``
        run.  ``strict=True`` raises the first recorded error instead, a
        model's mapping error before its configuration's empty-set error.
        """
        out: list[tuple[list[ScenarioCandidate] | None, Exception | None]] = []
        for i, config in enumerate(configs):
            candidates = []
            for batch in batches:
                error = batch.errors[i]
                if error is not None:
                    if strict:
                        raise error
                    continue
                report = batch.reports[i]
                if report.feasible:
                    candidates.append(ScenarioCandidate(
                        name=report.architecture,
                        active_power_w=report.power_w,
                        standby_power_w=report.power_w * standby_fraction,
                        reusable=(
                            report.flexibility != Flexibility.FIXED_FUNCTION
                        ),
                    ))
            if candidates:
                out.append((candidates, None))
                continue
            error = ConfigurationError(
                "no architecture yields a feasible scenario candidate for "
                f"{config}"
            )
            if strict:
                raise error
            out.append((None, error))
        return out

class _Column(NamedTuple):
    """One model's scalar outcome, shaped like a one-configuration batch
    for :meth:`DDCEvaluator.scenario_candidate_outcomes_from_batches`."""

    reports: tuple[ImplementationReport | None]
    errors: tuple[Exception | None]

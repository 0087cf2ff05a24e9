"""Batched execution engine for scenario sweeps.

:func:`evaluate_point` turns one :class:`~repro.sweep.spec.SweepPoint`
into a :class:`PointResult`: it binds the point to a configuration, runs
the architecture models through the **batched model layer**
(the shared evaluator's cached reports, i.e. each model's
``implement_batch`` — no scalar ``implement`` call sits on the grid hot
path), and evaluates the whole duty-cycle x candidate
grid through the batched scenario APIs
(:meth:`~repro.energy.scenarios.ScenarioAnalysis.evaluate_batch`,
:func:`~repro.energy.scenarios.duty_cycle_crossover_batch`).
:func:`run_sweep` goes one level further: the *entire configuration axis*
is served by one pass of the evaluator's candidate builder before any
grid math runs, and the workload's per-process
:meth:`~repro.workloads.base.Workload.shared_evaluator` report cache
amortises repeated configurations across sweeps.

``engine="scalar"`` evaluates the same grid through the seed scalar path
(per-point scalar ``implement`` model runs, one
:meth:`~repro.energy.scenarios.ScenarioAnalysis.evaluate` call per duty
cycle, one pairwise crossover at a time).  Both engines emit bit-identical
:class:`PointResult` s — the scalar engine is the oracle the
``python -m repro.sweep --verify`` mode and the ``scenario_sweep`` /
``evaluator_batch`` bench baselines run against.

Everything here is a module-level callable over picklable descriptors
(:class:`~repro.energy.scenarios.ScenarioCandidate` lists are frozen
dataclasses of primitives), so :func:`run_sweep` can fan points out over
``backend="process"`` pools (see :mod:`repro.parallel`) with
deterministic, serial-identical output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..energy.scenarios import (
    ScenarioAnalysis,
    ScenarioCandidate,
    ScenarioGrid,
    ScenarioResult,
    duty_cycle_crossover,
    duty_cycle_crossover_batch,
    duty_grid,
)
from .. import telemetry
from ..errors import ConfigurationError
from ..faults import fault_point
from ..parallel import parallel_map
from ..resilience import ATTEMPTS, check_not_all_failed, run_guarded
from .spec import SweepPoint, SweepSpec

#: Engines accepted by :func:`evaluate_point` / :func:`run_sweep`.
ENGINES = ("batch", "scalar")


@dataclass(frozen=True)
class PointResult:
    """The scenario grid of one configuration point (picklable, JSON-ready).

    ``powers_w[k][j]`` is candidate ``names[j]`` at the ``k``-th duty
    cycle of the spec's grid; ``crossovers`` lists the in-[0,1] duty-cycle
    crossings of every ``i < j`` candidate pair.
    """

    index: int
    label: str
    overrides: tuple[tuple[str, Any], ...]
    names: tuple[str, ...]
    reusable: tuple[bool, ...]
    active_powers_w: tuple[float, ...]
    powers_w: tuple[tuple[float, ...], ...]
    winners: tuple[str, ...]
    winning_regions: tuple[tuple[float, float, str], ...]
    crossovers: tuple[tuple[str, str, float], ...]

    @property
    def static_winner(self) -> str:
        """Winner at duty cycle 1.0 (Section 7.1, the grid's last step)."""
        return self.winners[-1]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "overrides": {k: v for k, v in self.overrides},
            "names": list(self.names),
            "reusable": list(self.reusable),
            "active_powers_w": list(self.active_powers_w),
            "powers_w": [list(row) for row in self.powers_w],
            "winners": list(self.winners),
            "winning_regions": [list(r) for r in self.winning_regions],
            "crossovers": [list(c) for c in self.crossovers],
            "static_winner": self.static_winner,
        }


@dataclass(frozen=True)
class PointFailure:
    """One grid point's recorded failure (picklable, JSON-ready).

    Produced under ``on_error="skip"``/``"retry"`` instead of aborting
    the sweep: the *underlying* error (never the retry wrapper) is
    recorded by type name and message.  ``attempts`` counts how often
    the point ran; it is deliberately excluded from comparison and from
    the JSON document — reports must stay a pure function of the spec
    and the outcomes, identical across engines and backends.
    """

    index: int
    label: str
    overrides: tuple[tuple[str, Any], ...]
    error_type: str
    message: str
    attempts: int = field(default=1, compare=False)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "overrides": {k: v for k, v in self.overrides},
            "error": {"type": self.error_type, "message": self.message},
        }


def _point_failure(
    point: SweepPoint, error: Exception, attempts: int
) -> PointFailure:
    return PointFailure(
        index=point.index,
        label=point.label(),
        overrides=point.overrides,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
    )


def duty_cycle_grid(analysis: ScenarioAnalysis, steps: int) -> ScenarioGrid:
    """One batched pass over the regular 0..1 duty grid — the sweep
    subsystem's core primitive, shared by Section 7, the figures and the
    ``scenario_sweep`` bench."""
    return analysis.evaluate_batch(duty_grid(steps))


def select_candidates(
    candidates: list[ScenarioCandidate],
    architectures: tuple[str, ...] | None,
) -> list[ScenarioCandidate]:
    """Apply an architecture subset, preserving model order.

    A requested architecture that is missing from *this point's*
    candidates is simply dropped for the point — it may be infeasible or
    unmappable there (the same drop-out the strict=False candidate build
    gives unrestricted sweeps).  Only an empty intersection is an error,
    which is also how typos surface: no point ever matches the name.
    Shared by the sweep engine and the :mod:`repro.explore` cells.
    """
    if architectures is None:
        return candidates
    wanted = set(architectures)
    selected = [c for c in candidates if c.name in wanted]
    if not selected:
        raise ConfigurationError(
            f"none of the requested architecture(s) "
            f"{', '.join(architectures)} are feasible here; this "
            f"point's candidates are {', '.join(c.name for c in candidates)}"
        )
    return selected


def scalar_duty_cycle_grid(
    analysis: ScenarioAnalysis, steps: int
) -> tuple[list[ScenarioResult], tuple[str, ...], tuple]:
    """The seed Section 7 loop over the regular 0..1 duty grid.

    The scalar twin of :func:`duty_cycle_grid`, shared by the scalar
    sweep oracle and the dense explore oracle: one
    :meth:`~repro.energy.scenarios.ScenarioAnalysis.evaluate` per step.
    Returns the per-step results, their winners and the
    ``(start, end, winner)`` regions, whose boundaries are bit-identical
    to :meth:`~repro.energy.scenarios.ScenarioGrid.winning_regions`
    (both read the same duty grid values).
    """
    results = [analysis.evaluate(i / (steps - 1)) for i in range(steps)]
    winners = tuple(r.winner for r in results)
    regions = []
    start, current = results[0].duty_cycle, winners[0]
    for result in results[1:]:
        if result.winner != current:
            regions.append((start, result.duty_cycle, current))
            start, current = result.duty_cycle, result.winner
    regions.append((start, results[-1].duty_cycle, current))
    return results, winners, tuple(regions)


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown sweep engine {engine!r}; expected one of {ENGINES}"
        )


def _spec_workload(spec: SweepSpec):
    """Resolve the spec's workload through the per-process registry.

    Specs carry the workload *name* (picklable); each worker process
    resolves it here, so the batch engine's shared evaluator — and its
    report cache — is per process, exactly as before the workload layer.
    """
    from ..workloads import get

    return get(getattr(spec, "workload", "ddc"))


def point_candidates(
    spec: SweepSpec, point: SweepPoint, engine: str = "batch"
) -> list[ScenarioCandidate]:
    """The point's scenario candidates through the selected model path.

    ``engine="batch"`` asks the shared evaluator (each model's
    ``implement_batch``, with the per-process report cache);
    ``engine="scalar"`` runs the seed scalar path on a fresh, uncached
    evaluator.  Both are bit-identical.
    strict=False either way: architectures whose model cannot map this
    point (e.g. the Montium off its reference schedule) drop out of the
    candidate set instead of aborting the whole sweep.
    """
    _check_engine(engine)
    config = spec.config_at(point)
    workload = _spec_workload(spec)
    evaluator = (
        workload.shared_evaluator() if engine == "batch"
        else workload.evaluator()
    )
    candidates = evaluator.scenario_candidates(
        config, spec.standby_fraction, strict=False
    )
    return select_candidates(candidates, spec.architectures)


def evaluate_point(
    spec: SweepSpec, point: SweepPoint, engine: str = "batch"
) -> PointResult:
    """Evaluate one grid point (module-level: safe for process pools)."""
    _check_engine(engine)
    return _point_result(
        spec, point, point_candidates(spec, point, engine), engine
    )


def _point_task(
    spec: SweepSpec,
    engine: str,
    item: "tuple[SweepPoint, list | Exception | None]",
) -> "PointResult | PointFailure":
    """One point under the spec's ``on_error`` policy (picklable pool task).

    ``item`` pairs the point with the batch engine's pre-built
    candidates, with the candidate-phase error that already doomed it (a
    deterministic model verdict: recorded, never retried), or with
    ``None`` when the scalar engine builds the candidates in the task.
    """
    point, candidates = item
    if isinstance(candidates, Exception):
        return _point_failure(point, candidates, attempts=1)
    result, error, attempts = run_guarded(
        lambda: _point_result(
            spec, point,
            point_candidates(spec, point, engine)
            if candidates is None else candidates,
            engine,
        ),
        spec.on_error,
    )
    return result if error is None else _point_failure(point, error, attempts)


def _point_result(
    spec: SweepSpec,
    point: SweepPoint,
    candidates: list[ScenarioCandidate],
    engine: str,
) -> PointResult:
    """The duty-cycle x candidate grid of one point, either engine.

    Span and fault site share the ``sweep.point`` name so a trace and
    the chaos suite describe the same place.
    """
    with telemetry.span("sweep.point", index=point.index, engine=engine):
        return _point_grid(spec, point, candidates, engine)


def _point_grid(
    spec: SweepSpec,
    point: SweepPoint,
    candidates: list[ScenarioCandidate],
    engine: str,
) -> PointResult:
    fault_point("sweep.point", key=point.index)
    analysis = ScenarioAnalysis(candidates)
    steps = spec.duty_cycle_steps
    names = analysis.names

    if engine == "batch":
        grid = duty_cycle_grid(analysis, steps)
        # tolist() converts the whole grid to python floats at C speed —
        # bit-identical to element-wise float() but without the loop.
        powers = tuple(map(tuple, grid.powers_w.tolist()))
        winners = tuple(grid.winners())
        regions = tuple(grid.winning_regions())
        matrix = duty_cycle_crossover_batch(candidates)
        crossovers = tuple(
            (names[i], names[j], float(matrix[i, j]))
            for i in range(len(names))
            for j in range(i + 1, len(names))
            if not math.isnan(matrix[i, j])
        )
    else:
        results, winners, regions = scalar_duty_cycle_grid(analysis, steps)
        powers = tuple(
            tuple(r.powers_w[name] for name in names) for r in results
        )
        scalar_pairs = []
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                d = duty_cycle_crossover(candidates[i], candidates[j])
                if d is not None:
                    scalar_pairs.append((names[i], names[j], d))
        crossovers = tuple(scalar_pairs)

    return PointResult(
        index=point.index,
        label=point.label(),
        overrides=point.overrides,
        names=names,
        reusable=tuple(c.reusable for c in candidates),
        active_powers_w=tuple(c.active_power_w for c in candidates),
        powers_w=powers,
        winners=winners,
        winning_regions=regions,
        crossovers=crossovers,
    )


def _batch_candidates(
    spec: SweepSpec, points: list[SweepPoint]
) -> "list[list[ScenarioCandidate] | Exception]":
    """Every point's selected candidates, or the error that dooms it,
    from one ``implement_batch`` pass per model over the whole axis.

    Under ``on_error="raise"`` the first doomed point aborts the sweep
    here, before any grid math runs.
    """
    ev = _spec_workload(spec).shared_evaluator()
    configs = [spec.config_at(p) for p in points]
    prepared: "list[list[ScenarioCandidate] | Exception]" = []
    for candidates, error in ev.scenario_candidate_outcomes_from_batches(
        ev.report_batches(configs), configs, spec.standby_fraction
    ):
        if error is None:
            try:
                candidates = select_candidates(candidates, spec.architectures)
            except ConfigurationError as exc:
                error = exc
        if error is not None and spec.on_error == "raise":
            raise error
        prepared.append(candidates if error is None else error)
    return prepared


def run_sweep(
    spec: SweepSpec,
    workers: int | None = None,
    backend: str = "thread",
    engine: str = "batch",
):
    """Execute the whole grid; returns a :class:`~repro.sweep.report.SweepReport`.

    With ``engine="batch"`` the whole configuration axis goes through
    **one** candidate-builder pass (each architecture model's
    ``implement_batch`` runs once over every point) before any grid math;
    ``workers``/``backend`` then fan the per-point duty-cycle grids out
    via :func:`repro.parallel.parallel_map` over picklable
    (point, candidates) descriptors, so ``backend="process"`` ships no
    model work to the children at all.  The scalar oracle engine keeps
    the seed shape — a fresh evaluator running scalar ``implement`` per
    point.  Every combination of knobs returns byte-identical reports in
    point order.

    ``spec.on_error`` selects the failure policy: ``"raise"`` keeps the
    strict first-failure-aborts contract; ``"skip"``/``"retry"`` record
    failing points on the report's error channel instead (see
    :class:`PointFailure`) and mark the report partial, all through
    :func:`repro.resilience.run_guarded`.  Under ``"retry"`` the pooled
    map additionally arms :func:`~repro.parallel.parallel_map`'s
    ``BrokenExecutor`` recovery, so a killed process-pool worker costs
    re-submission, not the sweep; under the other modes it raises
    :class:`~repro.errors.TaskFailedError`.  If *every* point fails,
    :class:`~repro.errors.PartialResultError` is raised — an all-failure
    "report" helps nobody.
    """
    from .report import SweepReport

    _check_engine(engine)
    points = spec.points()
    prepared = (
        _batch_candidates(spec, points)
        if engine == "batch"
        else [None] * len(points)
    )
    raw = parallel_map(
        functools.partial(_point_task, spec, engine),
        list(zip(points, prepared)),
        workers=workers, backend=backend, attempts=ATTEMPTS[spec.on_error],
    )
    results = [r for r in raw if isinstance(r, PointResult)]
    failures = tuple(r for r in raw if isinstance(r, PointFailure))
    check_not_all_failed(
        len(results), len(raw),
        [(f.error_type, f.message) for f in failures],
        spec.on_error, "sweep point(s)",
    )
    duty = tuple(float(d) for d in np.asarray(spec.duty_cycles()))
    return SweepReport(
        spec=spec, duty_cycles=duty, points=results, failures=failures
    )

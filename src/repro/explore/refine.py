"""Adaptive refinement and the dense scalar oracle.

Both engines answer the same question at the same resolution: for every
cell of the search space (discrete point x target-grid axis value), the
feasible scenario candidates, the Pareto frontier over the spec's
objectives, and the duty-cycle winner map.

- ``engine="dense"`` — the **scalar oracle**: every cell evaluated
  through the seed-shaped scalar paths (per-model scalar ``implement``,
  one :meth:`~repro.energy.scenarios.ScenarioAnalysis.evaluate` call per
  duty step, the double-loop Pareto oracle).
- ``engine="adaptive"`` — the coarse grid (plus any seeded probes) is
  evaluated first, then only cells whose *outcome signature* (candidate
  set, frontier membership, duty winner map) differs between adjacent
  evaluated neighbours are bisected, round by round, until every
  signature change is pinned to adjacent target indices.  Unevaluated
  cells inherit the outcome their surrounding neighbours agree on.
  Every round is **one batched model pass**: all newly requested cells
  across every discrete point go through
  :meth:`~repro.core.evaluator.DDCEvaluator.report_batches` together,
  and the frontier masks come from one vectorised dominance broadcast
  over the batch arrays.

One cell builder, :func:`_evaluate_cells`, turns model batches into
cells for both engines: the evaluator's one candidate builder, the
failure policy, the fault site and the snapshots are shared.  The
engines differ only in what they hand it — batched reports, vectorised
frontier masks and the batched duty grid (adaptive), or one
``implement_batch_scalar`` batch per discrete point, the scalar
frontier oracle's masks and the scalar duty loop (dense).

On spaces whose outcomes flip at most once between adjacent coarse
points — which holds for the monotone feasibility/power structure of the
paper's models along the rate axes — the two engines are byte-identical;
``python -m repro.explore --verify`` proves it on the reference space
and the Hypothesis suite pins it on random small spaces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from .. import telemetry
from ..core.evaluator import DDCEvaluator
from ..energy.scenarios import ScenarioAnalysis
from ..errors import ConfigurationError
from ..faults import fault_point
from ..resilience import check_not_all_failed, run_guarded
from ..sweep.engine import (
    duty_cycle_grid,
    scalar_duty_cycle_grid,
    select_candidates,
)
from .pareto import frontier_from_batches, frontier_scalar
from .spec import ExploreSpec

#: Engines accepted by :func:`run_explore`.
ENGINES = ("adaptive", "dense")


@dataclass(frozen=True)
class CellOutcome:
    """The discrete outcome of one search-space cell (JSON-ready).

    Everything here is *fillable*: a cell whose evaluated neighbours
    agree carries exactly their outcome, so adaptive and dense reports
    coincide wherever the signature really is constant.  Numeric
    per-cell data (objective values) lives in the coarse-grid
    :class:`CellSnapshot` instead — both engines evaluate those cells,
    so the numbers are present in both reports, bit for bit.

    ``error`` is the per-cell error channel: under
    ``on_error="skip"``/``"retry"`` a failing cell is recorded as a
    ``(type_name, message)`` pair with empty candidates/frontier/winner
    data instead of aborting the exploration.  The error participates in
    the refinement signature, so the boundary of a failing region is
    bisected exactly like any other outcome change.
    """

    index: int
    value: float
    candidates: tuple[str, ...]
    frontier: tuple[str, ...]
    winners: tuple[str, ...]
    winning_regions: tuple[tuple[float, float, str], ...]
    error: tuple[str, str] | None = None

    @property
    def failed(self) -> bool:
        """True when this cell carries a recorded failure."""
        return self.error is not None

    @property
    def static_winner(self) -> str:
        """Winner at duty cycle 1.0 (the grid's last step)."""
        if not self.winners:
            return "unavailable"
        return self.winners[-1]

    def signature(self) -> tuple:
        """What refinement compares across a cell boundary."""
        return (self.candidates, self.frontier, self.winners, self.error)

    def at(self, index: int, value: float) -> "CellOutcome":
        """This outcome re-addressed to a neighbouring cell (the fill)."""
        return dataclasses.replace(self, index=index, value=value)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "value": self.value,
            "candidates": list(self.candidates),
            "frontier": list(self.frontier),
            "static_winner": self.static_winner,
            "winning_regions": [list(r) for r in self.winning_regions],
            "error": (
                None
                if self.error is None
                else {"type": self.error[0], "message": self.error[1]}
            ),
        }


@dataclass(frozen=True)
class ArchSnapshot:
    """One architecture's numbers at a snapshot cell."""

    name: str
    mappable: bool
    feasible: bool
    on_frontier: bool
    objectives: tuple[float | None, ...]

    def to_json(self, objective_names: Sequence[str]) -> dict:
        return {
            "name": self.name,
            "mappable": self.mappable,
            "feasible": self.feasible,
            "on_frontier": self.on_frontier,
            "objectives": dict(zip(objective_names, self.objectives)),
        }


@dataclass(frozen=True)
class CellSnapshot:
    """Objective values of every architecture at one coarse-grid cell."""

    index: int
    value: float
    architectures: tuple[ArchSnapshot, ...]

    def to_json(self, objective_names: Sequence[str]) -> dict:
        return {
            "index": self.index,
            "value": self.value,
            "architectures": [
                a.to_json(objective_names) for a in self.architectures
            ],
        }


@dataclass(frozen=True)
class PointExploration:
    """All cells of one discrete point, in target-grid order."""

    index: int
    label: str
    overrides: tuple[tuple[str, Any], ...]
    cells: tuple[CellOutcome, ...]
    snapshots: tuple[CellSnapshot, ...]

    def frontier_intervals(
        self, spec: ExploreSpec
    ) -> dict[str, list[tuple[float, float]]]:
        """Per-architecture axis intervals of frontier membership.

        Contiguous runs of cells whose frontier contains the
        architecture, as closed ``[value, value]`` spans — the compact
        summary the CLI prints and the JSON report carries.
        """
        names: list[str] = []
        for cell in self.cells:
            for name in cell.frontier:
                if name not in names:
                    names.append(name)
        out: dict[str, list[tuple[float, float]]] = {n: [] for n in names}
        for name in names:
            start: int | None = None
            for cell in self.cells:
                member = name in cell.frontier
                if member and start is None:
                    start = cell.index
                elif not member and start is not None:
                    out[name].append(
                        (spec.value_at(start), spec.value_at(cell.index - 1))
                    )
                    start = None
            if start is not None:
                out[name].append(
                    (spec.value_at(start), spec.value_at(self.cells[-1].index))
                )
        return out


_CellData = tuple[CellOutcome, CellSnapshot]


# -------------------------------------------------- checkpoint round-trips
# Unlike ``CellOutcome.to_json`` (a *report* view that drops the winners
# tuple for compactness), the checkpoint keeps every field of the outcome
# and snapshot dataclasses; floats survive json's shortest-repr encoding,
# so a resumed run is byte-identical to an uninterrupted one.
def _cell_to_doc(cell: _CellData) -> list:
    return [dataclasses.asdict(part) for part in cell]


def _tuples(value: Any) -> Any:
    """json arrays back to the tuples the dataclasses hold."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _cell_from_doc(doc: list) -> _CellData:
    out_doc, snap_doc = doc
    outcome = CellOutcome(**{k: _tuples(v) for k, v in out_doc.items()})
    archs = tuple(
        ArchSnapshot(**{k: _tuples(v) for k, v in a.items()})
        for a in snap_doc["architectures"]
    )
    return outcome, CellSnapshot(snap_doc["index"], snap_doc["value"], archs)


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown explore engine {engine!r}; expected one of {ENGINES}"
        )


def _guarded_cell(
    spec: ExploreSpec, index: int, value: float, key: Any, build
) -> CellOutcome:
    """Run one cell's outcome builder under the spec's failure policy.

    ``build`` is a zero-argument callable producing the
    :class:`CellOutcome` (it contains the cell's fault site, so a retry
    re-visits it); :func:`~repro.resilience.run_guarded` applies the
    policy, and a recorded failure becomes an outcome carrying only its
    ``error``.  Both engines funnel through here, so the ``explore.cell``
    span (the fault site's name) covers every cell evaluation exactly
    once, retries included.
    """
    with telemetry.span("explore.cell", key=key):
        outcome, error, _ = run_guarded(build, spec.on_error)
    if error is None:
        return outcome
    return CellOutcome(
        index=index,
        value=value,
        candidates=(),
        frontier=(),
        winners=(),
        winning_regions=(),
        error=(type(error).__name__, str(error)),
    )


# -------------------------------------------------------------------- cells
def _evaluate_cells(
    evaluator: DDCEvaluator,
    spec: ExploreSpec,
    keys: Sequence[tuple[int, int]],
    configs: Sequence[Any],
    batches: Sequence,
    masks,
    winner_map,
) -> list[_CellData]:
    """Build the cells of one model pass, for either engine.

    ``keys`` are the cells' ``(point, index)`` fault-site keys, aligned
    with ``configs``; ``batches`` holds one labelled report column per
    model; ``masks[i][j]`` marks model ``j`` on cell ``i``'s frontier;
    ``winner_map(analysis, steps)`` returns ``(winners, regions)``.
    Snapshots come from the batches whatever the cell's outcome, so a
    recorded failure never loses the model numbers.
    """
    outcomes = evaluator.scenario_candidate_outcomes_from_batches(
        batches, configs, spec.standby_fraction
    )
    labels = [b.architecture for b in batches]
    out: list[_CellData] = []
    for i, key in enumerate(keys):
        index = key[1]
        value = spec.value_at(index)
        candidates_i, error_i = outcomes[i]
        mask = masks[i]
        frontier = tuple(
            labels[j] for j in range(len(labels)) if mask[j]
        )

        def build(
            key=key, index=index, value=value,
            candidates_i=candidates_i, error_i=error_i, frontier=frontier,
        ) -> CellOutcome:
            fault_point("explore.cell", key=key)
            if error_i is not None:
                raise error_i
            selected = select_candidates(candidates_i, spec.architectures)
            winners, regions = winner_map(
                ScenarioAnalysis(selected), spec.duty_cycle_steps
            )
            return CellOutcome(
                index=index,
                value=value,
                candidates=tuple(c.name for c in selected),
                frontier=frontier,
                winners=winners,
                winning_regions=regions,
            )

        outcome = _guarded_cell(spec, index, value, key, build)
        archs = tuple(
            ArchSnapshot(
                name=labels[j],
                mappable=bool(batches[j].mappable[i]),
                feasible=bool(batches[j].feasible[i]),
                on_frontier=bool(mask[j]),
                objectives=_snapshot_objectives(
                    batches[j].reports[i], spec.objectives
                ),
            )
            for j in range(len(labels))
        )
        out.append((outcome, CellSnapshot(index, value, archs)))
    return out


def _batch_winner_map(analysis: ScenarioAnalysis, steps: int) -> tuple:
    grid = duty_cycle_grid(analysis, steps)
    return tuple(grid.winners()), tuple(grid.winning_regions())


def _scalar_winner_map(analysis: ScenarioAnalysis, steps: int) -> tuple:
    _, winners, regions = scalar_duty_cycle_grid(analysis, steps)
    return winners, regions


def _snapshot_objectives(report, objectives) -> tuple[float | None, ...]:
    """Raw objective values for a snapshot (None where unpublished or
    unmappable)."""
    if report is None:
        return tuple(None for _ in objectives)
    return tuple(
        None if (v := getattr(report, name)) is None else float(v)
        for name in objectives
    )


# ------------------------------------------------------------------ engines
def run_explore(
    spec: ExploreSpec,
    engine: str = "adaptive",
    evaluator: DDCEvaluator | None = None,
    store=None,
):
    """Explore the space; returns a :class:`~repro.explore.report.ExploreReport`.

    ``engine="adaptive"`` defaults to the spec's workload's
    :meth:`~repro.workloads.base.Workload.shared_evaluator` (cached per
    process, so repeated explorations — and a store-warmed report cache —
    amortise model work); ``engine="dense"`` defaults to a fresh
    uncached :meth:`~repro.workloads.base.Workload.evaluator` running the
    scalar oracle end to end.

    ``store`` (a :class:`~repro.explore.store.ReportStore`, adaptive
    engine only) arms **checkpoint/resume**: after every refinement
    round the evaluated cells, pending set and counters are written to
    the store in one atomic record (together with the report cache), and
    a fresh call for the same space picks up exactly where a killed run
    stopped.  Because the checkpoint round-trips cell state bit for bit
    and refinement is a pure function of that state, a resumed run's
    report is byte-identical to an uninterrupted one.  The checkpoint is
    dropped when the exploration completes.
    """
    from .report import ExploreReport

    _check_engine(engine)
    if store is not None and engine != "adaptive":
        raise ConfigurationError(
            "checkpoint/resume (store=) needs the adaptive engine"
        )
    points = spec.points()
    from ..workloads import get as get_workload

    workload = get_workload(spec.workload)
    wanted = set(spec.architectures) if spec.architectures else None
    if engine == "dense":
        ev = evaluator if evaluator is not None else workload.evaluator()
        # The per-model batch-report labels (a per-model constant, also
        # used for models that map nothing anywhere); the scalar batches
        # carry the models' own names, which may differ.
        labels = [m.implement_batch([]).architecture for m in ev.models]
        coarse_set = set(spec.coarse_indices())
        indices = range(spec.target_steps)
        results = []
        for point in points:
            configs = [spec.config_at(point, index) for index in indices]
            batches = [
                dataclasses.replace(
                    m.implement_batch_scalar(configs), architecture=label
                )
                for m, label in zip(ev.models, labels)
            ]
            masks = [
                frontier_scalar(
                    [b.reports[i] for b in batches], spec.objectives, wanted
                )
                for i in indices
            ]
            data = _evaluate_cells(
                ev, spec, [(point.index, index) for index in indices],
                configs, batches, masks, _scalar_winner_map,
            )
            results.append(
                PointExploration(
                    point.index, point.label(), point.overrides,
                    tuple(outcome for outcome, _ in data),
                    tuple(
                        snap for _, snap in data if snap.index in coarse_set
                    ),
                )
            )
        _check_not_all_failed(spec, results)
        return ExploreReport(spec, results, len(points) * spec.target_steps)

    ev = evaluator if evaluator is not None else workload.shared_evaluator()
    checkpoint = (
        store.load_checkpoint(spec, ev.models) if store is not None else None
    )
    if checkpoint is not None:
        evaluated = [
            {int(k): _cell_from_doc(v) for k, v in point_doc.items()}
            for point_doc in checkpoint["evaluated"]
        ]
        counts = list(checkpoint["counts"])
        pending = [(p, index) for p, index in checkpoint["pending"]]
        evaluations = checkpoint["evaluations"]
        round_no = checkpoint["round"]
    else:
        evaluated: list[dict[int, _CellData]] = [{} for _ in points]
        counts = [0] * len(points)
        initial = sorted(
            set(spec.coarse_indices()) | set(spec.probe_indices())
        )
        pending = [
            (p, index) for p in range(len(points)) for index in initial
        ]
        evaluations = 0
        round_no = 0
    while pending:
        # One adaptive refinement round — span name matches the
        # "explore.round" fault site below.
        with telemetry.span(
            "explore.round", round=round_no, cells=len(pending)
        ):
            fault_point("explore.round", key=round_no)
            configs = [
                spec.config_at(points[p], index) for p, index in pending
            ]
            batches = ev.report_batches(configs)
            data = _evaluate_cells(
                ev, spec,
                [(points[p].index, index) for p, index in pending],
                configs, batches,
                frontier_from_batches(batches, spec.objectives, wanted),
                _batch_winner_map,
            )
            for (p, index), cell in zip(pending, data):
                evaluated[p][index] = cell
                counts[p] += 1
            evaluations += len(pending)
            pending = []
            for p in range(len(points)):
                budget = spec.max_evaluations
                room = (
                    None if budget is None else max(0, budget - counts[p])
                )
                indices = sorted(evaluated[p])
                queued = 0
                for a, b in zip(indices, indices[1:]):
                    if b - a <= 1:
                        continue
                    sig_a = evaluated[p][a][0].signature()
                    sig_b = evaluated[p][b][0].signature()
                    if sig_a == sig_b:
                        continue
                    if room is not None and queued >= room:
                        break
                    pending.append((p, (a + b) // 2))
                    queued += 1
            round_no += 1
            if store is not None:
                store.save_checkpoint(
                    spec,
                    ev.models,
                    {
                        "round": round_no,
                        "evaluations": evaluations,
                        "counts": list(counts),
                        "evaluated": [
                            {
                                str(index): _cell_to_doc(cell)
                                for index, cell in sorted(point_cells.items())
                            }
                            for point_cells in evaluated
                        ],
                        "pending": [[p, index] for p, index in pending],
                    },
                    cache=getattr(ev, "cache", None),
                )

    coarse = spec.coarse_indices()
    results = []
    for p, point in enumerate(points):
        cells: list[CellOutcome] = []
        indices = sorted(evaluated[p])
        cursor = 0
        for index in range(spec.target_steps):
            if index in evaluated[p]:
                cells.append(evaluated[p][index][0])
                continue
            while indices[cursor + 1] < index:
                cursor += 1
            a, b = indices[cursor], indices[cursor + 1]
            out_a = evaluated[p][a][0]
            out_b = evaluated[p][b][0]
            if out_a.signature() == out_b.signature():
                source = out_a
            else:  # budget exhausted mid-refinement: nearest neighbour
                source = out_a if index - a <= b - index else out_b
            cells.append(source.at(index, spec.value_at(index)))
        results.append(
            PointExploration(
                point.index, point.label(), point.overrides,
                tuple(cells),
                tuple(evaluated[p][k][1] for k in coarse),
            )
        )
    _check_not_all_failed(spec, results)
    if store is not None:
        store.clear_checkpoint(spec, ev.models)
    return ExploreReport(spec, results, evaluations)


def _check_not_all_failed(
    spec: ExploreSpec, results: "list[PointExploration]"
) -> None:
    """An exploration where *every* cell failed helps nobody — raise."""
    cells = [cell for p in results for cell in p.cells]
    errors = [cell.error for cell in cells if cell.failed]
    check_not_all_failed(
        len(cells) - len(errors), len(cells), errors, spec.on_error,
        "explore cell(s)",
    )

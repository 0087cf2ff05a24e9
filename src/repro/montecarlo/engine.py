"""The population engine: million-user runs in one vectorised pass.

Execution plan for a :class:`~repro.montecarlo.spec.PopulationSpec`:

1. **Sample once, up front.**  One ``np.random.default_rng(seed)`` pass
   draws the duty-cycle array and the per-axis index arrays in
   declaration order.  Everything downstream only *slices* these — which
   is why reports are byte-identical across chunk sizes, worker counts
   and thread/process backends.
2. **Deduplicate to distinct configurations.**  Axis index tuples are
   packed into mixed-radix codes; ``np.unique(..., return_inverse=True)``
   maps every sample to a distinct-config row.  10^6 samples over
   ``choice(63,125,255)`` cost three model evaluations, not a million.
3. **One batched model evaluation per distinct config.**  The candidate
   table (architectures x distinct configs of active/idle watts, ``nan``
   marking infeasible cells) is built from
   ``DDCEvaluator.report_batches`` — or, in the scalar oracle, from each
   model's ``implement_batch_scalar`` loop, so ``--verify`` covers the
   model layer too.
4. **Chunked fused streaming.**  Samples stream through
   :func:`repro.energy.scenarios.effective_power_samples` +
   :func:`~repro.energy.scenarios.winner_counts` in ``chunk_samples``
   slices fanned out via :func:`repro.parallel.parallel_map`, never as
   per-sample reports or python objects.  ``chunk_samples`` bounds only
   the per-chunk temporaries: the ``(n_samples, n_arch)`` float64 power
   matrix, needed for exact percentiles, is always materialised in full
   (~48 MB per 10^6 users x 6 architectures), as are the up-front
   sample arrays.

Failure policy mirrors the sweep engine (one
:func:`repro.resilience.run_guarded` runner under both):
``on_error="raise"`` aborts on the first poisoned config;
``"skip"``/``"retry"`` record
:class:`ConfigFailure`/:class:`ChunkFailure` entries on the report's
error channel, drop the affected samples, and mark the report partial
(all-samples-lost raises :class:`~repro.errors.PartialResultError`).
Chunks declare the ``montecarlo.chunk`` fault-injection site.

The scalar oracle (``engine="scalar"``) re-derives every per-sample
number through the scalar seed APIs — a python dict lookup from the
sample's axis-index tuple to its config row, a
:meth:`~repro.energy.scenarios.ScenarioCandidate.effective_power_w`
call per architecture, a python ``min`` winner — and feeds the *same*
aggregation code, so ``--verify`` byte-compares full reports.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..energy.scenarios import (
    ScenarioCandidate,
    check_duty_cycles,
    effective_power_samples,
    winner_counts,
)
from .. import telemetry
from ..errors import ConfigurationError
from ..faults import fault_point
from ..parallel import parallel_map
from ..resilience import check_not_all_failed, pool_retry, run_guarded
from .spec import PopulationSpec

ENGINES = ("vector", "scalar")

#: Mixed-radix codes must fit int64 with headroom.
_MAX_DISTINCT = 2**62


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose one of: "
            + ", ".join(ENGINES)
        )


# --------------------------------------------------------------------------
# failures (picklable, JSON-ready; mirrors sweep.PointFailure)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ConfigFailure:
    """One distinct configuration's recorded failure.

    ``phase`` is ``"build"`` (the axis values do not form a valid
    configuration) or ``"infeasible"`` (no architecture yields a
    feasible scenario candidate).  ``n_samples`` counts the sampled
    users dropped with it.
    """

    row: int
    phase: str
    overrides: tuple[tuple[str, Any], ...]
    error_type: str
    message: str
    n_samples: int

    def describe(self) -> dict[str, Any]:
        return {
            "row": self.row,
            "phase": self.phase,
            "overrides": {k: v for k, v in self.overrides},
            "error_type": self.error_type,
            "message": self.message,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class ChunkFailure:
    """One streamed chunk's recorded failure (its samples are dropped)."""

    index: int
    start: int
    stop: int
    error_type: str
    message: str

    def describe(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "stop": self.stop,
            "error_type": self.error_type,
            "message": self.message,
        }


# --------------------------------------------------------------------------
# sampling + dedup
# --------------------------------------------------------------------------
def sample_population(
    spec: PopulationSpec,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw the whole population in one seeded pass.

    Returns the duty-cycle array (validated through the shared
    :func:`~repro.energy.scenarios.check_duty_cycles` gate — the spec's
    bounds proof makes this a no-op assertion) and one int64 index array
    per config axis, in declaration order.
    """
    rng = np.random.default_rng(spec.seed)
    duty = np.asarray(
        spec.duty_cycle.sample(rng, spec.n_samples), dtype=np.float64
    )
    duty = check_duty_cycles(duty)
    axis_indices = [
        dist.sample_indices(rng, spec.n_samples) for _, dist in spec.axes
    ]
    return duty, axis_indices


def dedup_axis_indices(
    spec: PopulationSpec, axis_indices: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Unique-point deduplication over the discrete axes.

    Packs each sample's axis-index tuple into a mixed-radix int64 code
    and uniquifies.  Returns ``(inverse, keys)``: ``inverse[i]`` is the
    distinct-config row of sample ``i`` and ``keys[r]`` the axis-index
    tuple of row ``r`` (rows in ascending code order — deterministic).
    """
    n = spec.n_samples
    if not axis_indices:
        return np.zeros(n, dtype=np.int64), [()]
    if spec.n_distinct_bound() > _MAX_DISTINCT:
        raise ConfigurationError(
            "population axes span more than 2^62 distinct configurations; "
            "thin the axis supports"
        )
    radices = [len(dist.support) for _, dist in spec.axes]
    codes = np.zeros(n, dtype=np.int64)
    for idx, radix in zip(axis_indices, radices):
        codes = codes * radix + idx
    total = spec.n_distinct_bound()
    if total <= (1 << 22):
        # Small code spaces (the common case: a few discrete axes) take
        # the O(n) bincount route instead of np.unique's O(n log n)
        # sort; the distinct rows come out in the same ascending-code
        # order either way.
        hist = np.bincount(codes, minlength=total)
        uniq = np.nonzero(hist)[0]
        lookup = np.zeros(total, dtype=np.int64)
        lookup[uniq] = np.arange(len(uniq), dtype=np.int64)
        inverse = lookup[codes]
    else:
        uniq, inverse = np.unique(codes, return_inverse=True)
    keys = []
    for code in uniq.tolist():
        key = []
        for radix in reversed(radices):
            key.append(int(code % radix))
            code //= radix
        keys.append(tuple(reversed(key)))
    return inverse.astype(np.int64), keys


def _overrides(
    spec: PopulationSpec, key: tuple[int, ...]
) -> tuple[tuple[str, Any], ...]:
    """Row key -> config overrides, preserving python value types."""
    return tuple(
        (name, dist.support[i])
        for (name, dist), i in zip(spec.axes, key)
    )


# --------------------------------------------------------------------------
# the candidate table
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateTable:
    """Distinct configs x architectures, as flat arrays (picklable).

    Columns are the workload's models in declaration order — the same
    order every scalar consumer sees, so "first minimum wins ties" means
    the same candidate on both engines.  ``nan`` cells are infeasible /
    unmappable; ``ok[r]`` is False when row ``r`` has no feasible column
    (or its configuration failed to build) and its samples are dropped.
    """

    names: tuple[str, ...]
    reusable: tuple[bool, ...]
    active_w: np.ndarray
    idle_w: np.ndarray
    ok: np.ndarray
    row_keys: tuple[tuple[int, ...], ...]


def build_candidate_table(
    spec: PopulationSpec,
    keys: Sequence[tuple[int, ...]],
    engine: str = "vector",
) -> tuple[CandidateTable, list[ConfigFailure], list[Any]]:
    """One batched model evaluation per distinct configuration.

    ``engine="vector"`` rides the workload's shared cached evaluator
    (``report_batches`` -> each model's ``implement_batch`` once);
    ``engine="scalar"`` rebuilds the table through each model's
    ``implement_batch_scalar`` per-config loop, so the oracle's numbers
    carry scalar provenance end to end.  Returned failures have
    ``n_samples=0`` — the caller weights them with the dedup counts.
    """
    from ..workloads import get as get_workload

    wl = get_workload(spec.workload)
    tolerant = spec.on_error != "raise"

    configs: list[Any] = []
    build_failures: dict[int, ConfigFailure] = {}
    valid_rows: list[int] = []
    for r, key in enumerate(keys):
        overrides = _overrides(spec, key)
        try:
            config = dataclasses.replace(
                spec.base_config, **{k: v for k, v in overrides}
            )
            wl.check_config(config)
        except ConfigurationError as exc:
            if not tolerant:
                raise
            build_failures[r] = ConfigFailure(
                row=r, phase="build", overrides=overrides,
                error_type=type(exc).__name__, message=str(exc),
                n_samples=0,
            )
            configs.append(None)
            continue
        valid_rows.append(r)
        configs.append(config)

    valid_configs = [configs[r] for r in valid_rows]
    if engine == "scalar":
        evaluator = wl.evaluator()
        batches = [
            model.implement_batch_scalar(valid_configs)
            for model in evaluator.models
        ]
    else:
        evaluator = wl.shared_evaluator()
        batches = evaluator.report_batches(valid_configs)
    # One pass of the evaluator's candidate builder fills the table and
    # the no-feasible-architecture error channel, so messages (and the
    # strict-mode raise) match the rest of the stack exactly.
    outcomes = evaluator.scenario_candidate_outcomes_from_batches(
        batches, valid_configs, spec.standby_fraction
    )

    m, n_arch = len(keys), len(batches)
    active = np.full((m, n_arch), np.nan)
    idle = np.full((m, n_arch), np.nan)
    names = [model.name for model in evaluator.models]
    reusable = [False] * n_arch
    named = [False] * n_arch
    failures = list(build_failures.values())
    for i, (r, (candidates, error)) in enumerate(zip(valid_rows, outcomes)):
        if error is not None:
            if not tolerant:
                raise error
            failures.append(ConfigFailure(
                row=r, phase="infeasible", overrides=_overrides(spec, keys[r]),
                error_type=type(error).__name__, message=str(error),
                n_samples=0,
            ))
            continue
        # Candidates come in model order, one per feasible column.
        columns = [j for j, batch in enumerate(batches) if batch.feasible[i]]
        for j, cand in zip(columns, candidates):
            active[r, j] = cand.active_power_w
            idle[r, j] = cand.idle_power_w
            if not named[j]:
                names[j], reusable[j], named[j] = cand.name, cand.reusable, True
    ok = ~np.all(np.isnan(active), axis=1)

    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"workload {spec.workload!r} architecture labels collide: "
            f"{names!r}; the scalar oracle's name-keyed seed API "
            "(ScenarioAnalysis.evaluate) needs them distinct"
        )
    table = CandidateTable(
        names=tuple(names),
        reusable=tuple(reusable),
        active_w=active,
        idle_w=idle,
        ok=ok,
        row_keys=tuple(tuple(k) for k in keys),
    )
    failures.sort(key=lambda f: f.row)
    return table, failures, configs


# --------------------------------------------------------------------------
# chunked fused streaming (vector engine)
# --------------------------------------------------------------------------
def _chunk_pass(
    table: CandidateTable,
    duty_bins: int,
    duty_c: np.ndarray,
    inverse_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One fused numpy pass over a sample slice.

    Gathers each sample's candidate row, computes every effective power
    in one :func:`effective_power_samples` call, and aggregates winners
    with :func:`winner_counts`.  Dropped/infeasible cells ride the
    ``nan`` channel throughout.
    """
    active = table.active_w[inverse_c]
    idle = table.idle_w[inverse_c]
    powers = effective_power_samples(active, idle, duty_c)
    bins_idx = np.minimum(
        (duty_c * duty_bins).astype(np.int64), duty_bins - 1
    )
    counts = winner_counts(powers, bins_idx, duty_bins)
    return powers, counts


def _chunk_task(
    table: CandidateTable,
    duty_bins: int,
    on_error: str,
    item: tuple[int, int, np.ndarray, np.ndarray],
) -> tuple[int, int, np.ndarray, np.ndarray] | ChunkFailure:
    """Pool task for one chunk (module-level + partial: picklable)."""
    index, start, duty_c, inverse_c = item

    def run() -> tuple[np.ndarray, np.ndarray]:
        # Span and fault site share the "montecarlo.chunk" vocabulary;
        # each retry attempt times as its own span.
        with telemetry.span(
            "montecarlo.chunk", index=index, size=int(len(duty_c))
        ):
            fault_point("montecarlo.chunk", key=index)
            return _chunk_pass(table, duty_bins, duty_c, inverse_c)

    result, error, _ = run_guarded(
        run, on_error, f"montecarlo chunk {index}"
    )
    if error is not None:  # recorded, never silently swallowed
        return ChunkFailure(
            index=index, start=start, stop=start + len(duty_c),
            error_type=type(error).__name__, message=str(error),
        )
    return (index, start, *result)


def _run_vector(
    spec: PopulationSpec,
    table: CandidateTable,
    duty: np.ndarray,
    inverse: np.ndarray,
    workers: int | None,
    backend: str,
) -> tuple[np.ndarray, np.ndarray, list[ChunkFailure]]:
    n, n_arch = spec.n_samples, len(table.names)
    items = []
    for k, start in enumerate(range(0, n, spec.chunk_samples)):
        stop = min(start + spec.chunk_samples, n)
        items.append((k, start, duty[start:stop], inverse[start:stop]))
    task = functools.partial(
        _chunk_task, table, spec.duty_bins, spec.on_error
    )
    raw = parallel_map(
        task, items, workers=workers, backend=backend,
        retry=pool_retry(spec.on_error),
    )
    # Every sample row is written exactly once below — by its chunk's
    # result, or with nan for a failed chunk — so the matrix can start
    # uninitialised instead of paying an n x n_arch fill pass.
    powers = np.empty((n, n_arch))
    counts = np.zeros((spec.duty_bins, n_arch), dtype=np.int64)
    chunk_failures: list[ChunkFailure] = []
    for result in raw:
        if isinstance(result, ChunkFailure):
            chunk_failures.append(result)
            powers[result.start:result.stop] = np.nan
            continue
        index, start, chunk_powers, chunk_counts = result
        powers[start:start + len(chunk_powers)] = chunk_powers
        counts += chunk_counts
    return powers, counts, chunk_failures


# --------------------------------------------------------------------------
# the scalar per-sample oracle
# --------------------------------------------------------------------------
def _run_scalar(
    spec: PopulationSpec,
    table: CandidateTable,
    duty: np.ndarray,
    axis_indices: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The per-sample scalar oracle loop — the naive seed-API program.

    What a user without this package would write: for every sampled
    user, build the configuration (``dataclasses.replace`` per sample),
    ask the evaluator for its scenario candidates
    (:meth:`~repro.core.evaluator.DDCEvaluator.scenario_candidates`,
    scalar ``implement`` memoised through a
    :class:`~repro.core.evaluator.ReportCache` — without memoisation a
    10^4-sample run would re-run the instruction-set simulator per
    user), and rank them with the seed's scalar
    :meth:`~repro.energy.scenarios.ScenarioAnalysis.evaluate` (one
    name-keyed powers dict + python ``min``; insertion order = column
    order, so its first-minimum tie rule is the batched argmin's).
    No unique-point dedup, no vectorisation — that contrast is exactly
    what the ``montecarlo_population`` bench prices.  Feeds the same
    aggregation as the vector engine, so any estimator divergence shows
    up as a byte diff under ``--verify``.
    """
    from ..core.evaluator import ReportCache
    from ..energy.scenarios import ScenarioAnalysis
    from ..workloads import get as get_workload

    wl = get_workload(spec.workload)
    evaluator = wl.evaluator(cache=ReportCache())
    n, n_arch = spec.n_samples, len(table.names)
    column_of = {name: j for j, name in enumerate(table.names)}
    powers = np.full((n, n_arch), np.nan)
    counts = np.zeros((spec.duty_bins, n_arch), dtype=np.int64)
    axis_columns = [np.asarray(ax) for ax in axis_indices]
    supports = [dist.support for _, dist in spec.axes]
    fields = [name for name, _ in spec.axes]
    bins = spec.duty_bins
    for i in range(n):
        overrides = {
            field: supports[k][int(axis_columns[k][i])]
            for k, field in enumerate(fields)
        }
        try:
            config = dataclasses.replace(spec.base_config, **overrides)
            candidates = evaluator.scenario_candidates(
                config, spec.standby_fraction, strict=False
            )
            analysis = ScenarioAnalysis(candidates)
        except ConfigurationError:
            # Tolerant-mode drop; under on_error="raise" the candidate
            # table already raised for this configuration.
            continue
        d = float(duty[i])
        result = analysis.evaluate(d)
        for candidate, power in zip(
            candidates, result.powers_w.values()
        ):
            powers[i, column_of[candidate.name]] = power
        bin_index = min(int(d * bins), bins - 1)
        counts[bin_index, column_of[result.winner]] += 1
    return powers, counts


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------
def run_population(
    spec: PopulationSpec,
    workers: int | None = None,
    backend: str = "thread",
    engine: str = "vector",
):
    """Run a population spec to a deterministic report.

    ``engine="vector"`` is the production path (dedup + chunked fused
    streaming, optionally fanned out over ``workers``/``backend``);
    ``engine="scalar"`` is the per-sample oracle loop (always serial —
    it *is* the reference).  Identical specs produce byte-identical
    reports across engines, chunk sizes, worker counts and backends.
    """
    from .report import build_report

    _check_engine(engine)
    duty, axis_indices = sample_population(spec)
    inverse, keys = dedup_axis_indices(spec, axis_indices)
    table, failures, _ = build_candidate_table(spec, keys, engine)

    row_samples = np.bincount(inverse, minlength=len(keys))
    failures = [
        dataclasses.replace(f, n_samples=int(row_samples[f.row]))
        for f in failures
    ]

    if engine == "scalar":
        powers, counts = _run_scalar(spec, table, duty, axis_indices)
        chunk_failures: list[ChunkFailure] = []
    else:
        powers, counts, chunk_failures = _run_vector(
            spec, table, duty, inverse, workers, backend
        )

    # Every valid sample lands exactly one winner count, so the counts
    # total is the valid-sample total — no all-nan row scan needed.
    check_not_all_failed(
        int(counts.sum()), spec.n_samples,
        [(f.error_type, f.message) for f in (*failures, *chunk_failures)],
        spec.on_error, "sampled user(s)",
    )
    return build_report(
        spec, table, powers, counts,
        failures=tuple(failures), chunk_failures=tuple(chunk_failures),
    )

"""The population engine: million-user runs streamed in bounded memory.

Execution plan for a :class:`~repro.montecarlo.spec.PopulationSpec`:

1. **Snapshot every draw, then stream.**  A pre-pass runs the spec's
   fixed sequence of size-``n`` draws (duty first, then the axes in
   declaration order) on ``np.random.default_rng(seed)``, keeping only a
   snapshot of the generator at the start of each.  Every pass gives
   each draw a copy of its snapshot and advances them in lockstep, chunk
   by chunk: chunked PCG64 draws equal one full draw, which is why
   reports are byte-identical across chunk sizes and worker counts.
2. **Deduplicate to distinct configurations.**  Axis index tuples are
   packed into mixed-radix codes and histogrammed chunk by chunk.  10^6
   samples over ``choice(63,125,255)`` cost three model evaluations.
3. **One batched model evaluation per distinct config.**  The candidate
   table (architectures x distinct configs of active/idle watts, ``nan``
   marking infeasible cells) is built from
   ``DDCEvaluator.report_batches`` — or, in the scalar oracle, from each
   model's ``implement_batch_scalar`` loop, so ``--verify`` covers the
   model layer too.
4. **Chunked fused streaming.**  Chunks go through
   :func:`repro.energy.scenarios.effective_power_samples` +
   :func:`~repro.energy.scenarios.winner_counts` via
   :func:`repro.parallel.parallel_map`, at most one per pool thread in
   flight.
   The table and the histogram fix each column's feasible count, hence
   the sorted positions the report reads; per position only values in
   a narrowing bracket are kept (:class:`_Brackets`), so memory does not
   grow with ``n_samples``.  Positions a bracket missed are selected by
   re-streaming from the snapshots (:func:`_restream`).

Failure policy mirrors the sweep engine (one
:func:`repro.resilience.run_guarded` runner under both):
``on_error="raise"`` aborts on the first poisoned config;
``"skip"``/``"retry"`` record
:class:`ConfigFailure`/:class:`ChunkFailure` entries on the report's
error channel, drop the affected samples, and mark the report partial
(all-samples-lost raises :class:`~repro.errors.PartialResultError`).
Chunks declare the ``montecarlo.chunk`` fault-injection site.

The scalar oracle (``engine="scalar"``) draws one chunk through the
same sampler and dedup, then re-derives every per-sample number through
the scalar seed APIs — a python dict lookup from the sample's
axis-index tuple to its config row, a
:meth:`~repro.energy.scenarios.ScenarioCandidate.effective_power_w`
call per architecture, a python ``min`` winner — and sorts whole
columns, so ``--verify`` byte-compares full reports.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..archs.base import Flexibility
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
from ..resilience import check_not_all_failed, run_guarded
from .spec import PopulationSpec

ENGINES = ("vector", "scalar")
#: Largest population per engine.  Vector memory stays flat, but at ~5e6
#: users/s (2-CPU box) 10^10 users take half an hour; the scalar oracle is
#: a per-sample python loop (~10^4 users/s) over an ``(n, n_arch)`` matrix.
MAX_VECTOR_SAMPLES, MAX_SCALAR_SAMPLES = 10**10, 10**6

#: Mixed-radix codes must fit int64 with headroom.
_MAX_DISTINCT = 2**62


def _check_engine(engine: str, n_samples: int) -> None:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose one of: "
            + ", ".join(ENGINES)
        )
    limit = MAX_VECTOR_SAMPLES if engine == "vector" else MAX_SCALAR_SAMPLES
    if n_samples > limit:
        raise ConfigurationError(
            f"n_samples={n_samples} exceeds the {engine} engine's limit of {limit}"
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
class _DrawRecorder:
    """Pre-pass generator stand-in: each ``<method>(..., size=k)`` draw
    snapshots the generator, then advances it past all ``n`` variates in
    discarded ``block``-sized draws and returns ``k`` of them."""

    def __init__(self, rng: np.random.Generator, n: int, block: int) -> None:
        self.rng, self.n, self.block, self.snapshots = rng, n, block, []

    def __getattr__(self, method: str) -> Callable[..., np.ndarray]:
        def record(*args: Any, size: int, **kwargs: Any) -> np.ndarray:
            self.snapshots.append(copy.deepcopy(self.rng))
            for start in range(0, self.n, self.block):
                block = min(self.block, self.n - start)
                out = getattr(self.rng, method)(*args, size=block, **kwargs)
            return out[:size]

        return record


class _Lockstep:
    """Streamed-pass generator stand-in: the k-th draw of each ``sample``
    call comes from a copy of the k-th snapshot, which keeps its place."""

    def __init__(self, snapshots: Sequence[np.random.Generator]) -> None:
        self.gens, self.next = copy.deepcopy(snapshots), 0

    def __getattr__(self, method: str) -> Any:
        gen = self.gens[self.next]
        self.next = (self.next + 1) % len(self.gens)
        return getattr(gen, method)


def sample_population(
    spec: PopulationSpec,
    streams: Sequence[Any],
    start: int,
    stop: int,
    duty: bool = True,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Users ``[start, stop)`` from ``streams`` (one per distribution: duty,
    then each axis): duty cycles (``None`` unless ``duty``) checked by
    :func:`~repro.energy.scenarios.check_duty_cycles` with global indices,
    and one index array per axis."""
    duty_c = None
    if duty:
        drawn = spec.duty_cycle.sample(streams[0], stop - start, start)
        duty_c = check_duty_cycles(np.asarray(drawn, dtype=np.float64), start)
    return duty_c, [
        dist.sample_indices(stream, stop - start, start)
        for (_, dist), stream in zip(spec.axes, streams[1:])
    ]


def _chunks(
    spec: PopulationSpec, snapshots: list, size: int, duty: bool = True
) -> Iterator[tuple[int, int, np.ndarray | None, list[np.ndarray], np.ndarray]]:
    """``(index, start, duty, axis_indices, codes)`` per chunk of ``size``
    users, in order, from fresh lockstep streams."""
    streams = [_Lockstep(s) for s in snapshots]
    for k, start in enumerate(range(0, spec.n_samples, size)):
        stop = min(start + size, spec.n_samples)
        duty_c, axis_indices = sample_population(spec, streams, start, stop, duty)
        codes = np.zeros(stop - start, dtype=np.int64)
        for idx, (_, dist) in zip(axis_indices, spec.axes):
            codes = codes * len(dist.support) + idx
        yield k, start, duty_c, axis_indices, codes


def dedup_axis_indices(
    spec: PopulationSpec, chunks: Iterable[np.ndarray]
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray, list[tuple[int, ...]]]:
    """Unique-point deduplication over streamed mixed-radix code chunks.

    Returns ``(rows_of, counts, keys)``: ``rows_of`` maps codes to rows
    (ascending code order — deterministic), ``counts[r]`` and ``keys[r]``
    are row ``r``'s users and axis indices."""
    total = spec.n_distinct_bound()
    if total > _MAX_DISTINCT:
        raise ConfigurationError(
            "population axes span more than 2^62 distinct configurations; "
            "thin the axis supports"
        )
    # Small code spaces (a few discrete axes) take the O(n) bincount route.
    small = total <= (1 << 22)
    uniq = np.empty(0, dtype=np.int64)
    counts = np.zeros(total if small else 0, dtype=np.int64)
    for codes in chunks:
        if small:
            counts += np.bincount(codes, minlength=total)
            continue
        chunk_uniq, chunk_counts = np.unique(codes, return_counts=True)
        uniq, inverse = np.unique(np.append(uniq, chunk_uniq), return_inverse=True)
        counts = np.bincount(inverse, np.append(counts, chunk_counts)).astype(int)
    if small:
        rows_of = (np.cumsum(counts > 0) - 1).__getitem__
        uniq = np.flatnonzero(counts)
        counts = counts[uniq]
    else:
        rows_of = functools.partial(np.searchsorted, uniq)
    radices = [len(dist.support) for _, dist in spec.axes]
    if not radices:  # every user has the base configuration
        return rows_of, counts, [()]
    keys = list(zip(*(i.tolist() for i in np.unravel_index(uniq, radices))))
    return rows_of, counts, keys


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
    reusable = [
        model.flexibility != Flexibility.FIXED_FUNCTION
        for model in evaluator.models
    ]
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
    rows_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One fused numpy pass over a sample slice.

    Computes every effective power in one :func:`effective_power_samples`
    call (laid out architecture-major: the same elementwise math) and
    aggregates winners with :func:`winner_counts`.  Returns each
    architecture's powers sorted ascending (``nan`` last) and the counts.
    """
    active = np.take(table.active_w.T, rows_c, axis=1)
    idle = np.take(table.idle_w.T, rows_c, axis=1)
    powers = effective_power_samples(active.T, idle.T, duty_c)
    bins_idx = np.minimum(
        (duty_c * duty_bins).astype(np.int64), duty_bins - 1
    )
    counts = winner_counts(powers, bins_idx, duty_bins)
    powers.T.sort(axis=1)
    return powers.T, counts


def _chunk_task(
    table: CandidateTable,
    duty_bins: int,
    on_error: str,
    item: tuple[int, int, np.ndarray, np.ndarray],
) -> tuple[int, int, np.ndarray, np.ndarray] | ChunkFailure:
    """Pool task for one chunk."""
    index, start, duty_c, rows_c = item

    def run() -> tuple[np.ndarray, np.ndarray]:
        # Span and fault site share the "montecarlo.chunk" vocabulary;
        # each retry attempt times as its own span.
        with telemetry.span(
            "montecarlo.chunk", index=index, size=int(len(duty_c))
        ):
            fault_point("montecarlo.chunk", key=index)
            return _chunk_pass(table, duty_bins, duty_c, rows_c)

    result, error, _ = run_guarded(run, on_error)
    if error is not None:  # recorded, never silently swallowed
        return ChunkFailure(
            index=index, start=start, stop=start + len(duty_c),
            error_type=type(error).__name__, message=str(error),
        )
    return (index, start, *result)


def _merge(
    runs: tuple[np.ndarray, np.ndarray], new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``new`` values merged into ascending ``(values, counts)``."""
    values = np.append(runs[0], new)
    order = np.argsort(values, kind="stable")  # merges two sorted runs
    return values[order], np.append(runs[1], np.ones(new.size, int))[order]


class _Brackets:
    """Exact order statistics of one column's streamed values.

    Per target position ``t`` (0-based, of ``n`` expected) it keeps the
    values of a closed bracket — its first and last entries, ``-inf`` /
    ``inf`` until they move — as ascending values with counts (ties merged
    as it narrows), and counts those below.  Brackets narrow to ``t``'s
    expected place among the values seen, +- 8 hypergeometric standard
    deviations + 16; that only counts values below or drops values above,
    so a target still inside is exact.
    """

    def __init__(self, n: int, targets: Iterable[int], chunk: int) -> None:
        self.n, self.targets, self.seen = n, sorted(targets), 0
        self.below = np.zeros(len(self.targets), dtype=np.int64)
        self.runs = [(np.array([-np.inf, np.inf]), np.zeros(2, int))] * len(targets)
        self.waiting, self.n_waiting = [[] for _ in self.targets], 0
        self.capacity = chunk * len(self.targets)

    def add(self, values: np.ndarray) -> None:
        """Take one chunk's values (ascending, ``nan``-free).  The first
        seeds every bracket; later ones wait until about a chunk per target
        has come in, then merge and narrow."""
        if not self.seen and values.size:  # one merge seeds every bracket
            self.seen = values.size
            self.runs = [_merge(self.runs[0], values)] * len(self.targets)
            if self.seen < self.n:  # else every value is in already
                self._narrow()
            return
        self.seen += values.size
        first = np.searchsorted(values, [r[0][0] for r in self.runs], "left")
        last = np.searchsorted(values, [r[0][-1] for r in self.runs], "right")
        self.below += first
        for waiting, a, b in zip(self.waiting, first, last):
            waiting.append(values[a:b].copy())  # a copy frees the chunk
        self.n_waiting += int((last - first).sum())
        if self.n_waiting >= self.capacity:
            self._narrow()

    def _merged(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Target ``k``'s kept values with its waiting ones merged in."""
        if not self.waiting[k]:
            return self.runs[k]
        return _merge(self.runs[k], np.sort(np.concatenate(self.waiting[k])))

    def _narrow(self) -> None:
        for k, t in enumerate(self.targets):
            kept, counts = self._merged(k)
            frac, p = min(self.seen / self.n, 1.0), t / self.n
            margin = 16 + 8 * math.sqrt(self.seen * p * (1 - p) * (1 - frac))
            centre, ends = t * frac - self.below[k], np.cumsum(counts)
            # An end moves only where the window ends inside the kept
            # values, and only to a whole tie, so ``below`` stays below.
            a = np.searchsorted(ends, centre - margin, "right")
            b = np.searchsorted(ends, centre + margin, "right")
            lo, hi = kept[min(a, kept.size - 1)], kept[min(b, kept.size - 1)]
            a, b = np.searchsorted(kept, lo, "left"), np.searchsorted(kept, hi, "right")
            self.below[k] += ends[a] - counts[a]
            starts = np.flatnonzero(np.append(True, kept[a + 1:b] != kept[a:b - 1]))
            self.runs[k] = kept[a:b][starts], np.add.reduceat(counts[a:b], starts)
        self.waiting, self.n_waiting = [[] for _ in self.targets], 0

    def select(self, wanted: Iterable[int]) -> dict[int, float]:
        """``{position: value}`` for the wanted positions inside a bracket."""
        found = {}
        for k, below in enumerate(self.below):
            kept, counts = self._merged(k)
            ends = below + np.cumsum(counts)
            for i in wanted:
                if below <= i < ends[-1]:
                    found[i] = float(kept[np.searchsorted(ends, i, "right")])
        return found


def _restream(
    table: CandidateTable,
    chunks: Callable[[], Iterator[tuple]],
    skip: set[int],
    targets: list[tuple[int, int]],
) -> dict[tuple[int, int], float]:
    """Exact ``(column, position)`` order statistics by radix selection:
    values map to uint64 keys in the same order, and each of four passes
    over re-streamed ``chunks()`` (``skip``: failed ones) fixes 16 more key
    bits of every target from a histogram of the values sharing its prefix.
    """
    telemetry.counter("montecarlo.restreams", 1)
    prefix, below = dict.fromkeys(targets, 0), dict.fromkeys(targets, 0)
    with telemetry.span("montecarlo.restream", targets=len(targets)):
        for shift in (48, 32, 16, 0):
            hists = {key: np.zeros(1 << 16, dtype=np.int64) for key in targets}
            for index, _, duty_c, rows_c in chunks():
                powers = _chunk_pass(table, 1, duty_c, rows_c)[0]
                for j, i in () if index in skip else targets:
                    bits = powers[j][~np.isnan(powers[j])].view(np.uint64)
                    keys = np.where(bits >> 63, ~bits, bits | np.uint64(1 << 63))
                    if shift < 48:
                        keys = keys[keys >> (shift + 16) == prefix[j, i]]
                    digits = ((keys >> shift) & 0xFFFF).astype(np.intp)
                    hists[j, i] += np.bincount(digits, minlength=1 << 16)
            for (j, i), hist in hists.items():
                ends = np.cumsum(hist)
                digit = int(np.searchsorted(ends, i - below[j, i], "right"))
                below[j, i] += int(ends[digit] - hist[digit])
                prefix[j, i] = prefix[j, i] << 16 | digit
    # Invert the key map: a set top bit marks a non-negative value.
    bits = {key: k ^ 1 << 63 if k >> 63 else ~k % 2**64 for key, k in prefix.items()}
    return {key: float(np.uint64(b).view(np.float64)) for key, b in bits.items()}


def _run_vector(
    spec: PopulationSpec,
    table: CandidateTable,
    snapshots: list[list[np.random.Generator]],
    rows_of: Callable[[np.ndarray], np.ndarray],
    row_samples: np.ndarray,
    workers: int | None,
) -> tuple[list[Any], np.ndarray, list[ChunkFailure]]:
    from .report import OrderStatistics, rank_indices

    def chunks() -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        stream = _chunks(spec, snapshots, spec.chunk_samples)
        return ((k, s, d, rows_of(codes)) for k, s, d, _, codes in stream)

    feasible = ~np.isnan(table.active_w + table.idle_w)
    brackets = [
        _Brackets(int(m), rank_indices(int(m), spec.percentiles), spec.chunk_samples)
        for m in row_samples @ feasible
    ]
    counts = np.zeros((spec.duty_bins, len(table.names)), dtype=np.int64)
    chunk_failures: list[ChunkFailure] = []
    task = functools.partial(_chunk_task, table, spec.duty_bins, spec.on_error)
    stream = chunks()
    # At most one chunk per pool thread in flight, so memory stays
    # per-chunk however large ``workers`` is.
    in_flight = max(1, min(workers or 1, os.cpu_count() or 1))
    while window := list(itertools.islice(stream, in_flight)):
        for result in parallel_map(task, window, workers):
            if isinstance(result, ChunkFailure):
                chunk_failures.append(result)
                continue
            counts += result[3]
            for column, values in zip(brackets, result[2]):
                column.add(values[: np.searchsorted(values, np.nan)])
    columns, misses = [], []
    for j, column in enumerate(brackets):
        wanted = rank_indices(column.seen, spec.percentiles)
        columns.append(OrderStatistics(column.seen, column.select(wanted)))
        misses += [(j, i) for i in sorted(wanted - columns[j].keys())]
    if misses:
        skip = {f.index for f in chunk_failures}
        for (j, i), value in _restream(table, chunks, skip, misses).items():
            columns[j][i] = value
    return columns, counts, chunk_failures


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
    engine: str = "vector",
):
    """Run a population spec to a deterministic report.

    ``engine="vector"`` is the production path (dedup + chunked fused
    streaming, optionally fanned out over ``workers`` threads);
    ``engine="scalar"`` is the per-sample oracle loop (always serial —
    it *is* the reference).  Identical specs produce byte-identical
    reports across engines, chunk sizes and worker counts.
    Populations over the engine's ``MAX_*_SAMPLES`` are refused up front.
    """
    from .report import build_report

    _check_engine(engine, spec.n_samples)
    with telemetry.span("montecarlo.prepass", n_samples=spec.n_samples):
        rng = np.random.default_rng(spec.seed)
        n, size = spec.n_samples, spec.chunk_samples
        recorders = [_DrawRecorder(rng, n, size) for _ in (0, *spec.axes)]
        sample_population(spec, recorders, 0, 1)
    snapshots = [r.snapshots for r in recorders]
    if engine == "scalar":
        # The oracle draws its whole population as one chunk.
        (_, _, duty, axis_indices, codes), = _chunks(spec, snapshots, spec.n_samples)
        code_chunks = [codes]
    else:
        chunks = _chunks(spec, snapshots, spec.chunk_samples, duty=False)
        code_chunks = (codes for *_, codes in chunks)
    rows_of, row_samples, keys = dedup_axis_indices(spec, code_chunks)
    table, failures, _ = build_candidate_table(spec, keys, engine)
    failures = [
        dataclasses.replace(f, n_samples=int(row_samples[f.row]))
        for f in failures
    ]

    if engine == "scalar":
        powers, counts = _run_scalar(spec, table, duty, axis_indices)
        columns = [np.sort(c[~np.isnan(c)]) for c in powers.T]
        chunk_failures: list[ChunkFailure] = []
    else:
        columns, counts, chunk_failures = _run_vector(
            spec, table, snapshots, rows_of, row_samples, workers
        )

    # Every valid sample lands exactly one winner count, so the counts
    # total is the valid-sample total — no all-nan row scan needed.
    check_not_all_failed(
        int(counts.sum()), spec.n_samples,
        [(f.error_type, f.message) for f in (*failures, *chunk_failures)],
        spec.on_error, "sampled user(s)",
    )
    return build_report(
        spec, table, columns, counts,
        failures=tuple(failures), chunk_failures=tuple(chunk_failures),
    )

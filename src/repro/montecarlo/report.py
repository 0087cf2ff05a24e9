"""Deterministic population reports (percentiles, winner maps, JSON).

Both engines hand this module the same two artefacts — each column's
sorted feasible powers (in full, or as :class:`OrderStatistics`) and the
duty-bin x architecture winner counts — and every derived number
(nearest-rank percentiles, battery-life distributions, winner
probabilities) is computed here exactly once, so the vector engine and
the scalar oracle cannot diverge in aggregation, only in estimation.
The JSON document is a pure function of the
:class:`~repro.montecarlo.spec.PopulationSpec` (sorted keys, no
timings, no host info, execution knobs excluded from the spec block),
which is what the seeded-determinism tests byte-compare across seeds,
engines, chunk sizes and worker counts.

Percentiles use the **nearest-rank** definition (the value at index
``ceil(q * m / 100)`` of the sorted sample, 1-based): an actual sample
value, no interpolation, so float equality across engines is exact.
Battery life is ``battery_wh / power_w`` hours per user — a monotone
*decreasing* map, so its q-th percentile is derived from the
``(m - rank + 1)``-th smallest power; a zero-power percentile (a
reusable fabric at duty 0) yields ``null``, not infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .._json import dumps_report
from .engine import CandidateTable, ChunkFailure, ConfigFailure
from .spec import PopulationSpec

SCHEMA = "repro-montecarlo/v1"


def _rank(m: int, q: float) -> int:
    """The 1-based nearest rank of the q-th percentile of ``m`` values."""
    return min(max(1, math.ceil(q * m / 100.0)), m)


def rank_indices(m: int, percentiles: Iterable[float]) -> set[int]:
    """The sorted positions (0-based) the report reads of ``m`` values."""
    ranks = [_rank(m, q) for q in percentiles] if m else []
    return {r - 1 for r in ranks} | {m - r for r in ranks}


class OrderStatistics(dict):
    """``{i: i-th smallest}`` at selected positions of an ascending sort of
    ``size`` values: the full sorted array, where only the
    :func:`rank_indices` entries are read."""

    def __init__(self, size: int, values: dict[int, float]) -> None:
        super().__init__(values)
        self.size = size


def nearest_rank(sorted_values: np.ndarray, q: float) -> float | None:
    """The q-th nearest-rank percentile of an ascending-sorted sample."""
    m = int(sorted_values.size)
    if m == 0:
        return None
    return float(sorted_values[_rank(m, q) - 1])


def battery_life_percentile(
    sorted_powers: np.ndarray, q: float, battery_wh: float
) -> float | None:
    """The q-th percentile of ``battery_wh / power`` hours.

    Derived from the sorted *powers* (life sorts as reversed power):
    the q-th smallest life is the battery over the q-th *largest*
    power.  ``None`` for an empty sample or a zero-power denominator.
    """
    m = int(sorted_powers.size)
    if m == 0:
        return None
    power = float(sorted_powers[m - _rank(m, q)])
    if power <= 0.0:
        return None
    return battery_wh / power


def percentile_label(q: float) -> str:
    return f"p{q:g}"


@dataclass(frozen=True)
class ArchitectureStats:
    """One architecture's population outcome (JSON-ready)."""

    name: str
    reusable: bool
    n_feasible: int
    power_w: dict[str, float | None]
    battery_life_h: dict[str, float | None]
    win_probability: float
    win_probability_by_duty: tuple[float | None, ...]

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "reusable": self.reusable,
            "n_feasible": self.n_feasible,
            "power_w": self.power_w,
            "battery_life_h": self.battery_life_h,
            "win_probability": self.win_probability,
            "win_probability_by_duty": list(self.win_probability_by_duty),
        }


@dataclass(frozen=True)
class PopulationReport:
    """The full population answer; render with :meth:`render`."""

    spec: PopulationSpec
    architectures: tuple[ArchitectureStats, ...]
    n_distinct_configs: int
    n_valid_samples: int
    duty_bin_samples: tuple[int, ...]
    failures: tuple[ConfigFailure, ...] = ()
    chunk_failures: tuple[ChunkFailure, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.failures or self.chunk_failures)

    @property
    def n_dropped_samples(self) -> int:
        return self.spec.n_samples - self.n_valid_samples

    def winners(self) -> dict[str, float]:
        """Architecture -> overall winner probability (report order)."""
        return {
            a.name: a.win_probability for a in self.architectures
        }

    def to_doc(self) -> dict[str, Any]:
        bins = self.spec.duty_bins
        return {
            "schema": SCHEMA,
            "spec": self.spec.describe(),
            "n_distinct_configs": self.n_distinct_configs,
            "n_valid_samples": self.n_valid_samples,
            "n_dropped_samples": self.n_dropped_samples,
            "partial": self.partial,
            "duty_bin_edges": [i / bins for i in range(bins + 1)],
            "duty_bin_samples": list(self.duty_bin_samples),
            "architectures": [a.describe() for a in self.architectures],
            "failures": [f.describe() for f in self.failures],
            "chunk_failures": [f.describe() for f in self.chunk_failures],
        }

    def render(self) -> str:
        return dumps_report(self.to_doc())

    def summary(self) -> str:
        """A terminal-friendly digest (not part of the byte contract)."""
        spec = self.spec
        lines = [
            f"population: workload={spec.workload} "
            f"samples={spec.n_samples} seed={spec.seed} "
            f"distinct={self.n_distinct_configs} "
            f"valid={self.n_valid_samples}"
            + (" [PARTIAL]" if self.partial else "")
        ]
        labels = [percentile_label(q) for q in spec.percentiles]
        header = (
            f"  {'architecture':<28} {'win%':>6} "
            + " ".join(f"{lbl + ' W':>10}" for lbl in labels)
            + " "
            + " ".join(f"{lbl + ' h':>9}" for lbl in labels)
        )
        lines.append(header)
        for arch in self.architectures:
            power = " ".join(
                f"{arch.power_w[lbl]:>10.4f}"
                if arch.power_w[lbl] is not None else f"{'-':>10}"
                for lbl in labels
            )
            life = " ".join(
                f"{arch.battery_life_h[lbl]:>9.1f}"
                if arch.battery_life_h[lbl] is not None else f"{'-':>9}"
                for lbl in labels
            )
            lines.append(
                f"  {arch.name:<28} {100 * arch.win_probability:>5.1f}% "
                f"{power} {life}"
            )
        if self.failures or self.chunk_failures:
            lines.append(
                f"  dropped: {self.n_dropped_samples} samples "
                f"({len(self.failures)} config failure(s), "
                f"{len(self.chunk_failures)} chunk failure(s))"
            )
        return "\n".join(lines)


def build_report(
    spec: PopulationSpec,
    table: CandidateTable,
    columns: Sequence[np.ndarray | OrderStatistics],
    counts: np.ndarray,
    failures: tuple[ConfigFailure, ...] = (),
    chunk_failures: tuple[ChunkFailure, ...] = (),
) -> PopulationReport:
    """Aggregate per-column order statistics + winner counts.

    The single shared aggregation path: ``columns[j]`` is the ascending
    sort of architecture ``j``'s feasible powers, in full or as
    :class:`OrderStatistics`; ``counts`` the ``(duty_bins,
    n_architectures)`` winner counts.  Everything here is deterministic
    float64 math on identical inputs, so engine equality lifts to byte
    equality.
    """
    # Every valid sample lands exactly one winner count.
    n_valid = int(counts.sum())
    bin_samples = counts.sum(axis=1)
    total_wins = counts.sum(axis=0)
    labels = [percentile_label(q) for q in spec.percentiles]

    stats = []
    for j, column in enumerate(columns):
        power_p: dict[str, float | None] = {}
        life_p: dict[str, float | None] = {}
        for q, label in zip(spec.percentiles, labels):
            power_p[label] = nearest_rank(column, q)
            life_p[label] = battery_life_percentile(
                column, q, spec.battery_wh
            )
        by_duty = tuple(
            (int(counts[b, j]) / int(bin_samples[b]))
            if bin_samples[b] > 0 else None
            for b in range(spec.duty_bins)
        )
        stats.append(
            ArchitectureStats(
                name=table.names[j],
                reusable=table.reusable[j],
                n_feasible=int(column.size),
                power_w=power_p,
                battery_life_h=life_p,
                win_probability=int(total_wins[j]) / n_valid,
                win_probability_by_duty=by_duty,
            )
        )

    return PopulationReport(
        spec=spec,
        architectures=tuple(stats),
        n_distinct_configs=len(table.row_keys),
        n_valid_samples=n_valid,
        duty_bin_samples=tuple(int(b) for b in bin_samples),
        failures=failures,
        chunk_failures=chunk_failures,
    )

"""Deployment-scenario analysis (paper Section 7).

The conclusion distinguishes two regimes:

- **static** (Section 7.1): the DDC runs continuously (mobile phone,
  single-mode radio).  Energy = DDC power, full stop; the ASIC wins.
- **reconfigurable** (Section 7.2): the DDC is needed only a fraction of
  the time (PDA occasionally tuning DRM/DAB/GSM).  A reconfigurable fabric
  can spend its idle time on *other* tasks, so the fair comparison charges
  a fixed-function chip for the idle hardware it wastes while crediting a
  reconfigurable one for the work it hosts instead.

:class:`ScenarioAnalysis` quantifies that argument.  For duty cycle ``d``
(fraction of time the DDC is active) the effective cost of an architecture
is::

    cost(d) = d * P_active + (1 - d) * P_idle_effective

where ``P_idle_effective`` is the standby power for a fixed-function chip,
and for a reconfigurable one the *displaced* power the fabric saves by
hosting another task (modelled as zero cost when ``reusable`` — its idle
time is not wasted).  :func:`duty_cycle_crossover` finds the duty cycle at
which two architectures swap rank.

Two evaluation paths exist and are **bit-identical**:

- the scalar path (:meth:`ScenarioAnalysis.evaluate`) — one duty cycle at
  a time, the seed behaviour and the oracle;
- the batched path (:meth:`ScenarioAnalysis.cost_batch` /
  :meth:`ScenarioAnalysis.evaluate_batch`) — whole numpy duty-cycle x
  candidate grids in one pass, which the :mod:`repro.sweep` subsystem,
  the explorer and the paper figures ride.  Both compute
  ``d*P_active + (1-d)*P_idle`` with the same operation order in
  float64, so the grids agree bit for bit (pinned by the Hypothesis suite
  in ``tests/test_energy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ScenarioCandidate:
    """An architecture as seen by the scenario analysis.

    Parameters
    ----------
    name:
        Display name.
    active_power_w:
        Power while performing the DDC.
    standby_power_w:
        Power while idle (leakage / standby mode).
    reusable:
        True if the fabric can host other work while the DDC is idle
        (FPGA, Montium, GPP) — its idle time is then not charged to the
        DDC budget.
    """

    name: str
    active_power_w: float
    standby_power_w: float = 0.0
    reusable: bool = False

    @property
    def idle_power_w(self) -> float:
        """Idle power actually charged to the DDC budget."""
        return 0.0 if self.reusable else self.standby_power_w

    def effective_power_w(self, duty_cycle: float) -> float:
        """Average power attributable to the DDC function at ``duty_cycle``."""
        if not 0.0 <= duty_cycle <= 1.0:
            raise ConfigurationError(
                f"duty cycle {duty_cycle!r} is outside [0, 1]"
            )
        idle = self.idle_power_w
        return duty_cycle * self.active_power_w + (1 - duty_cycle) * idle


@dataclass(frozen=True)
class ScenarioResult:
    """Winner and per-candidate powers at one duty cycle."""

    duty_cycle: float
    winner: str
    powers_w: dict[str, float]


def duty_grid(steps: int) -> np.ndarray:
    """The regular duty-cycle grid 0..1 used by sweeps: ``i / (steps-1)``."""
    if steps < 2:
        raise ConfigurationError("steps must be >= 2")
    return np.arange(steps) / (steps - 1)


def check_duty_cycles(duty_cycles, offset: int = 0) -> np.ndarray:
    """Validate a 1-D float64 duty-cycle array, naming the offender.

    The shared gatekeeper of every batched duty-cycle consumer
    (:meth:`ScenarioAnalysis.cost_batch`, the sweep grids, the
    Monte-Carlo population engine): a value outside ``[0, 1]`` — or a
    ``nan``, which the old ``min()``/``max()`` check silently let
    through while the scalar path raised — fails with a
    :class:`~repro.errors.ConfigurationError` naming the first
    offending value and its position, instead of silently extrapolating
    negative idle energy.  ``offset`` shifts the index named (a chunk's
    start).
    """
    d = np.asarray(duty_cycles, dtype=np.float64)
    if d.ndim != 1:
        raise ConfigurationError("duty_cycles must be one-dimensional")
    if d.size == 0:
        raise ConfigurationError("need at least one duty cycle")
    ok = (d >= 0.0) & (d <= 1.0)  # nan compares False on both sides
    if not ok.all():
        i = int(np.argmin(ok))
        raise ConfigurationError(
            f"duty cycle {float(d[i])!r} at index {i + offset} is outside [0, 1]"
        )
    return d


def effective_power_samples(
    active_w: np.ndarray, idle_w: np.ndarray, duty_cycles: np.ndarray
) -> np.ndarray:
    """Per-sample effective powers in one fused pass.

    The sample-wise twin of :meth:`ScenarioAnalysis.cost_batch`: row
    ``k`` of ``active_w``/``idle_w`` holds the candidate powers seen by
    sample ``k`` (``nan`` marks an infeasible candidate), and the result
    ``[k, j]`` is ``d_k * active[k, j] + (1 - d_k) * idle[k, j]`` — the
    same operation order as the scalar
    :meth:`ScenarioCandidate.effective_power_w` in IEEE-754 double
    precision, so every element is bit-identical to the scalar call.
    ``duty_cycles`` must already be validated (:func:`check_duty_cycles`).
    """
    d = np.asarray(duty_cycles, dtype=np.float64)
    out = active_w * d[:, None]
    out += idle_w * (1.0 - d)[:, None]
    return out


def winner_counts(
    powers_w: np.ndarray, bin_indices: np.ndarray, n_bins: int
) -> np.ndarray:
    """Bincount-weighted winner aggregation over per-sample powers.

    ``counts[b, j]`` is the number of samples in duty bin ``b`` whose
    cheapest candidate is column ``j`` — the first minimum wins ties,
    matching the scalar path's ``min`` over an insertion-ordered dict.
    Samples whose row is all-``nan`` (no feasible candidate / dropped)
    are counted nowhere.
    """
    n, a = powers_w.shape
    nans = np.isnan(powers_w)
    masked = np.where(nans, np.inf, powers_w)
    valid = ~nans.all(axis=1)
    winners = np.argmin(masked, axis=1)
    flat = bin_indices[valid] * a + winners[valid]
    return np.bincount(flat, minlength=n_bins * a).reshape(n_bins, a)


@dataclass(frozen=True)
class ScenarioGrid:
    """A batched evaluation: duty-cycle x candidate effective powers.

    ``powers_w[k, j]`` is candidate ``names[j]`` at ``duty_cycles[k]``,
    bit-identical to ``candidates[j].effective_power_w(duty_cycles[k])``.
    """

    duty_cycles: np.ndarray
    names: tuple[str, ...]
    powers_w: np.ndarray

    @property
    def winner_indices(self) -> np.ndarray:
        """Index of the cheapest candidate per duty cycle (first wins ties,
        matching the scalar path's ``min`` over an insertion-ordered dict)."""
        return np.argmin(self.powers_w, axis=1)

    def winners(self) -> list[str]:
        """Winning candidate name per duty cycle."""
        # Fancy-index a string array instead of a python loop: the winner
        # column of a 100k-step grid materialises at C speed.
        return np.asarray(self.names, dtype=object)[
            self.winner_indices
        ].tolist()

    def winning_regions(self) -> list[tuple[float, float, str]]:
        """(start, end, winner) intervals over the grid's duty-cycle span."""
        idx = self.winner_indices
        regions: list[tuple[float, float, str]] = []
        start = float(self.duty_cycles[0])
        current = int(idx[0])
        changes = np.nonzero(idx[1:] != idx[:-1])[0]
        for pos in changes:
            boundary = float(self.duty_cycles[pos + 1])
            regions.append((start, boundary, self.names[current]))
            start = boundary
            current = int(idx[pos + 1])
        regions.append(
            (start, float(self.duty_cycles[-1]), self.names[current])
        )
        return regions


class ScenarioAnalysis:
    """Evaluates candidates across duty cycles (static = 1.0)."""

    def __init__(self, candidates: Sequence[ScenarioCandidate]) -> None:
        if not candidates:
            raise ConfigurationError("need at least one candidate")
        names = [c.name for c in candidates]
        if len(set(names)) != len(names):
            raise ConfigurationError("candidate names must be unique")
        self.candidates = list(candidates)

    @property
    def names(self) -> tuple[str, ...]:
        """Candidate names in insertion order."""
        return tuple(c.name for c in self.candidates)

    def evaluate(self, duty_cycle: float) -> ScenarioResult:
        """Rank candidates at one duty cycle (the scalar oracle path)."""
        powers = {
            c.name: c.effective_power_w(duty_cycle) for c in self.candidates
        }
        winner = min(powers, key=lambda k: powers[k])
        return ScenarioResult(duty_cycle, winner, powers)

    def cost_batch(self, duty_cycles) -> np.ndarray:
        """Effective powers over a whole duty-cycle grid in one pass.

        Returns a ``(len(duty_cycles), len(candidates))`` float64 array
        whose every element is bit-identical to the scalar
        :meth:`ScenarioCandidate.effective_power_w` (same operation order
        in IEEE-754 double precision).
        """
        d = check_duty_cycles(duty_cycles)
        active = np.array([c.active_power_w for c in self.candidates])
        idle = np.array([c.idle_power_w for c in self.candidates])
        return d[:, None] * active[None, :] + (1 - d)[:, None] * idle[None, :]

    def evaluate_batch(self, duty_cycles) -> ScenarioGrid:
        """Batched :meth:`evaluate`: the whole grid plus winners."""
        d = np.asarray(duty_cycles, dtype=np.float64)
        return ScenarioGrid(
            duty_cycles=d, names=self.names, powers_w=self.cost_batch(d)
        )


def duty_cycle_crossover(
    a: ScenarioCandidate, b: ScenarioCandidate
) -> float | None:
    """Duty cycle where candidates ``a`` and ``b`` cost the same.

    Solves ``d*Pa + (1-d)*Ia = d*Pb + (1-d)*Ib`` for ``d``; returns ``None``
    when the lines are parallel or cross outside ``[0, 1]``.
    """
    ia = a.idle_power_w
    ib = b.idle_power_w
    denom = (a.active_power_w - ia) - (b.active_power_w - ib)
    if denom == 0.0:
        return None
    d = (ib - ia) / denom
    if not 0.0 <= d <= 1.0:
        return None
    return d


def duty_cycle_crossover_batch(
    candidates: Sequence[ScenarioCandidate],
) -> np.ndarray:
    """All pairwise crossovers in one pass.

    Returns an ``(n, n)`` matrix whose ``[i, j]`` entry equals
    ``duty_cycle_crossover(candidates[i], candidates[j])`` bit for bit,
    with ``nan`` standing in for the scalar path's ``None`` (parallel
    cost lines, or a crossing outside ``[0, 1]``).
    """
    if not candidates:
        raise ConfigurationError("need at least one candidate")
    active = np.array([c.active_power_w for c in candidates])
    idle = np.array([c.idle_power_w for c in candidates])
    slope = active - idle
    denom = slope[:, None] - slope[None, :]
    num = idle[None, :] - idle[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = num / denom
    d[(denom == 0.0) | (d < 0.0) | (d > 1.0)] = np.nan
    return d

"""Declarative design-space search specifications.

An :class:`ExploreSpec` names *what* to search — one continuous
refinement axis over a float :class:`~repro.config.DDCConfig` field,
optional discrete configuration axes, a duty-cycle grid, an objective
set and an optional architecture subset — without saying how.  The
engine (:mod:`repro.explore.refine`) evaluates it either adaptively
(coarse grid + signature-driven bisection, each round one batched model
pass) or densely (the scalar oracle over every target-grid value); both
produce byte-identical reports on spaces whose outcome flips are
resolvable at the target resolution, which ``python -m repro.explore
--verify`` proves on the reference space.

The discrete axes are the sweep's grid
(:class:`~repro.sweep.spec.ConfigGrid`): the same
:class:`~repro.sweep.spec.SweepPoint` s and the same axis checks.

Everything here is a frozen dataclass of primitives: specs pickle, hash
by content (the store keys frontier snapshots on ``repr``-digests) and
enumerate their grids as pure functions of their fields — the
**deterministic seeding** contract: ``seed`` fixes the optional probe
indices, so two runs of the same spec evaluate the same cells in the
same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..errors import ConfigurationError
from ..sweep.spec import ConfigGrid, SweepPoint

#: Report quantities an objective may minimise.  ``area_mm2`` treats a
#: report without a published area as ``inf`` (it can never win on
#: area); all objectives are minimised.
OBJECTIVES: tuple[str, ...] = (
    "power_w",
    "energy_per_output_sample_j",
    "area_mm2",
    "clock_hz",
)


@dataclass(frozen=True)
class ExploreSpec(ConfigGrid):
    """A declarative search space for the design-space explorer.

    Parameters
    ----------
    workload:
        Registry name of the workload being explored
        (:func:`repro.workloads.get`).  Stored as the *name* so specs
        stay picklable; the default ``"ddc"`` is the paper's kernel.
    axis:
        ``(field, lo, hi)`` — the continuous refinement axis, a float
        configuration field swept over ``[lo, hi]`` on a regular
        ``target_steps`` grid (``None`` = the workload's
        :meth:`~repro.workloads.base.Workload.default_explore_axis`).
        Every bound configuration must be constructible (e.g. keep
        ``input_rate_hz`` above twice the NCO frequency) — a value that
        is not raises the configuration's own error at evaluation time,
        in either engine.
    coarse_steps:
        Size of the initial coarse grid (>= 2).  ``(target_steps - 1)``
        must be ``(coarse_steps - 1) * 2**k`` so bisection lands exactly
        on target-grid indices.
    target_steps:
        Resolution of the delivered frontier map: the adaptive engine
        answers for every one of these values, evaluating only the cells
        whose outcome could differ from a neighbour's.
    discrete_axes:
        Ordered ``(field, values)`` pairs enumerated densely (cartesian
        product, last axis fastest) — the sweep's grid
        (:class:`~repro.sweep.spec.ConfigGrid`).
    duty_cycle_steps:
        Duty-cycle grid size for the per-cell winner map (>= 2).
    objectives:
        Report quantities (from :data:`OBJECTIVES`) the Pareto frontier
        minimises, in significance order for reports.
    architectures:
        Restrict candidates to these names (None = all feasible).
    standby_fraction:
        Idle power of fixed-function chips as a fraction of active power.
    probe_points:
        Extra target-grid indices evaluated in round 0, drawn without
        replacement from the non-coarse indices by a generator seeded
        with ``seed`` — deterministic insurance against outcome flips
        that reverse themselves inside one coarse cell.
    seed:
        Seed for the probe draw (and any future sampled stage).
    max_evaluations:
        Optional refinement budget: total cells evaluated per discrete
        point beyond which bisection stops and remaining cells fill from
        their nearest evaluated neighbour (best effort — ``--verify``
        spaces run unbudgeted).
    on_error:
        Cell-failure policy (:data:`~repro.resilience.ON_ERROR_POLICIES`):
        ``"raise"`` aborts on the first failing cell (strict default),
        ``"skip"`` records the failure on the cell's error channel and
        continues, ``"retry"`` runs the cell up to
        :data:`~repro.resilience.ATTEMPTS` ``["retry"]`` times and
        records it only if every attempt fails.  Recorded failures mark
        the report partial.
    """

    axis: tuple[str, float, float] | None = None
    coarse_steps: int = 5
    target_steps: int = 65
    discrete_axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base_config: Any | None = None
    duty_cycle_steps: int = 101
    objectives: tuple[str, ...] = ("power_w", "area_mm2")
    architectures: tuple[str, ...] | None = None
    standby_fraction: float = 0.05
    probe_points: int = 0
    seed: int = 0
    max_evaluations: int | None = None
    on_error: str = "raise"
    workload: str = "ddc"

    _axes_field = "discrete_axes"

    def __post_init__(self) -> None:
        from ..workloads import check_study_spec

        wl = check_study_spec(self)
        if self.axis is None:
            object.__setattr__(self, "axis", wl.default_explore_axis())
        if len(self.axis) != 3:
            raise ConfigurationError(
                f"axis must be (field, lo, hi), got {self.axis!r}"
            )
        field, lo, hi = self.axis
        continuous = wl.continuous_axes()
        if field not in continuous:
            raise ConfigurationError(
                f"continuous axis {field!r} must be one of "
                f"{', '.join(continuous)}; integer fields belong on "
                "discrete_axes"
            )
        if not (math.isfinite(float(lo)) and math.isfinite(float(hi))):
            raise ConfigurationError(
                f"ExploreSpec.axis bounds must be finite, got {lo!r}:{hi!r}"
            )
        if not (float(lo) < float(hi)):
            raise ConfigurationError(
                f"axis range must satisfy lo < hi, got {lo!r} >= {hi!r}"
            )
        if self.coarse_steps < 2:
            raise ConfigurationError("coarse_steps must be >= 2")
        if self.target_steps < self.coarse_steps:
            raise ConfigurationError(
                "target_steps must be >= coarse_steps"
            )
        stride, rem = divmod(self.target_steps - 1, self.coarse_steps - 1)
        if rem or stride & (stride - 1):
            raise ConfigurationError(
                "target_steps - 1 must equal (coarse_steps - 1) * 2**k so "
                f"bisection lands on grid indices; got {self.target_steps} "
                f"targets over {self.coarse_steps} coarse steps"
            )
        self._check_grid(wl, "discrete", taken=(field,))
        if not self.objectives:
            raise ConfigurationError("need at least one objective")
        for obj in self.objectives:
            if obj not in OBJECTIVES:
                raise ConfigurationError(
                    f"unknown objective {obj!r}; choose from "
                    f"{', '.join(OBJECTIVES)}"
                )
        if len(set(self.objectives)) != len(self.objectives):
            raise ConfigurationError("objectives must be unique")
        if self.probe_points < 0:
            raise ConfigurationError("probe_points must be >= 0")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ConfigurationError(
                "max_evaluations must be None or >= 1"
            )

    # ------------------------------------------------------------- geometry
    @property
    def coarse_stride(self) -> int:
        """Target-grid index distance between adjacent coarse points."""
        return (self.target_steps - 1) // (self.coarse_steps - 1)

    @property
    def n_cells(self) -> int:
        """Target cells the explorer answers for: points x axis values."""
        return self.n_points * self.target_steps

    def value_at(self, index: int) -> float:
        """The axis value of one target-grid index (both engines share
        this exact expression, so filled and evaluated cells agree)."""
        _, lo, hi = self.axis
        return lo + (hi - lo) * index / (self.target_steps - 1)

    def coarse_indices(self) -> list[int]:
        """Target-grid indices of the coarse grid."""
        return list(
            range(0, self.target_steps, self.coarse_stride)
        )

    def probe_indices(self) -> list[int]:
        """The seeded probe indices (sorted, disjoint from the coarse
        grid); a pure function of ``(seed, probe_points, grid shape)``."""
        if not self.probe_points:
            return []
        pool = sorted(
            set(range(self.target_steps)) - set(self.coarse_indices())
        )
        if not pool:
            return []
        rng = np.random.default_rng(self.seed)
        take = min(self.probe_points, len(pool))
        picked = rng.choice(len(pool), size=take, replace=False)
        return sorted(pool[int(i)] for i in picked)

    def config_at(self, point: SweepPoint, index: int) -> Any:
        """Bind one (discrete point, axis index) cell to a configuration."""
        overrides: dict[str, Any] = dict(point.overrides)
        overrides[self.axis[0]] = self.value_at(index)
        return replace(self.base_config, **overrides)

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary of the search space (for report headers)."""
        return {
            "workload": self.workload,
            "axis": {
                "field": self.axis[0],
                "lo": self.axis[1],
                "hi": self.axis[2],
            },
            "coarse_steps": self.coarse_steps,
            "target_steps": self.target_steps,
            "discrete_axes": {
                name: list(values) for name, values in self.discrete_axes
            },
            "duty_cycle_steps": self.duty_cycle_steps,
            "objectives": list(self.objectives),
            "architectures": (
                list(self.architectures) if self.architectures else None
            ),
            "standby_fraction": self.standby_fraction,
            "probe_points": self.probe_points,
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "on_error": self.on_error,
        }

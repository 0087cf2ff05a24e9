"""Declarative scenario-sweep grids.

A :class:`SweepSpec` names *what* to sweep — parameter axes over
:class:`~repro.config.DDCConfig` fields, a duty-cycle grid, an optional
architecture subset — without saying how to execute it.  The engine
(:mod:`repro.sweep.engine`) expands the spec into a deterministic list of
:class:`SweepPoint` task descriptors and evaluates them; because spec and
points are frozen dataclasses of primitives, the same sweep can fan out
over a thread pool (:func:`repro.parallel.parallel_map`) with
byte-identical results.

The grid itself, :class:`ConfigGrid`, is shared with
:class:`~repro.explore.spec.ExploreSpec`'s discrete axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..energy.scenarios import duty_grid
from ..errors import ConfigurationError


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a picklable task descriptor, not a live model.

    ``overrides`` is the tuple of ``(field, value)`` pairs this point
    applies on top of the spec's base configuration, in axis order.
    """

    index: int
    overrides: tuple[tuple[str, Any], ...] = ()

    def label(self) -> str:
        """Human-readable point name for reports."""
        if not self.overrides:
            return "reference"
        return ",".join(f"{k}={v}" for k, v in self.overrides)


class ConfigGrid:
    """Grid enumeration and validation shared by the sweep and explore
    specs: a field-less mixin over the ``(field, values)`` axes held in
    the dataclass field named by ``_axes_field``."""

    _axes_field = "axes"

    @classmethod
    def from_axes(
        cls,
        axes: Mapping[str, Sequence[Any]] | None = None,
        **kwargs: Any,
    ):
        """Build a spec from a mapping of axis name to values.

        Axis order is the mapping's iteration order (insertion order for
        a dict), which fixes the grid enumeration order.
        """
        normalised = tuple(
            (name, tuple(values)) for name, values in (axes or {}).items()
        )
        return cls(**{cls._axes_field: normalised}, **kwargs)

    @property
    def n_points(self) -> int:
        """Number of configuration grid points."""
        return math.prod(
            len(values) for _, values in getattr(self, self._axes_field)
        )

    def points(self) -> list[SweepPoint]:
        """Expand the axes into grid points, deterministic order.

        The cartesian product iterates the *last* axis fastest
        (:func:`itertools.product` semantics), so point order — and hence
        report order — is a pure function of the spec.
        """
        axes = getattr(self, self._axes_field)
        names = [name for name, _ in axes]
        combos = itertools.product(*(values for _, values in axes))
        return [
            SweepPoint(index, tuple(zip(names, combo)))
            for index, combo in enumerate(combos)
        ]

    def _check_grid(
        self, workload, kind: str, taken: tuple[str, ...] = ()
    ) -> None:
        """Validate the axes, the duty-cycle grid and the subset; an axis
        may not repeat a ``taken`` field (the explorer's continuous axis)."""
        axes = getattr(self, self._axes_field)
        seen = set(taken)
        for axis in axes:
            if len(axis) != 2:
                raise ConfigurationError(
                    f"{kind} axis must be a (field, values) pair, got "
                    f"{axis!r}"
                )
            name, values = axis
            if name in seen:
                raise ConfigurationError(f"duplicate {kind} axis {name!r}")
            seen.add(name)
            if not isinstance(values, tuple) or not values:
                raise ConfigurationError(
                    f"{kind} axis {name!r} needs a non-empty tuple of values"
                )
        workload.check_axes(axes, kind=kind)
        if self.duty_cycle_steps < 2:
            raise ConfigurationError("duty_cycle_steps must be >= 2")
        if self.architectures is not None and not self.architectures:
            raise ConfigurationError(
                "architectures must be None or a non-empty tuple"
            )


@dataclass(frozen=True)
class SweepSpec(ConfigGrid):
    """A declarative grid over configurations x duty cycles x architectures.

    Parameters
    ----------
    workload:
        Registry name of the workload being swept
        (:func:`repro.workloads.get`); the default ``"ddc"`` is the
        paper's kernel.  Stored as the *name*, not the instance, so
        specs stay frozen primitives and the engine resolves the
        workload (and its shared evaluator) lazily.
    axes:
        Ordered ``(field, values)`` pairs; each field must be a field of
        the workload's configuration dataclass.  The grid is the
        cartesian product in axis order (first axis varies slowest).
        Empty = a single point, the base configuration.
    base_config:
        Configuration the axis overrides are applied to (``None`` =
        the workload's default configuration).
    duty_cycle_steps:
        Size of the regular duty-cycle grid 0..1 (>= 2).
    architectures:
        Restrict the scenario candidates to these names (None = all
        feasible architectures).
    standby_fraction:
        Idle power of fixed-function chips as a fraction of active power.
    on_error:
        Cell-failure policy (:data:`~repro.resilience.ON_ERROR_POLICIES`):
        ``"raise"`` aborts on the first failing point (strict default),
        ``"skip"`` records the failure on the report's error channel and
        continues, ``"retry"`` runs the point up to
        :data:`~repro.resilience.ATTEMPTS` ``["retry"]`` times and
        records it only if every attempt fails.  Skipped/exhausted
        failures mark the report partial.
    """

    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base_config: Any | None = None
    duty_cycle_steps: int = 101
    architectures: tuple[str, ...] | None = None
    standby_fraction: float = 0.05
    on_error: str = "raise"
    workload: str = "ddc"

    def __post_init__(self) -> None:
        from ..workloads import check_study_spec

        self._check_grid(check_study_spec(self), "sweep")

    @property
    def n_grid_cells(self) -> int:
        """Total duty-cycle x config cells the sweep evaluates (per arch)."""
        return self.n_points * self.duty_cycle_steps

    def duty_cycles(self) -> np.ndarray:
        """The duty-cycle grid, identical to the scalar ``i/(steps-1)``."""
        return duty_grid(self.duty_cycle_steps)

    def config_at(self, point: SweepPoint) -> Any:
        """Bind one grid point to a concrete configuration."""
        if not point.overrides:
            return self.base_config
        return replace(self.base_config, **dict(point.overrides))

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary of the grid (for report headers)."""
        return {
            "workload": self.workload,
            "axes": {name: list(values) for name, values in self.axes},
            "n_points": self.n_points,
            "duty_cycle_steps": self.duty_cycle_steps,
            "architectures": (
                list(self.architectures) if self.architectures else None
            ),
            "standby_fraction": self.standby_fraction,
            "on_error": self.on_error,
        }

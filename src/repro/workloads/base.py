"""The :class:`Workload` protocol — what a kernel must declare to ride
the whole stack.

The paper evaluates exactly one kernel (the DRM channel-selection DDC)
across five architectures; the surrounding machinery — batched
architecture models, scenario sweeps, Pareto exploration, Monte-Carlo
populations, fault tolerance, the bench guard — is kernel-agnostic once
a workload says

- what its **configuration** looks like (a frozen dataclass of
  primitives, the unit the report cache keys on),
- which **architecture models** realise it (each an
  :class:`~repro.archs.base.ArchitectureModel` honouring the
  batch == scalar bit-identity contract), and
- which configuration fields form its **scenario axes** (discrete sweep
  values and the continuous explore axis).

Everything downstream is inherited: a workload in the registry works
with ``python -m repro.sweep|explore|montecarlo --workload NAME``,
the ``--workers`` thread pool, the ``on_error`` failure policies and
a ``<name>_sweep`` bench entry.  The conformance suite
(``tests/test_workloads.py``) asserts the contract over every workload.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from ..archs.base import ArchitectureModel
from ..errors import ConfigurationError


class Workload(ABC):
    """A kernel the evaluation stack can sweep, explore and benchmark.

    Subclasses declare identity (:attr:`name`, :attr:`title`), the
    configuration dataclass (:attr:`config_cls` / :attr:`default_config`)
    and the architecture models (:meth:`models`); the base class derives
    the rest — evaluators, axes, cache sharing — from those.
    """

    #: Registry key (``--workload NAME``).
    name: str = "abstract"
    #: One-line human description for ``--help`` and reports.
    title: str = ""
    #: The frozen configuration dataclass of primitives.
    config_cls: type = object

    def __init__(self) -> None:
        self._shared_evaluator = None

    # ------------------------------------------------------------- identity
    @property
    def default_config(self) -> Any:
        """The reference configuration (the dataclass defaults)."""
        return self.config_cls()

    @abstractmethod
    def models(self) -> list[ArchitectureModel]:
        """Fresh architecture-model instances, report order."""

    # ----------------------------------------------------------- evaluators
    def evaluator(self, cache=None):
        """A fresh evaluator over this workload's models.

        ``cache=None`` is the scalar-oracle behaviour sweeps verify
        against; pass a :class:`~repro.core.evaluator.ReportCache` to
        memoise per-(model, configuration) reports.
        """
        from ..core.evaluator import DDCEvaluator

        return DDCEvaluator(models=self.models(), cache=cache)

    def shared_evaluator(self):
        """The per-process cached evaluator grid consumers share.

        Lazily built once per workload instance with its own
        :class:`~repro.core.evaluator.ReportCache`.  The registry caches
        instances per process, so the sweep engine, the explorer, the
        paper artifacts and the benches all warm and read one cache per
        workload.
        """
        if self._shared_evaluator is None:
            from ..core.evaluator import ReportCache

            self._shared_evaluator = self.evaluator(cache=ReportCache())
        return self._shared_evaluator

    # ----------------------------------------------------------------- axes
    def config_axes(self) -> tuple[str, ...]:
        """Configuration fields a sweep/discrete axis may range over."""
        return tuple(f.name for f in dataclasses.fields(self.config_cls))

    def continuous_axes(self) -> tuple[str, ...]:
        """Fields the continuous explore axis may range over.

        Default: the float-typed configuration fields (integer fields
        belong on discrete axes).
        """
        return tuple(
            f.name
            for f in dataclasses.fields(self.config_cls)
            if isinstance(f.default, float)
        )

    @abstractmethod
    def default_explore_axis(self) -> tuple[str, float, float]:
        """``(field, lo, hi)`` — the reference continuous search axis."""

    @abstractmethod
    def scenario_axes(self) -> Mapping[str, tuple[Any, ...]]:
        """Suggested sweep axes: field name -> interesting values.

        The workload's own "Table 7 neighbourhood": every value bound to
        the default configuration must leave at least one architecture
        feasible (the conformance suite and the ``<name>_sweep`` bench
        both grid over exactly these axes).
        """

    # ------------------------------------------------------- population (MC)
    def population_axes(self) -> Mapping[str, Any]:
        """Default Monte-Carlo distributions over the discrete axes.

        Field name -> :class:`~repro.montecarlo.spec.Choice` drawn per
        sampled user.  The default is an unweighted ``Choice`` over each
        :meth:`scenario_axes` value set; workloads with an opinion about
        their user population (how many channels a typical receiver
        decodes, say) override this with weighted choices.  Config axes
        must stay *discrete* so the engine's unique-point deduplication
        keeps model evaluations proportional to distinct configurations,
        not samples.
        """
        from ..montecarlo.spec import Choice

        return {
            name: Choice(values=tuple(values))
            for name, values in self.scenario_axes().items()
        }

    def duty_cycle_distribution(self) -> Any:
        """Default per-user duty-cycle distribution (continuous axis).

        Uniform over [0, 1] unless the workload knows better; must stay
        bounded within [0, 1] (the spec validates declared bounds).
        """
        from ..montecarlo.spec import Uniform

        return Uniform(low=0.0, high=1.0)

    # ------------------------------------------------------------ validation
    def check_config(self, config: Any) -> Any:
        """Reject configurations of the wrong workload early and legibly."""
        if not isinstance(config, self.config_cls):
            raise ConfigurationError(
                f"workload {self.name!r} expects a "
                f"{self.config_cls.__name__} configuration, got "
                f"{type(config).__name__}"
            )
        return config

    def check_axes(
        self, axes: Sequence[tuple[str, Any]], kind: str = "sweep"
    ) -> None:
        """Validate axis field names against this workload's config."""
        known = self.config_axes()
        for name, _ in axes:
            if name not in known:
                raise ConfigurationError(
                    f"unknown {kind} axis {name!r}; workload "
                    f"{self.name!r} ({self.config_cls.__name__}) fields "
                    f"are {', '.join(known)}"
                )

    def __repr__(self) -> str:
        return f"<Workload {self.name!r}: {self.title}>"

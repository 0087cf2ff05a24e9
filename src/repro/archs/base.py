"""Common interface of the five architecture models.

The paper compares architectures on *energy consumption, flexibility and
performance* for one fixed task.  :class:`ArchitectureModel` captures the
quantities every model must produce for the Table 7 comparison; the
:class:`ImplementationReport` is the row each model contributes.

Two evaluation paths exist per model and are **bit-identical**:

- the scalar path (:meth:`ArchitectureModel.implement`) — one
  configuration at a time, the seed behaviour and the oracle;
- the batched path (:meth:`ArchitectureModel.implement_batch`) — a whole
  sequence of configurations in one call, returning a struct-of-arrays
  :class:`BatchImplementationReport`.  The base-class implementation is
  a scalar loop (:meth:`ArchitectureModel.implement_batch_scalar`).  A
  model overrides it only where a batch beats that loop (the ARM9 and
  the Montium; the GC4016, low-power and Cyclone models re-declare it as
  that loop so each batch is timed under its own name); an override's reports — including error behaviour on
  unmappable configurations — match the scalar path bit for bit
  (pinned by the Hypothesis suite in ``tests/test_evaluator_batch.py``).
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..config import DDCConfig
from ..energy.technology import TechnologyNode
from ..errors import ConfigurationError, MappingError


class Flexibility(enum.IntEnum):
    """Coarse flexibility ranking used in the scenario analysis (Section 7).

    Higher = more able to be re-purposed when the DDC is idle.
    """

    FIXED_FUNCTION = 0       # ASIC: parameters only
    RECONFIGURABLE = 1       # FPGA / coarse-grained reconfigurable
    PROGRAMMABLE = 2         # GPP: arbitrary software


@dataclass(frozen=True)
class ImplementationReport:
    """One architecture's realisation of a DDC configuration.

    Attributes
    ----------
    architecture:
        Display name as used in the paper's Table 7.
    technology:
        Native technology node of the published figure.
    clock_hz:
        Clock frequency required to sustain the DDC in real time.
    power_w:
        Power drawn at that clock in the native technology.
    area_mm2:
        Core area where the paper reports one (else ``None``).
    flexibility:
        Coarse reconfigurability class.
    feasible:
        Whether a single device can actually sustain real time (False for
        the ARM, which would need a 9.74 GHz clock).
    notes:
        Free-form provenance notes (datasheet, estimation method...).
    """

    architecture: str
    technology: TechnologyNode
    clock_hz: float
    power_w: float
    area_mm2: float | None = None
    flexibility: Flexibility = Flexibility.FIXED_FUNCTION
    feasible: bool = True
    notes: str = ""

    @property
    def power_mw(self) -> float:
        """Power in milliwatts (the unit of Table 7)."""
        return self.power_w * 1e3

    @property
    def energy_per_output_sample_j(self) -> float:
        """Energy to produce one 24 kHz output sample (paper's implicit
        figure of merit: power at fixed throughput)."""
        return self.power_w / 24_000.0


@dataclass(frozen=True)
class BatchImplementationReport:
    """One architecture's realisation of a whole configuration batch.

    Struct-of-arrays twin of :class:`ImplementationReport`: ``power_w``,
    ``clock_hz``, ``area_mm2`` and ``feasible`` are numpy arrays with one
    entry per input configuration.  Configurations the model cannot map
    at all (the scalar path raises :class:`~repro.errors.ConfigurationError`
    or :class:`~repro.errors.MappingError`) are marked unmappable: their
    array entries are ``nan``/``False``, the scalar-identical exception is
    stored in ``errors``, and :meth:`report_at` re-raises it.

    ``reports`` keeps the materialised scalar-identical
    :class:`ImplementationReport` per mappable configuration (``None``
    where unmappable) — the batch contract is that ``reports[i]`` equals
    what ``model.implement(configs[i])`` returns, bit for bit.
    """

    architecture: str
    power_w: "np.ndarray"
    clock_hz: "np.ndarray"
    area_mm2: "np.ndarray"
    feasible: "np.ndarray"
    mappable: "np.ndarray"
    reports: tuple[ImplementationReport | None, ...]
    errors: tuple[Exception | None, ...]

    def __len__(self) -> int:
        return len(self.reports)

    def report_at(self, index: int) -> ImplementationReport:
        """The scalar-identical report for one configuration.

        Raises the stored mapping error where the scalar
        ``implement(configs[index])`` would have raised.
        """
        err = self.errors[index]
        if err is not None:
            raise err
        report = self.reports[index]
        assert report is not None
        return report

    @classmethod
    def from_reports(
        cls,
        architecture: str,
        reports: Sequence[ImplementationReport | None],
        errors: Sequence[Exception | None] | None = None,
    ) -> "BatchImplementationReport":
        """Assemble the struct-of-arrays view from materialised reports."""
        import numpy as np

        if errors is None:
            errors = [None] * len(reports)
        if len(errors) != len(reports):
            raise ConfigurationError("reports and errors must align")
        nan = math.nan
        return cls(
            architecture=architecture,
            power_w=np.array(
                [nan if r is None else r.power_w for r in reports]
            ),
            clock_hz=np.array(
                [nan if r is None else r.clock_hz for r in reports]
            ),
            area_mm2=np.array(
                [
                    nan if r is None or r.area_mm2 is None else r.area_mm2
                    for r in reports
                ]
            ),
            feasible=np.array(
                [False if r is None else r.feasible for r in reports],
                dtype=bool,
            ),
            mappable=np.array([r is not None for r in reports], dtype=bool),
            reports=tuple(reports),
            errors=tuple(errors),
        )


class ArchitectureModel(ABC):
    """An executable architecture that can realise a DDC configuration."""

    #: Display name used in tables: the ``architecture`` of every report
    #: and batch the model produces.
    name: str = "abstract"
    #: Flexibility class of every report the model produces.
    flexibility: Flexibility = Flexibility.FIXED_FUNCTION

    @abstractmethod
    def implement(self, config: DDCConfig) -> ImplementationReport:
        """Realise ``config`` and report clock/power/area/feasibility."""

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """Realise a whole batch of configurations in one call.

        The default is the scalar loop
        (:meth:`implement_batch_scalar`).  A model overrides it only with
        a path that is faster than that loop and bit-identical to it,
        including the mapping errors recorded for unmappable
        configurations.
        """
        return self.implement_batch_scalar(configs)

    def implement_batch_scalar(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """The scalar-loop oracle for :meth:`implement_batch`.

        One :meth:`implement` call per configuration;
        :class:`~repro.errors.ConfigurationError` /
        :class:`~repro.errors.MappingError` mark the configuration
        unmappable instead of aborting the batch.  Kept as a separate
        method so benches and equivalence tests can always reach the
        scalar loop even on models that override :meth:`implement_batch`.
        """
        reports: list[ImplementationReport | None] = []
        errors: list[Exception | None] = []
        for config in configs:
            try:
                reports.append(self.implement(config))
                errors.append(None)
            except (ConfigurationError, MappingError) as exc:
                reports.append(None)
                errors.append(exc)
        return BatchImplementationReport.from_reports(
            self.name, reports, errors
        )

    def cache_key(self) -> tuple:
        """Hashable identity for report caching.

        Must distinguish model instances whose reports could differ —
        models with constructor knobs (device, toggle rates, operating
        point...) extend the tuple with them.
        """
        return (type(self).__qualname__, self.name)

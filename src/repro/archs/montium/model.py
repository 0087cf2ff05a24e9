"""Montium device model and the Section 6.2.2 power arithmetic.

"The power consumption of the Montium is measured to be 0.6 mW/MHz in
0.13 µm technology and a Vdd of 1.2 V. ... we can estimate that a Montium
TP needs 38.7 mW to perform the DDC algorithm."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...config import DDCConfig, REFERENCE_DDC
from ...energy.technology import TECH_130NM, TechnologyNode
from ...errors import ConfigurationError, MappingError
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)
from .ddc_mapping import build_ddc_schedule
from .program import estimate_config_bytes


def _schedule_key(config: DDCConfig) -> tuple:
    """The configuration fields :func:`build_ddc_schedule` reads.

    Configurations that agree on these fields produce identical schedules
    (and identical mapping errors), so a batch builds each distinct
    schedule once and reads its period and configuration size.  Pinned
    by the recording-config test in ``tests/test_memo_keys.py``: extend
    the key if the mapping grows a new configuration dependence.
    """
    return (config.cic2_decimation, config.cic5_decimation)


@dataclass(frozen=True)
class MontiumSpec:
    """Published Montium TP constants (Section 6 / Table 7)."""

    name: str = "Montium TP"
    technology: TechnologyNode = TECH_130NM
    power_mw_per_mhz: float = 0.6
    area_mm2: float = 2.2
    n_alus: int = 5
    memories_per_alu: int = 2
    memory_words: int = 512


#: The device the paper uses.
MONTIUM_SPEC = MontiumSpec()


class MontiumModel(ArchitectureModel):
    """Montium architecture model: schedule feasibility + 0.6 mW/MHz."""

    flexibility = Flexibility.RECONFIGURABLE

    def __init__(self, spec: MontiumSpec = MONTIUM_SPEC) -> None:
        self.spec = spec
        self.name = spec.name

    def _report(
        self, config: DDCConfig, period: int, config_bytes: int
    ) -> ImplementationReport:
        """Assemble the Table 7 row (shared by scalar and batched paths)."""
        clock_hz = config.input_rate_hz  # one input sample per tile cycle
        power_w = clock_hz / 1e6 * self.spec.power_mw_per_mhz * 1e-3
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=clock_hz,
            power_w=power_w,
            area_mm2=self.spec.area_mm2,
            flexibility=self.flexibility,
            feasible=True,
            notes=(
                f"5-ALU schedule, period {period} cycles, "
                f"~{config_bytes} B configuration; 0.6 mW/MHz measured "
                "constant"
            ),
        )

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        program = build_ddc_schedule(config)
        return self._report(
            config, program.period, estimate_config_bytes(program)
        )

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """Batched :meth:`implement` over a configuration axis.

        Schedule construction is deduplicated on the configuration fields
        the mapping actually reads (:func:`_schedule_key`): each distinct
        schedule — or each distinct mapping error — is built once, its
        period and configuration size are shared by every configuration
        with the same key, and the power/notes arithmetic per
        configuration is the scalar path's, so reports and errors are
        bit-identical to the scalar loop.  Building the schedule is most
        of a scalar :meth:`implement`, so this beats the plain loop.
        """
        built: dict[tuple, tuple[int, int] | Exception] = {}
        reports: list[ImplementationReport | None] = []
        errors: list[Exception | None] = []
        for config in configs:
            key = _schedule_key(config)
            outcome = built.get(key)
            if outcome is None:
                try:
                    program = build_ddc_schedule(config)
                    outcome = (program.period, estimate_config_bytes(program))
                except (ConfigurationError, MappingError) as exc:
                    outcome = exc
                built[key] = outcome
            if isinstance(outcome, Exception):
                reports.append(None)
                errors.append(outcome)
            else:
                period, config_bytes = outcome
                reports.append(self._report(config, period, config_bytes))
                errors.append(None)
        return BatchImplementationReport.from_reports(
            self.name, reports, errors
        )

    def cache_key(self) -> tuple:
        return (type(self).__qualname__, self.spec)

"""FPGA architecture facade for the Table 7 comparison.

Combines the resource estimator and the power model into an
:class:`~repro.archs.base.ArchitectureModel`: estimate utilisation, check
the design fits and meets timing (f_max from Section 5.2.1), and report
power at the paper's assumed 10 % internal toggle rate.
"""

from __future__ import annotations

from typing import Sequence

from ...config import DDCConfig, REFERENCE_DDC
from ...errors import ConfigurationError, MappingError
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)
from .devices import CYCLONE_II_EP2C5, FPGADevice
from .power import FPGAPowerModel
from .resources import (
    ResourceUsage,
    estimate_ddc_resources,
    estimate_ddc_resources_batch,
    require_fit,
)


class CycloneModel(ArchitectureModel):
    """Altera Cyclone I/II implementation of the DDC."""

    flexibility = Flexibility.RECONFIGURABLE

    def __init__(
        self,
        device: FPGADevice = CYCLONE_II_EP2C5,
        internal_toggle: float = 0.10,
        input_toggle: float = 0.50,
    ) -> None:
        self.device = device
        self.internal_toggle = internal_toggle
        self.input_toggle = input_toggle
        self.power_model = FPGAPowerModel(device)
        self.name = f"Altera {device.family}"

    def _report(
        self, config: DDCConfig, usage: ResourceUsage, total_w: float
    ) -> ImplementationReport:
        """Assemble the Table 7 row (shared by scalar and batched paths)."""
        clock_hz = config.input_rate_hz
        return ImplementationReport(
            architecture=self.name,
            technology=self.device.technology,
            clock_hz=clock_hz,
            power_w=total_w,
            area_mm2=None,
            flexibility=self.flexibility,
            feasible=clock_hz <= self.device.fmax_ddc_hz,
            notes=(
                f"{usage.logic_elements} LEs, {usage.memory_bits} memory "
                f"bits, {usage.multipliers_9bit} embedded 9-bit multipliers; "
                f"{self.internal_toggle:.0%} internal / "
                f"{self.input_toggle:.0%} input toggle assumed"
            ),
        )

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        usage = estimate_ddc_resources(self.device, config)
        require_fit(usage, self.device)
        power = self.power_model.estimate(
            usage, config.input_rate_hz, self.internal_toggle,
            self.input_toggle,
        )
        return self._report(config, usage, power.total_w)

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """Batched :meth:`implement` over a configuration axis.

        Resource estimation is one
        :func:`~repro.archs.fpga.resources.estimate_ddc_resources_batch`
        numpy pass (bit-identical integer bookkeeping); designs that do
        not fit re-run the scalar :func:`require_fit` to record the
        scalar-identical :class:`~repro.errors.MappingError`, and the
        power arithmetic for every mappable configuration is one
        :meth:`FPGAPowerModel.estimate_batch` numpy pass, bit-identical
        to the scalar estimates.
        """
        estimated, errors = estimate_ddc_resources_batch(
            self.device, configs
        )
        usages: list[ResourceUsage | None] = []
        for i, usage in enumerate(estimated):
            if usage is not None and not usage.fits(self.device):
                try:
                    require_fit(usage, self.device)
                except (ConfigurationError, MappingError) as exc:
                    errors[i] = exc
                    usage = None
            usages.append(usage)
        mappable = [i for i, u in enumerate(usages) if u is not None]
        reports: list[ImplementationReport | None] = [None] * len(configs)
        if mappable:
            breakdowns = self.power_model.estimate_batch(
                [usages[i] for i in mappable],
                self.internal_toggle,
                [configs[i].input_rate_hz for i in mappable],
                self.input_toggle,
            )
            for i, power in zip(mappable, breakdowns):
                usage = usages[i]
                assert usage is not None
                reports[i] = self._report(configs[i], usage, power.total_w)
        return BatchImplementationReport.from_reports(
            self.name, reports, errors
        )

    def dynamic_power_w(self, config: DDCConfig = REFERENCE_DDC) -> float:
        """Dynamic-only power (the component the paper scales for the
        Cyclone II 0.13 um estimate in Table 7)."""
        usage = estimate_ddc_resources(self.device, config)
        power = self.power_model.estimate(
            usage, config.input_rate_hz, self.internal_toggle, self.input_toggle
        )
        return power.dynamic_w

    def cache_key(self) -> tuple:
        return (
            type(self).__qualname__, self.device.name,
            self.internal_toggle, self.input_toggle,
        )

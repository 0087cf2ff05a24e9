"""FPGA architecture facade for the Table 7 comparison.

Combines the resource estimator and the power model into an
:class:`~repro.archs.base.ArchitectureModel`: estimate utilisation, check
the design fits and meets timing (f_max from Section 5.2.1), and report
power at the paper's assumed 10 % internal toggle rate.
"""

from __future__ import annotations

from typing import Sequence

from ...config import DDCConfig, REFERENCE_DDC
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)
from .devices import CYCLONE_II_EP2C5, FPGADevice
from .power import FPGAPowerModel
from .resources import estimate_ddc_resources, require_fit


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

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        usage = estimate_ddc_resources(self.device, config)
        require_fit(usage, self.device)
        clock_hz = config.input_rate_hz
        power = self.power_model.estimate(
            usage, clock_hz, self.internal_toggle, self.input_toggle
        )
        return ImplementationReport(
            architecture=self.name,
            technology=self.device.technology,
            clock_hz=clock_hz,
            power_w=power.total_w,
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

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        # The scalar loop is as fast as numpy here; the method stays so
        # perfbench times the batch under this device's own layer name.
        return self.implement_batch_scalar(configs)

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

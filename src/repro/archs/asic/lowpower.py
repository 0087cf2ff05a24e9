"""Customised low-power DDC ASIC (paper Section 3.2).

The second ASIC "can be configured to the chosen filter layout from
section 2 ... realized in 0.18 µm technology with a Vdd of 1.8 V.  The
size of the core is 1.7 mm2.  When performing the digital down conversion
at 64.512 MHz ... it consumes 27 mW.  The power consumption is based on
gate count and activity rate estimation."

That estimation method is implemented here: each chain stage gets a gate
count from its word widths (derived with the same bit-growth analysis the
rest of the library uses) and an activity = the rate it is clocked at
relative to the input rate; power = sum(gates * activity) * energy/gate/Hz.
The energy constant is calibrated so the reference configuration lands on
the published 27 mW — the *relative* cost of configurations (the planner's
signal) is what the model structure provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...config import DDCConfig, REFERENCE_DDC
from ...energy.technology import TECH_180NM, TechnologyNode
from ...errors import ConfigurationError
from ...fixedpoint import cic_bit_growth, fir_accumulator_bits
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)

#: Gates per full-adder bit (adder + register) in a compiled datapath.
_GATES_PER_ADD_BIT = 12
#: Gates per multiplier product bit.
_GATES_PER_MULT_BIT = 9
#: Control/clock-tree overhead fraction.
_CTRL_OVERHEAD = 0.18


@dataclass(frozen=True)
class StageGates:
    """Gate count and activity of one chain stage."""

    name: str
    gates: int
    #: stage clock rate relative to the chain input rate (0..1]
    relative_rate: float

    @property
    def weighted_gates(self) -> float:
        """Gates x activity — proportional to the stage's dynamic power."""
        return self.gates * self.relative_rate


def gate_count_estimate(config: DDCConfig = REFERENCE_DDC) -> list[StageGates]:
    """Per-stage gate counts and activities of the configured chain."""
    w = config.data_width
    stages: list[StageGates] = []
    rate = 1.0

    # NCO + mixer: phase accumulator (32b) + 2 multipliers, full rate.
    nco_gates = 32 * _GATES_PER_ADD_BIT + 2 * (w * w) * _GATES_PER_MULT_BIT
    stages.append(StageGates("NCO+mixer", nco_gates, rate))

    for label, order, decim in (
        ("CIC2", config.cic2_order, config.cic2_decimation),
        ("CIC5", config.cic5_order, config.cic5_decimation),
    ):
        if order == 0 or decim == 1:
            continue
        internal = w + cic_bit_growth(order, decim)
        # integrators run at the stage input rate, combs at the output rate
        int_gates = 2 * order * internal * _GATES_PER_ADD_BIT
        comb_gates = 2 * order * internal * _GATES_PER_ADD_BIT
        stages.append(StageGates(f"{label}-integrators", int_gates, rate))
        stages.append(StageGates(f"{label}-combs", comb_gates, rate / decim))
        rate /= decim

    # Polyphase FIR: sequential MAC (multiplier + accumulator) per rail,
    # clocked taps times per output sample.
    acc_w = fir_accumulator_bits(w, w, config.fir_taps)
    fir_gates = 2 * ((w * w) * _GATES_PER_MULT_BIT + acc_w * _GATES_PER_ADD_BIT)
    fir_activity = rate * config.fir_taps / config.fir_decimation
    stages.append(StageGates("FIR", fir_gates, min(1.0, fir_activity)))
    return stages


@dataclass(frozen=True)
class LowPowerSpec:
    """Published constants of the customised low-power DDC."""

    name: str = "Customised Low Power DDC"
    technology: TechnologyNode = TECH_180NM
    power_w_at_reference: float = 0.027
    clock_hz: float = 64_512_000.0
    area_mm2: float = 1.7
    min_decimation: int = 2
    max_decimation: int = 65536


#: The device the paper quotes (from personal communication).
LOWPOWER_SPEC = LowPowerSpec()


class LowPowerDDCModel(ArchitectureModel):
    """Gate-count x activity power estimation, calibrated at 27 mW."""

    flexibility = Flexibility.FIXED_FUNCTION

    def __init__(self, spec: LowPowerSpec = LOWPOWER_SPEC) -> None:
        self.spec = spec
        self.name = spec.name
        # Calibrate the per-gate energy so the reference chain at the
        # reference clock dissipates exactly the published 27 mW.
        ref = sum(s.weighted_gates for s in gate_count_estimate(REFERENCE_DDC))
        self._energy_per_gate_hz = self.spec.power_w_at_reference / (
            ref * (1 + _CTRL_OVERHEAD) * self.spec.clock_hz
        )

    def supports(self, config: DDCConfig) -> bool:
        return (
            self.spec.min_decimation
            <= config.total_decimation
            <= self.spec.max_decimation
        )

    def estimate_power_w(self, config: DDCConfig) -> float:
        """Gate-count x activity estimate for an arbitrary configuration."""
        if not self.supports(config):
            raise ConfigurationError(
                f"decimation {config.total_decimation} outside "
                f"{self.spec.min_decimation}..{self.spec.max_decimation}"
            )
        weighted = sum(s.weighted_gates for s in gate_count_estimate(config))
        return (
            weighted
            * (1 + _CTRL_OVERHEAD)
            * config.input_rate_hz
            * self._energy_per_gate_hz
        )

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=config.input_rate_hz,
            power_w=self.estimate_power_w(config),
            area_mm2=self.spec.area_mm2,
            flexibility=self.flexibility,
            feasible=True,
            notes="gate count x activity estimation (Section 3.2 method)",
        )

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        # The scalar loop beats numpy here; the method stays so perfbench
        # times the batch under this model's own layer name.
        return self.implement_batch_scalar(configs)

    def cache_key(self) -> tuple:
        return (type(self).__qualname__, self.spec)

"""Texas Instruments GC4016 quad DDC model (paper Section 3.1).

The GC4016 is the commercial single-chip comparator.  The paper uses three
things from its datasheet: the channel structure (Fig. 4: 5-stage CIC
followed by a 21-tap CFIR and a 63-tap PFIR, each FIR decimating by 2),
the configuration limits (Table 2), and the GSM example's power figure
(115 mW per channel at 80 MHz, 2.5 V, 0.25 µm).

:class:`GC4016Channel` is an *executable* channel: NCO/mixer + CIC5 +
CFIR + PFIR with the datasheet decimation rules enforced, so the
reproduction can compare the GC4016-style chain against the reference
chain on real signals (the Section 3.1.2 caveats: decimation 256 vs 2688,
up to 84 taps vs 125).  :class:`GC4016Model` provides the Table 7 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...config import DDCConfig, REFERENCE_DDC
from ...dsp.cic import CICDecimator
from ...dsp.fir import PolyphaseDecimator
from ...dsp.firdesign import design_kaiser_lowpass
from ...dsp.mixer import Mixer
from ...dsp.nco import NCO
from ...energy.technology import TECH_250NM, TechnologyNode
from ...errors import ConfigurationError
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)


@dataclass(frozen=True)
class GC4016Spec:
    """Datasheet constants (Table 2 + Section 3.1)."""

    name: str = "TI GC4016"
    technology: TechnologyNode = TECH_250NM
    max_input_msps: float = 100.0
    input_bits_4ch: int = 14
    input_bits_3ch: int = 16
    min_decimation: int = 32
    max_decimation: int = 16384
    cic_order: int = 5
    cic_min_decimation: int = 8
    cic_max_decimation: int = 4096
    cfir_taps: int = 21
    pfir_taps: int = 63
    fir_decimation_each: int = 2
    output_bits: tuple[int, ...] = (12, 16, 20, 24)
    channels: int = 4
    #: GSM example: 115 mW for a channel at 80 MHz and 2.5 V.
    example_power_w: float = 0.115
    example_clock_hz: float = 80e6


#: The device the paper quotes.
GC4016_SPEC = GC4016Spec()


class GC4016Channel:
    """Functional model of one GC4016 channel (Fig. 4).

    Chain: NCO/mixer -> CIC5 (decimation 8..4096) -> CFIR (21 taps,
    decimate 2) -> PFIR (63 taps, decimate 2).
    """

    def __init__(
        self,
        input_rate_hz: float,
        nco_frequency_hz: float,
        cic_decimation: int,
        spec: GC4016Spec = GC4016_SPEC,
    ) -> None:
        if input_rate_hz > spec.max_input_msps * 1e6:
            raise ConfigurationError(
                f"input rate {input_rate_hz / 1e6:.1f} MSPS exceeds the "
                f"datasheet {spec.max_input_msps} MSPS"
            )
        if not spec.cic_min_decimation <= cic_decimation <= spec.cic_max_decimation:
            raise ConfigurationError(
                f"CIC decimation {cic_decimation} outside the datasheet "
                f"range {spec.cic_min_decimation}..{spec.cic_max_decimation}"
            )
        self.spec = spec
        self.input_rate_hz = input_rate_hz
        self.cic_decimation = cic_decimation
        self.nco = NCO(input_rate_hz, nco_frequency_hz, lut_addr_bits=12)
        self.mixer = Mixer(self.nco)
        self.cic_i = CICDecimator(spec.cic_order, cic_decimation)
        self.cic_q = CICDecimator(spec.cic_order, cic_decimation)
        rate = input_rate_hz / cic_decimation
        cfir = design_kaiser_lowpass(spec.cfir_taps, rate / 5, rate, 50.0)
        self.cfir = PolyphaseDecimator(cfir, spec.fir_decimation_each)
        rate /= spec.fir_decimation_each
        pfir = design_kaiser_lowpass(spec.pfir_taps, rate / 4.4, rate, 70.0)
        self.pfir = PolyphaseDecimator(pfir, spec.fir_decimation_each)

    @property
    def total_decimation(self) -> int:
        """CIC x CFIR x PFIR decimation (Table 2: 32..16384)."""
        return self.cic_decimation * self.spec.fir_decimation_each**2

    @property
    def output_rate_hz(self) -> float:
        """Channel output rate."""
        return self.input_rate_hz / self.total_decimation

    def process(self, x: np.ndarray) -> np.ndarray:
        """Down-convert one block of real samples to complex baseband."""
        mixed = self.mixer.process(np.asarray(x, dtype=np.float64))
        c = self.cic_i.process(mixed.real) + 1j * self.cic_q.process(mixed.imag)
        return self.pfir.process(self.cfir.process(c))

    def reset(self) -> None:
        """Reset all stage state."""
        self.nco.reset()
        for s in (self.cic_i, self.cic_q, self.cfir, self.pfir):
            s.reset()


class GC4016Model(ArchitectureModel):
    """Table 7 row: datasheet power scaled to the DDC's clock.

    The paper takes the GSM example's 115 mW at 80 MHz as the operating
    point; power scales linearly with the clock (CMOS dynamic power), so a
    64.512 MHz reference-style deployment draws 115 * 64.512/80 mW.  The
    paper's Table 7 keeps the 80 MHz point; both are exposed.
    """

    flexibility = Flexibility.FIXED_FUNCTION

    def __init__(self, spec: GC4016Spec = GC4016_SPEC,
                 at_paper_operating_point: bool = True) -> None:
        self.spec = spec
        self.name = spec.name
        self.at_paper_operating_point = at_paper_operating_point

    def supports(self, config: DDCConfig) -> bool:
        """Datasheet constraints of Table 2."""
        if config.input_rate_hz > self.spec.max_input_msps * 1e6:
            return False
        return (
            self.spec.min_decimation
            <= config.total_decimation
            <= self.spec.max_decimation
        )

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        if self.at_paper_operating_point:
            clock = self.spec.example_clock_hz
            power = self.spec.example_power_w
        else:
            clock = config.input_rate_hz
            power = self.spec.example_power_w * clock / self.spec.example_clock_hz
        notes = (
            "datasheet GSM example (per channel); chain differs from the"
            " reference DDC: no CIC2, total decimation 32..16384, up to"
            " 84 FIR taps"
        )
        if not self.supports(config):
            notes += (
                "; reference decimation 2688 is in range but the exact"
                " 16*21*8 split is not expressible"
            )
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=clock,
            power_w=power,
            area_mm2=None,
            flexibility=self.flexibility,
            feasible=True,
            notes=notes,
        )

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        # The scalar loop is as fast as numpy here; the method stays so
        # perfbench times the batch under this model's own layer name.
        return self.implement_batch_scalar(configs)

    def cache_key(self) -> tuple:
        return (
            type(self).__qualname__, self.spec, self.at_paper_operating_point,
        )

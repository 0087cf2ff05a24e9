"""Reference DDC configuration from Section 2 of the paper.

The paper fixes one DDC configuration — selecting a DRM (Digital Radio
Mondiale) band — and uses it to compare all five architectures.  Table 1 of
the paper defines it:

==========  =================  ==============
Component   Clock/sample rate  Decimation (D)
==========  =================  ==============
NCO         64.512 MHz         --
CIC2        64.512 MHz         16
CIC5        4.032 MHz          21
125-tap FIR 192 kHz            8
Output      24 kHz             --
==========  =================  ==============

This module encodes those constants once; every architecture model and every
reproduced table derives from :data:`REFERENCE_DDC` rather than repeating
magic numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from .errors import ConfigurationError

#: Input sample rate of the reference DDC in Hz (64.512 MHz).
INPUT_RATE_HZ: float = 64_512_000.0

#: Output sample rate of the reference DDC in Hz (24 kHz).
OUTPUT_RATE_HZ: float = 24_000.0

#: Decimation of the first (2-stage) CIC filter.
CIC2_DECIMATION: int = 16

#: Decimation of the second (5-stage) CIC filter.
CIC5_DECIMATION: int = 21

#: Decimation of the final polyphase FIR filter.
FIR_DECIMATION: int = 8

#: Number of taps of the final FIR filter as specified in the paper.
FIR_TAPS: int = 125

#: The FPGA implementation uses 124 taps "to make the sequential filter run a
#: little more efficiently" (Section 5.2.1).
FIR_TAPS_FPGA: int = 124

#: Total decimation of the chain: 16 * 21 * 8 = 2688.
TOTAL_DECIMATION: int = CIC2_DECIMATION * CIC5_DECIMATION * FIR_DECIMATION

#: Data-path width used by the FPGA implementation (12-bit buses).
DATA_WIDTH_BITS: int = 12

#: Clock cycles available to compute one FIR output sample on the FPGA
#: (192 ksps input to the FIR, decimation 8, logic clocked at 64.512 MHz).
FPGA_CYCLES_PER_FIR_OUTPUT: int = 2688


def check_finite(owner: Any) -> None:
    """Refuse a dataclass's nan/±inf number fields, naming the field.

    The one finiteness gate of every workload config and population spec:
    nan slips through ordered comparisons (``nan <= 0`` is False), so each
    ``__post_init__`` calls this first.
    """
    for f in dataclasses.fields(owner):
        value = getattr(owner, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            name = f"{type(owner).__name__}.{f.name}"
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class StageConfig:
    """Configuration of one stage in the DDC chain.

    Parameters
    ----------
    name:
        Human-readable stage name as used in the paper's Table 1.
    input_rate_hz:
        Sample rate at the stage input.
    decimation:
        Integer decimation performed by the stage (1 for the NCO/mixer).
    order:
        Filter order: number of integrator/comb stage pairs for a CIC,
        number of taps for a FIR, 0 for the NCO.
    """

    name: str
    input_rate_hz: float
    decimation: int
    order: int = 0

    def __post_init__(self) -> None:
        if self.decimation < 1:
            raise ConfigurationError(
                f"stage {self.name!r}: decimation must be >= 1, "
                f"got {self.decimation}"
            )
        if self.input_rate_hz <= 0:
            raise ConfigurationError(
                f"stage {self.name!r}: input rate must be positive, "
                f"got {self.input_rate_hz}"
            )

    @property
    def output_rate_hz(self) -> float:
        """Sample rate at the stage output."""
        return self.input_rate_hz / self.decimation


@dataclass(frozen=True)
class DDCConfig:
    """Complete configuration of a three-stage DDC chain.

    The defaults reproduce the paper's reference configuration (Table 1).
    Alternative configurations (e.g. the GC4016 GSM example of Section 3.1.2)
    are expressed with the same dataclass.
    """

    input_rate_hz: float = INPUT_RATE_HZ
    cic2_decimation: int = CIC2_DECIMATION
    cic5_decimation: int = CIC5_DECIMATION
    fir_decimation: int = FIR_DECIMATION
    fir_taps: int = FIR_TAPS
    data_width: int = DATA_WIDTH_BITS
    cic2_order: int = 2
    cic5_order: int = 5
    #: Mixing frequency of the NCO in Hz.  The DRM band of interest is not
    #: specified numerically in the paper; any frequency below Nyquist works.
    nco_frequency_hz: float = 10_000_000.0

    def __post_init__(self) -> None:
        check_finite(self)
        for label, value in (
            ("cic2_decimation", self.cic2_decimation),
            ("cic5_decimation", self.cic5_decimation),
            ("fir_decimation", self.fir_decimation),
            ("fir_taps", self.fir_taps),
            ("data_width", self.data_width),
        ):
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{label} must be a positive integer, got {value!r}"
                )
        for label, value in (
            ("cic2_order", self.cic2_order),
            ("cic5_order", self.cic5_order),
        ):
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"{label} must be a non-negative integer, got {value!r}"
                )
        if self.input_rate_hz <= 0:
            raise ConfigurationError(
                f"input_rate_hz must be positive, got {self.input_rate_hz}"
            )
        if abs(self.nco_frequency_hz) > self.input_rate_hz / 2:
            raise ConfigurationError(
                "nco_frequency_hz must lie below the input Nyquist rate"
            )

    @property
    def total_decimation(self) -> int:
        """Product of the three stage decimations (2688 for the reference)."""
        return self.cic2_decimation * self.cic5_decimation * self.fir_decimation

    @property
    def output_rate_hz(self) -> float:
        """Output sample rate (24 kHz for the reference configuration)."""
        return self.input_rate_hz / self.total_decimation

    def stages(self) -> tuple[StageConfig, ...]:
        """The chain as a tuple of :class:`StageConfig`, Table 1 order."""
        rate = self.input_rate_hz
        nco = StageConfig("NCO", rate, 1, 0)
        cic2 = StageConfig("CIC2", rate, self.cic2_decimation, self.cic2_order)
        rate /= self.cic2_decimation
        cic5 = StageConfig("CIC5", rate, self.cic5_decimation, self.cic5_order)
        rate /= self.cic5_decimation
        fir = StageConfig(
            f"{self.fir_taps} taps FIR", rate, self.fir_decimation, self.fir_taps
        )
        return (nco, cic2, cic5, fir)

    def table1_rows(self) -> list[tuple[str, float, int | None]]:
        """Rows of the paper's Table 1: (component, clock rate Hz, decimation).

        The NCO and Output rows carry ``None`` decimation, mirroring the
        '-' entries in the published table.
        """
        rows: list[tuple[str, float, int | None]] = []
        for stage in self.stages():
            rows.append(
                (stage.name, stage.input_rate_hz,
                 None if stage.decimation == 1 else stage.decimation)
            )
        rows.append(("Output", self.output_rate_hz, None))
        return rows


#: The paper's reference configuration (Section 2 / Table 1).
REFERENCE_DDC = DDCConfig()

#: The GC4016 GSM example of Section 3.1.2: 69.333 MHz input, CIC5
#: decimation 64, CFIR/PFIR each decimating by 2 (total 256), 68 taps used.
GC4016_GSM_EXAMPLE = DDCConfig(
    input_rate_hz=69_333_000.0,
    cic2_decimation=1,
    cic5_decimation=64,
    fir_decimation=4,
    fir_taps=68,
    data_width=14,
    cic2_order=0,
    cic5_order=5,
    nco_frequency_hz=0.0,
)

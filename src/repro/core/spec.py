"""The DDC task specification.

A :class:`DDCSpec` captures *what* must be done (rates, band, precision),
independent of *how* (the decimation plan and the architecture).  The
planner turns a spec + plan into a :class:`repro.config.DDCConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DDCConfig, check_finite
from ..errors import ConfigurationError


@dataclass(frozen=True)
class DDCSpec:
    """What the DDC must achieve.

    Parameters
    ----------
    input_rate_hz:
        ADC sample rate (64.512 MHz in the paper's reference).
    output_rate_hz:
        Required output sample rate (24 kHz).  ``input/output`` must be an
        integer — the total decimation.
    carrier_hz:
        Centre frequency of the band of interest.
    bandwidth_hz:
        Two-sided bandwidth to preserve (10 kHz for DRM).
    data_width:
        ADC/output word width in bits.
    """

    input_rate_hz: float = 64_512_000.0
    output_rate_hz: float = 24_000.0
    carrier_hz: float = 10_000_000.0
    bandwidth_hz: float = 10_000.0
    data_width: int = 12

    def __post_init__(self) -> None:
        check_finite(self)
        if self.input_rate_hz <= 0 or self.output_rate_hz <= 0:
            raise ConfigurationError("rates must be positive")
        ratio = self.input_rate_hz / self.output_rate_hz
        if abs(ratio - round(ratio)) > 1e-6:
            raise ConfigurationError(
                f"input/output rate ratio {ratio} is not an integer"
            )
        if round(ratio) < 1:
            raise ConfigurationError("output rate exceeds input rate")
        if not 0 < self.carrier_hz < self.input_rate_hz / 2:
            raise ConfigurationError("carrier must be within (0, Nyquist)")
        if self.bandwidth_hz <= 0 or self.bandwidth_hz > self.output_rate_hz:
            raise ConfigurationError(
                "bandwidth must be positive and representable at the "
                "output rate"
            )

    @property
    def total_decimation(self) -> int:
        """Required overall rate change."""
        return round(self.input_rate_hz / self.output_rate_hz)

    def to_config(
        self,
        cic2_decimation: int,
        cic5_decimation: int,
        fir_decimation: int,
        fir_taps: int = 125,
    ) -> DDCConfig:
        """Bind a decimation plan to this spec, yielding a DDCConfig."""
        product = cic2_decimation * cic5_decimation * fir_decimation
        if product != self.total_decimation:
            raise ConfigurationError(
                f"plan product {product} != required {self.total_decimation}"
            )
        return DDCConfig(
            input_rate_hz=self.input_rate_hz,
            cic2_decimation=cic2_decimation,
            cic5_decimation=cic5_decimation,
            fir_decimation=fir_decimation,
            fir_taps=fir_taps,
            data_width=self.data_width,
            cic2_order=2 if cic2_decimation > 1 else 0,
            cic5_order=5,
            nco_frequency_hz=self.carrier_hz,
        )

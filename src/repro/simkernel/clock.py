"""Clock domains.

The paper's FPGA DDC runs everything at the 64.512 MHz input clock (the
sequential FIR trades hardware for cycles precisely to avoid a second
domain), so most simulations use a single :class:`ClockDomain`; the class
still carries frequency so power models can convert cycle counts and toggle
counts into time and dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ClockDomain:
    """A named clock with a frequency in Hz."""

    name: str
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"clock {self.name!r}: frequency must be positive, "
                f"got {self.frequency_hz}"
            )

"""PowerPlay-style FPGA power model (paper Section 5.2.2, Table 5).

Quartus' PowerPlay decomposes power into a static part and a dynamic part
whose logic contribution is linear in the internal toggle rate.  The
published Cyclone I sweep *is* linear to better than 0.5 mW:

====================  =======  =======  =======  ========
internal toggle rate     5 %     10 %     50 %     87.5 %
dynamic (mW)            72.9     93.4    257.2     410.8
====================  =======  =======  =======  ========

fit: ``dynamic = 52.4 mW + 409.6 mW * toggle``.  We decompose the model as

    P = P_static + P_clock_io * (f / f_cal) + k * LE * f * toggle

with the device constants of :mod:`repro.archs.fpga.devices` fitted so the
published points are reproduced exactly on the Cyclone I and the published
57.98 mW total on the Cyclone II.  The input toggle rate enters the
clock/IO intercept; the paper holds it at 50 % ("random data") and so does
the default here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigurationError
from .devices import FPGADevice
from .resources import ResourceUsage


@dataclass(frozen=True)
class PowerBreakdown:
    """Static/dynamic decomposition, Table 5's three rows."""

    static_w: float
    clock_io_w: float
    logic_w: float

    @property
    def dynamic_w(self) -> float:
        """Dynamic = clock/IO + toggle-dependent logic."""
        return self.clock_io_w + self.logic_w

    @property
    def total_w(self) -> float:
        """Total thermal power."""
        return self.static_w + self.dynamic_w

    @property
    def total_mw(self) -> float:
        """Total in mW (the paper's unit)."""
        return self.total_w * 1e3


class FPGAPowerModel:
    """Estimates DDC power on a device from utilisation and activity."""

    def __init__(self, device: FPGADevice) -> None:
        self.device = device

    def estimate(
        self,
        usage: ResourceUsage,
        frequency_hz: float = 64_512_000.0,
        internal_toggle: float = 0.10,
        input_toggle: float = 0.50,
    ) -> PowerBreakdown:
        """Power at the given clock and toggle rates.

        ``internal_toggle`` is the design-average fraction of internal bits
        toggling per cycle (Table 5's sweep variable); ``input_toggle``
        scales the I/O part of the intercept around the 50 % calibration
        point.
        """
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        if not 0.0 <= internal_toggle <= 1.0:
            raise ConfigurationError("internal_toggle must be in [0, 1]")
        if not 0.0 <= input_toggle <= 1.0:
            raise ConfigurationError("input_toggle must be in [0, 1]")
        dev = self.device
        f_ratio = frequency_hz / dev.calibration_frequency_hz
        # Half the intercept is I/O (scales with input toggle), half is the
        # clock tree (toggle independent).
        clock_w = 0.5 * dev.clock_io_power_w * f_ratio
        io_w = 0.5 * dev.clock_io_power_w * f_ratio * (input_toggle / 0.5)
        logic_w = (
            dev.logic_power_w_per_le_hz_toggle
            * usage.logic_elements
            * frequency_hz
            * internal_toggle
        )
        return PowerBreakdown(
            static_w=dev.static_power_w,
            clock_io_w=clock_w + io_w,
            logic_w=logic_w,
        )

    def table5_sweep(
        self,
        usage: ResourceUsage,
        toggle_rates: tuple[float, ...] = (0.05, 0.10, 0.50, 0.875),
        frequency_hz: float = 64_512_000.0,
    ) -> list[tuple[float, PowerBreakdown]]:
        """The Table 5 sweep: (toggle, breakdown) pairs."""
        return [
            (toggle, self.estimate(usage, frequency_hz, toggle))
            for toggle in toggle_rates
        ]

"""End-to-end DRM receiver front end as a workload.

The paper motivates the DDC with Digital Radio Mondiale reception on a
multimedia device (``examples/drm_receiver.py`` sketches the scenario: a
crowded shortwave band, several stations, one selected channel).  This
workload generalises that sketch to an ``n_channels``-way receiver — a
diversity/monitoring front end that down-converts several DRM stations
from one ADC stream simultaneously — and asks the paper's question of
it: which architecture hosts *n* channel-selection rails most
efficiently?

Every per-channel rail is exactly the reference DDC
(:meth:`DRMReceiverConfig.ddc_config` derives the per-station
:class:`~repro.config.DDCConfig`), so the architecture models here
compose the in-tree DDC models instead of inventing new constants:

- :class:`DRMARM9Model` — the profiled ARM922T clock requirement, times
  ``n_channels`` (software rails share nothing);
- :class:`DRMCycloneModel` — ``n_channels`` copies of the estimated DDC
  resource footprint on one device, which is where the workload gets
  interesting: the EP1C3 holds exactly one rail, the EP2C5 a few;
- :class:`DRMMontiumModel` — one Montium TP tile per channel (the
  paper's mapping fills a tile), power and area scaling linearly.

All three use the inherited scalar ``implement_batch`` loop, so the
batch == scalar bit-identity contract holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..archs.base import (
    ArchitectureModel,
    Flexibility,
    ImplementationReport,
)
from ..config import DDCConfig, check_finite
from ..errors import ConfigurationError
from .base import Workload

#: Station spacing of the synthesised band: four 24 kHz channel widths,
#: comfortably wider than a 10 kHz DRM signal, so adjacent stations fall
#: well outside each rail's passband.
STATION_SPACING_HZ = 96_000.0


@dataclass(frozen=True)
class DRMReceiverConfig:
    """An ``n_channels``-way DRM channel-selection front end.

    One ADC at ``input_rate_hz`` feeds ``n_channels`` independent DDC
    rails; rail ``k`` is tuned ``k`` station spacings above
    ``nco_frequency_hz``.  The per-rail decimation plan fields mirror
    :class:`~repro.config.DDCConfig` so sweep axes carry over.
    """

    input_rate_hz: float = 64_512_000.0
    n_channels: int = 3
    cic2_decimation: int = 16
    cic5_decimation: int = 21
    fir_decimation: int = 8
    fir_taps: int = 125
    data_width: int = 12
    nco_frequency_hz: float = 10_000_000.0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        # Delegate the per-rail validation (positive decimations, NCO
        # below Nyquist for every station) to DDCConfig itself.
        for k in range(self.n_channels):
            self.ddc_config(k)

    def station_frequencies(self) -> tuple[float, ...]:
        """The tuned carrier of each rail, lowest station first."""
        return tuple(
            self.nco_frequency_hz + k * STATION_SPACING_HZ
            for k in range(self.n_channels)
        )

    def ddc_config(self, channel: int = 0) -> DDCConfig:
        """The per-rail DDC configuration of one tuned channel."""
        if not 0 <= channel < self.n_channels:
            raise ConfigurationError(
                f"channel {channel} out of range 0..{self.n_channels - 1}"
            )
        return DDCConfig(
            input_rate_hz=self.input_rate_hz,
            cic2_decimation=self.cic2_decimation,
            cic5_decimation=self.cic5_decimation,
            fir_decimation=self.fir_decimation,
            fir_taps=self.fir_taps,
            data_width=self.data_width,
            nco_frequency_hz=(
                self.nco_frequency_hz + channel * STATION_SPACING_HZ
            ),
        )

    @property
    def total_decimation(self) -> int:
        return (
            self.cic2_decimation * self.cic5_decimation * self.fir_decimation
        )

    @property
    def output_rate_hz(self) -> float:
        return self.input_rate_hz / self.total_decimation


class DRMARM9Model(ArchitectureModel):
    """GPP: ``n_channels`` profiled software rails on one (fast) core."""

    name = "ARM922T (DRM)"

    def __init__(self) -> None:
        from ..archs.gpp.arm9 import ARM9Model

        self.inner = ARM9Model()

    def supports(self, config: DRMReceiverConfig) -> bool:
        return True

    def implement(self, config: DRMReceiverConfig) -> ImplementationReport:
        # Every rail runs the same instruction mix (only the NCO stride
        # differs), so one analytic profile serves all n channels.
        base = self.inner.implement_batch([config.ddc_config(0)]).report_at(0)
        n = config.n_channels
        clock_hz = base.clock_hz * n
        return ImplementationReport(
            architecture=self.name,
            technology=base.technology,
            clock_hz=clock_hz,
            power_w=base.power_w * n,
            area_mm2=base.area_mm2,
            flexibility=Flexibility.PROGRAMMABLE,
            feasible=clock_hz <= self.inner.spec.max_clock_hz,
            notes=(
                f"{n} software DDC rail(s) at {base.clock_hz / 1e6:.0f} MHz "
                f"each; {self.inner.spec.name} sustains "
                f"{self.inner.spec.max_clock_hz / 1e6:.0f} MHz"
            ),
        )


class DRMCycloneModel(ArchitectureModel):
    """FPGA: ``n_channels`` DDC rail footprints on one Cyclone device."""

    def __init__(self, device=None) -> None:
        from ..archs.fpga.devices import CYCLONE_II_EP2C5
        from ..archs.fpga.power import FPGAPowerModel

        self.device = device if device is not None else CYCLONE_II_EP2C5
        self.power_model = FPGAPowerModel(self.device)
        self.name = (
            f"Altera {self.device.family} {self.device.name} (DRM)"
        )

    def _usage(self, config: DRMReceiverConfig):
        from ..archs.fpga.resources import (
            ResourceUsage,
            estimate_ddc_resources,
        )

        rail = estimate_ddc_resources(self.device, config.ddc_config(0))
        n = config.n_channels
        # n complete rails share the ADC pins and the clock tree only.
        return ResourceUsage(
            logic_elements=rail.logic_elements * n,
            memory_bits=rail.memory_bits * n,
            multipliers_9bit=rail.multipliers_9bit * n,
            pins=rail.pins,
        )

    def supports(self, config: DRMReceiverConfig) -> bool:
        from ..errors import MappingError

        try:
            usage = self._usage(config)
        except (ConfigurationError, MappingError):
            return False
        return (
            usage.fits(self.device)
            and config.input_rate_hz <= self.device.fmax_ddc_hz
        )

    def implement(self, config: DRMReceiverConfig) -> ImplementationReport:
        from ..archs.fpga.resources import require_fit

        usage = self._usage(config)
        require_fit(usage, self.device)
        power = self.power_model.estimate(
            usage, config.input_rate_hz, 0.10, 0.50
        )
        return ImplementationReport(
            architecture=f"Altera {self.device.family} (DRM)",
            technology=self.device.technology,
            clock_hz=config.input_rate_hz,
            power_w=power.total_w,
            area_mm2=None,
            flexibility=Flexibility.RECONFIGURABLE,
            feasible=config.input_rate_hz <= self.device.fmax_ddc_hz,
            notes=(
                f"{config.n_channels} DDC rail(s): {usage.logic_elements} "
                f"LEs, {usage.memory_bits} memory bits, "
                f"{usage.multipliers_9bit} embedded 9-bit multipliers"
            ),
        )


class DRMMontiumModel(ArchitectureModel):
    """Montium: one TP tile per channel, the paper's mapping per tile."""

    name = "Montium TP (DRM)"

    def __init__(self) -> None:
        from ..archs.montium.model import MontiumModel

        self.inner = MontiumModel()

    def supports(self, config: DRMReceiverConfig) -> bool:
        return self.inner.supports(config.ddc_config(0))

    def implement(self, config: DRMReceiverConfig) -> ImplementationReport:
        base = self.inner.implement(config.ddc_config(0))
        n = config.n_channels
        return ImplementationReport(
            architecture=self.name,
            technology=base.technology,
            clock_hz=base.clock_hz,
            power_w=base.power_w * n,
            area_mm2=self.inner.spec.area_mm2 * n,
            flexibility=Flexibility.RECONFIGURABLE,
            feasible=base.feasible,
            notes=f"{n} tile(s), each: {base.notes}",
        )


def drm_receive(
    samples: np.ndarray,
    config: DRMReceiverConfig | None = None,
) -> np.ndarray:
    """Functional reference mapping: demodulate every station.

    Runs the bit-true :class:`~repro.dsp.ddc.FixedDDC` once per rail
    (the GPP realisation of the receiver) and returns the complex
    baseband of each station, shape ``(n_channels, n_out)``.
    """
    from ..dsp.ddc import FixedDDC

    cfg = config if config is not None else DRMReceiverConfig()
    outs = []
    for k in range(cfg.n_channels):
        i, q = FixedDDC(cfg.ddc_config(k)).process(np.asarray(samples))
        outs.append(i.astype(np.float64) + 1j * q.astype(np.float64))
    return np.stack(outs)


class DRMReceiverWorkload(Workload):
    """The multi-channel DRM receiver front end."""

    name = "drm"
    title = "end-to-end multi-channel DRM receiver front end"
    config_cls = DRMReceiverConfig

    def models(self):
        from ..archs.fpga.devices import CYCLONE_I_EP1C3, CYCLONE_II_EP2C5

        return [
            DRMARM9Model(),
            DRMCycloneModel(CYCLONE_I_EP1C3),
            DRMCycloneModel(CYCLONE_II_EP2C5),
            DRMMontiumModel(),
        ]

    def default_explore_axis(self) -> tuple[str, float, float]:
        # The DDC workload's reference span: crossing both Cyclone f_max
        # thresholds moves the FPGA rails in and out of feasibility.
        return ("input_rate_hz", 24_192_000.0, 96_768_000.0)

    def scenario_axes(self) -> Mapping[str, tuple[Any, ...]]:
        # Receiver width: one rail fits the EP1C3, a few fit the EP2C5,
        # the Montium scales a tile at a time, the ARM9 never keeps up.
        return {"n_channels": (1, 2, 3, 4)}

    def population_axes(self) -> Mapping[str, Any]:
        # Most receivers decode a single programme; multi-channel
        # monitoring rigs thin out fast.
        from ..montecarlo.spec import Choice

        return {
            "n_channels": Choice(
                values=(1, 2, 3, 4), weights=(0.55, 0.25, 0.15, 0.05)
            )
        }

    def duty_cycle_distribution(self) -> Any:
        # Bimodal listeners: background/occasional (short news checks)
        # vs programme followers who keep the receiver decoding.
        from ..montecarlo.spec import Mixture, Normal

        return Mixture(
            components=(
                (0.7, Normal(mean=0.08, std=0.05, low=0.0, high=1.0)),
                (0.3, Normal(mean=0.55, std=0.15, low=0.0, high=1.0)),
            )
        )

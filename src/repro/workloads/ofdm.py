"""FFT/OFDM demodulator front end as a workload.

Behind the DDC, a DRM (or DAB) receiver demodulates OFDM symbols: strip
the cyclic prefix, run an ``fft_size``-point FFT, keep the ``carriers``
active bins.  This workload puts that next pipeline stage through the
paper's methodology — the same architectures, the same question of which
one hosts the kernel most efficiently — with costs derived from the
radix-2 butterfly count rather than new magic constants:

- :class:`OFDMARM9Model` — software butterflies on the ARM922T at the
  paper's 0.25 mW/MHz; feasible at low symbol rates, falling over as the
  sample rate grows (the GPP's DDC story in miniature);
- :class:`OFDMCycloneModel` — a single time-shared complex-multiplier
  butterfly engine; the delay/reorder memory is what actually decides
  mappability (the EP1C3's 59 kbit cannot hold a 2k-point FFT);
- :class:`OFDMMontiumModel` — the butterflies spread over the tile's
  five ALUs, bounded by the 10 x 512-word memories.

All models use the inherited scalar ``implement_batch`` loop, so the
batch == scalar bit-identity contract holds by construction.
:func:`ofdm_demodulate` is the functional reference mapping.
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
from ..config import check_finite
from ..errors import ConfigurationError, MappingError
from .base import Workload


@dataclass(frozen=True)
class OFDMDemodConfig:
    """An OFDM symbol demodulator: CP removal + FFT + carrier select.

    The defaults sketch DRM robustness mode A-like numbers at a DAB-ish
    2.048 MS/s complex baseband: 2048-point FFT, 504-sample cyclic
    prefix, 1536 active carriers.
    """

    sample_rate_hz: float = 2_048_000.0
    fft_size: int = 2048
    cp_len: int = 504
    data_width: int = 16
    carriers: int = 1536

    def __post_init__(self) -> None:
        check_finite(self)
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        if self.fft_size < 8 or self.fft_size & (self.fft_size - 1):
            raise ConfigurationError(
                f"fft_size must be a power of two >= 8, got {self.fft_size}"
            )
        if not 0 <= self.cp_len < self.fft_size:
            raise ConfigurationError(
                "cp_len must satisfy 0 <= cp_len < fft_size"
            )
        if not 1 <= self.carriers <= self.fft_size:
            raise ConfigurationError(
                "carriers must satisfy 1 <= carriers <= fft_size"
            )
        if not 8 <= self.data_width <= 32:
            raise ConfigurationError("data_width must be in 8..32")

    @property
    def symbol_len(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cp_len

    @property
    def symbol_rate_hz(self) -> float:
        return self.sample_rate_hz / self.symbol_len

    @property
    def fft_stages(self) -> int:
        return self.fft_size.bit_length() - 1

    @property
    def butterflies_per_symbol(self) -> int:
        """Radix-2 butterfly count: (N/2) * log2(N)."""
        return (self.fft_size // 2) * self.fft_stages


class OFDMARM9Model(ArchitectureModel):
    """GPP: software radix-2 FFT on the ARM922T."""

    name = "ARM922T (OFDM)"

    #: Cycles per radix-2 butterfly on the scalar core: 4 multiplies,
    #: 6 adds/subs, loads/stores — the same order of accounting as the
    #: DDC profiler's inner loops.
    CYCLES_PER_BUTTERFLY = 8

    def __init__(self) -> None:
        from ..archs.gpp.arm9 import ARM922T

        self.spec = ARM922T

    def _clock_hz(self, config: OFDMDemodConfig) -> float:
        cycles = (
            self.CYCLES_PER_BUTTERFLY * config.butterflies_per_symbol
            + 2 * config.symbol_len       # CP strip + sample shuffling
            + 6 * config.carriers          # per-carrier extraction
        )
        return config.symbol_rate_hz * cycles

    def supports(self, config: OFDMDemodConfig) -> bool:
        return True

    def implement(self, config: OFDMDemodConfig) -> ImplementationReport:
        clock_hz = self._clock_hz(config)
        power_w = clock_hz / 1e6 * self.spec.power_mw_per_mhz * 1e-3
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=clock_hz,
            power_w=power_w,
            area_mm2=self.spec.area_mm2,
            flexibility=Flexibility.PROGRAMMABLE,
            feasible=clock_hz <= self.spec.max_clock_hz,
            notes=(
                f"{config.butterflies_per_symbol} butterflies/symbol at "
                f"{config.symbol_rate_hz:.0f} symbols/s, "
                f"{self.CYCLES_PER_BUTTERFLY} cycles each"
            ),
        )


class OFDMCycloneModel(ArchitectureModel):
    """FPGA: one time-shared radix-2 butterfly engine per device."""

    def __init__(self, device=None) -> None:
        from ..archs.fpga.devices import CYCLONE_II_EP2C5
        from ..archs.fpga.power import FPGAPowerModel

        self.device = device if device is not None else CYCLONE_II_EP2C5
        self.power_model = FPGAPowerModel(self.device)
        self.name = (
            f"Altera {self.device.family} {self.device.name} (OFDM)"
        )

    def _usage(self, config: OFDMDemodConfig):
        from ..archs.fpga.resources import _ALPHA_MULT, ResourceUsage

        w = config.data_width
        # One complex multiplier = 4 real w x w products, on embedded
        # 9-bit multiplier blocks where the device has them, in soft
        # logic (the DDC estimator's LEs-per-product-bit slope) where
        # it does not.
        products = 4
        if self.device.multipliers_9bit:
            per_product = max(1, -(-w // 9)) ** 2
            multipliers = products * per_product
            mult_les = 0
        else:
            multipliers = 0
            mult_les = int(round(_ALPHA_MULT * w * w)) * products
        # Butterfly adders + twiddle/stage control, per stage of the
        # time-shared pipeline.
        logic = mult_les + 4 * (w + 2) * config.fft_stages + 200
        # I/Q delay + reorder buffering dominates: two w-bit rails over
        # the symbol, plus the twiddle ROM (N/2 complex factors).
        memory_bits = 2 * w * (config.fft_size - 1) + 2 * w * (
            config.fft_size // 2
        )
        return ResourceUsage(
            logic_elements=logic,
            memory_bits=memory_bits,
            multipliers_9bit=multipliers,
            pins=2 * w + 4,
        )

    def _clock_hz(self, config: OFDMDemodConfig) -> float:
        """The butterfly engine's clock: one butterfly per cycle."""
        return (
            config.symbol_rate_hz * config.butterflies_per_symbol
        )

    def supports(self, config: OFDMDemodConfig) -> bool:
        try:
            usage = self._usage(config)
        except (ConfigurationError, MappingError):
            return False
        return (
            usage.fits(self.device)
            and self._clock_hz(config) <= self.device.fmax_ddc_hz
        )

    def implement(self, config: OFDMDemodConfig) -> ImplementationReport:
        from ..archs.fpga.resources import require_fit

        usage = self._usage(config)
        require_fit(usage, self.device)
        clock_hz = self._clock_hz(config)
        power = self.power_model.estimate(usage, clock_hz, 0.10, 0.50)
        return ImplementationReport(
            architecture=f"Altera {self.device.family} (OFDM)",
            technology=self.device.technology,
            clock_hz=clock_hz,
            power_w=power.total_w,
            area_mm2=None,
            flexibility=Flexibility.RECONFIGURABLE,
            feasible=clock_hz <= self.device.fmax_ddc_hz,
            notes=(
                f"time-shared butterfly: {usage.logic_elements} LEs, "
                f"{usage.memory_bits} memory bits, "
                f"{usage.multipliers_9bit} embedded 9-bit multipliers"
            ),
        )


class OFDMMontiumModel(ArchitectureModel):
    """Montium TP: butterflies spread over the tile's five ALUs."""

    name = "Montium TP (OFDM)"

    #: The tile keeps real-time FFTs up to this clock (the DDC mapping
    #: runs the tile at the 64.5 MHz sample rate; 100 MHz is the
    #: device's design corner).
    MAX_CLOCK_HZ = 100e6

    def __init__(self) -> None:
        from ..archs.montium.model import MONTIUM_SPEC

        self.spec = MONTIUM_SPEC

    def _check_memories(self, config: OFDMDemodConfig) -> None:
        words = (
            self.spec.n_alus
            * self.spec.memories_per_alu
            * self.spec.memory_words
        )
        if config.fft_size > words:
            raise MappingError(
                f"{config.fft_size}-point FFT exceeds the tile's "
                f"{words} memory words"
            )

    def _clock_hz(self, config: OFDMDemodConfig) -> float:
        # 2 ALU ops per butterfly (complex MAC pair) + per-carrier
        # extraction, spread over the five ALUs.
        cycles = 2 * config.butterflies_per_symbol + config.carriers
        return config.symbol_rate_hz * cycles / self.spec.n_alus

    def supports(self, config: OFDMDemodConfig) -> bool:
        try:
            self._check_memories(config)
        except MappingError:
            return False
        return self._clock_hz(config) <= self.MAX_CLOCK_HZ

    def implement(self, config: OFDMDemodConfig) -> ImplementationReport:
        self._check_memories(config)
        clock_hz = self._clock_hz(config)
        power_w = clock_hz / 1e6 * self.spec.power_mw_per_mhz * 1e-3
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=clock_hz,
            power_w=power_w,
            area_mm2=self.spec.area_mm2,
            flexibility=Flexibility.RECONFIGURABLE,
            feasible=clock_hz <= self.MAX_CLOCK_HZ,
            notes=(
                f"{config.butterflies_per_symbol} butterflies/symbol over "
                f"{self.spec.n_alus} ALUs; 0.6 mW/MHz measured constant"
            ),
        )


def ofdm_demodulate(
    samples: np.ndarray,
    config: OFDMDemodConfig | None = None,
) -> np.ndarray:
    """Functional reference mapping: CP strip + FFT + carrier select.

    ``samples`` is complex baseband; whole symbols only (a trailing
    partial symbol is dropped).  Returns shape ``(n_symbols, carriers)``
    with the active carriers taken symmetrically about DC (the DRM/DAB
    layout: negative bins last in FFT order).
    """
    cfg = config if config is not None else OFDMDemodConfig()
    x = np.asarray(samples)
    n_symbols = len(x) // cfg.symbol_len
    if n_symbols == 0:
        return np.empty((0, cfg.carriers), dtype=np.complex128)
    x = x[: n_symbols * cfg.symbol_len].reshape(n_symbols, cfg.symbol_len)
    spectrum = np.fft.fft(x[:, cfg.cp_len :], axis=1)
    half = cfg.carriers // 2
    upper = spectrum[:, 1 : cfg.carriers - half + 1]
    lower = spectrum[:, cfg.fft_size - half :]
    return np.concatenate([upper, lower], axis=1)


class OFDMDemodWorkload(Workload):
    """The FFT/OFDM demodulator front end."""

    name = "ofdm"
    title = "FFT/OFDM demodulator front end (DRM/DAB symbol recovery)"
    config_cls = OFDMDemodConfig

    def models(self):
        from ..archs.fpga.devices import CYCLONE_I_EP1C3, CYCLONE_II_EP2C5

        return [
            OFDMARM9Model(),
            OFDMCycloneModel(CYCLONE_I_EP1C3),
            OFDMCycloneModel(CYCLONE_II_EP2C5),
            OFDMMontiumModel(),
        ]

    def default_explore_axis(self) -> tuple[str, float, float]:
        # Spans the ARM9's real-time threshold (it keeps up at DAB-like
        # rates, not at several MS/s) while the fabrics stay feasible.
        return ("sample_rate_hz", 1_024_000.0, 9_216_000.0)

    def scenario_axes(self) -> Mapping[str, tuple[Any, ...]]:
        # FFT length: 2048 fits the EP2C5 and the tile, 4096 only the
        # tile, 8192 only software — each value keeps >= 1 architecture
        # feasible with the default 1536 carriers.
        return {"fft_size": (2048, 4096, 8192)}

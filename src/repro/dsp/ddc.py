"""The reference Digital Down Converter (paper Section 2, Fig. 1, Table 1).

Two complete implementations of the chain

``NCO/mixer -> CIC2 (D=16) -> CIC5 (D=21) -> 125-tap FIR (D=8)``

are provided:

:class:`DDC`
    The floating-point gold model.  The mixer is driven by a configurable
    :class:`~repro.dsp.nco.NCO`; the filters run in float64.  This model
    defines *correct* DDC output for the entire repository — every hardware
    model is validated against it.

:class:`FixedDDC`
    The bit-true integer model with the paper's FPGA word lengths: 12-bit
    data buses between stages, integer sin/cos LUT, wrapping CIC
    arithmetic, 31-bit FIR accumulator with saturating 12-bit output.  The
    FPGA RTL simulation must agree with this model bit-for-bit.

Both are streaming blocks (state carries across ``process`` calls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DDCConfig, REFERENCE_DDC
from ..errors import ConfigurationError
from ..fixedpoint import QFormat, quantize, saturate
from ..fixedpoint.ops import Rounding
from .cic import CICDecimator, FixedCICDecimator
from .fir import FixedPolyphaseDecimator, PolyphaseDecimator
from .firdesign import quantize_taps, reference_fir_taps
from .mixer import Mixer
from .nco import NCO, NCOMode


@dataclass
class DDCResult:
    """Output of a DDC run: complex baseband plus optional intermediates."""

    baseband: np.ndarray
    cic2_out: np.ndarray | None = None
    cic5_out: np.ndarray | None = None

    @property
    def i(self) -> np.ndarray:
        """In-phase rail."""
        return self.baseband.real

    @property
    def q(self) -> np.ndarray:
        """Quadrature rail."""
        return self.baseband.imag


class ComplexCIC:
    """Pair of real CIC decimators forming one complex stage.

    The paper runs two identical real rails (I and Q, Fig. 1); by linearity
    this equals one complex filter, which is how the gold model composes.
    """

    def __init__(self, order: int, decimation: int) -> None:
        self.order = order
        self.decimation = decimation
        self.re = CICDecimator(order, decimation)
        self.im = CICDecimator(order, decimation)

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter + decimate a complex block."""
        return self.re.process(np.real(x)) + 1j * self.im.process(np.imag(x))

    def reset(self) -> None:
        """Reset both rails."""
        self.re.reset()
        self.im.reset()


class DDC:
    """Floating-point reference DDC (gold model).

    Parameters
    ----------
    config:
        Chain configuration; defaults to the paper's Table 1 reference.
    fir_taps:
        Final-filter coefficients; defaults to
        :func:`~repro.dsp.firdesign.reference_fir_taps`.
    nco_mode, lut_addr_bits, nco_amplitude_bits:
        Forwarded to the :class:`~repro.dsp.nco.NCO`; by default a
        4096-entry full-precision LUT.
    """

    def __init__(
        self,
        config: DDCConfig = REFERENCE_DDC,
        fir_taps: np.ndarray | None = None,
        nco_mode: NCOMode = NCOMode.LUT,
        lut_addr_bits: int = 12,
        nco_amplitude_bits: int | None = None,
    ) -> None:
        self.config = config
        if fir_taps is None:
            fir_rate = config.input_rate_hz / (
                config.cic2_decimation * config.cic5_decimation
            )
            fir_taps = reference_fir_taps(
                config.fir_taps, fir_rate, config.output_rate_hz
            )
        self.fir_taps = np.asarray(fir_taps, dtype=np.float64)
        self.nco = NCO(
            sample_rate_hz=config.input_rate_hz,
            frequency_hz=config.nco_frequency_hz,
            mode=nco_mode,
            lut_addr_bits=lut_addr_bits,
            amplitude_bits=nco_amplitude_bits,
        )
        self.mixer = Mixer(self.nco)
        self.cic2: ComplexCIC | None = (
            ComplexCIC(config.cic2_order, config.cic2_decimation)
            if config.cic2_order > 0 and config.cic2_decimation > 1
            else None
        )
        self.cic5 = ComplexCIC(config.cic5_order, config.cic5_decimation)
        self.fir = PolyphaseDecimator(self.fir_taps, config.fir_decimation)

    @property
    def total_decimation(self) -> int:
        """Overall rate change of the chain."""
        return self.config.total_decimation

    def reset(self) -> None:
        """Reset every stage, including NCO phase."""
        self.nco.reset()
        if self.cic2 is not None:
            self.cic2.reset()
        self.cic5.reset()
        self.fir.reset()

    def process(self, x: np.ndarray, keep_intermediates: bool = False) -> DDCResult:
        """Down-convert one block of real input samples."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ConfigurationError("DDC input must be one-dimensional")
        stage = self.mixer.process(x)
        cic2_out = None
        if self.cic2 is not None:
            stage = self.cic2.process(stage)
            cic2_out = stage.copy() if keep_intermediates else None
        stage = self.cic5.process(stage)
        cic5_out = stage.copy() if keep_intermediates else None
        baseband = self.fir.process(stage)
        return DDCResult(baseband, cic2_out, cic5_out)


class FixedDDC:
    """Bit-true DDC with the paper's FPGA word lengths.

    Input: raw integers from a ``data_width``-bit ADC.  Output: raw 12-bit
    complex baseband (I, Q integer pair).

    Data path (per rail):

    1. multiply the 12-bit sample by the 12-bit LUT sin/cos (Q11), keep the
       top 12 bits — the mixer of Fig. 1;
    2. CIC2: wrap-around integrators at 20-bit internal width
       (12 + 2*log2(16)), truncate to 12 bits;
    3. CIC5: internal width 12 + ceil(5*log2(21)) = 34 bits, truncate to 12;
    4. polyphase FIR: 12x12 MACs into a 31-bit accumulator, truncate +
       saturate to 12 bits (Fig. 5's quantiser).
    """

    def __init__(
        self,
        config: DDCConfig = REFERENCE_DDC,
        fir_taps: np.ndarray | None = None,
        lut_addr_bits: int = 10,
    ) -> None:
        self.config = config
        self.data_width = config.data_width
        self._amp_fmt = QFormat(self.data_width, self.data_width - 1)
        self.nco = NCO(
            sample_rate_hz=config.input_rate_hz,
            frequency_hz=config.nco_frequency_hz,
            mode=NCOMode.LUT,
            lut_addr_bits=lut_addr_bits,
            amplitude_bits=self.data_width,
        )
        if fir_taps is None:
            fir_rate = config.input_rate_hz / (
                config.cic2_decimation * config.cic5_decimation
            )
            fir_taps = reference_fir_taps(
                config.fir_taps, fir_rate, config.output_rate_hz
            )
        self.fir_taps_raw, self.fir_tap_fmt = quantize_taps(
            fir_taps, self.data_width
        )
        self._make_stages()

    def _make_stages(self) -> None:
        cfg = self.config
        w = self.data_width

        def make_cic(order: int, decimation: int) -> FixedCICDecimator | None:
            if order == 0 or decimation == 1:
                return None
            return FixedCICDecimator(order, decimation, input_width=w)

        self.cic2_i = make_cic(cfg.cic2_order, cfg.cic2_decimation)
        self.cic2_q = make_cic(cfg.cic2_order, cfg.cic2_decimation)
        self.cic5_i = FixedCICDecimator(
            cfg.cic5_order, cfg.cic5_decimation, input_width=w
        )
        self.cic5_q = FixedCICDecimator(
            cfg.cic5_order, cfg.cic5_decimation, input_width=w
        )
        shift = max(0, self.fir_tap_fmt.frac)
        self.fir_i = FixedPolyphaseDecimator(
            self.fir_taps_raw, cfg.fir_decimation, data_width=w,
            coeff_width=self.fir_tap_fmt.width, output_shift=shift,
        )
        self.fir_q = FixedPolyphaseDecimator(
            self.fir_taps_raw, cfg.fir_decimation, data_width=w,
            coeff_width=self.fir_tap_fmt.width, output_shift=shift,
        )

    def reset(self) -> None:
        """Reset all stage state and NCO phase."""
        self.nco.reset()
        for stage in (
            self.cic2_i, self.cic2_q, self.cic5_i, self.cic5_q,
            self.fir_i, self.fir_q,
        ):
            if stage is not None:
                stage.reset()

    def lut_raw(self) -> np.ndarray:
        """The NCO's sine table as raw integers (fills hardware ROMs)."""
        assert self.nco._lut is not None
        return np.round(self.nco._lut / self._amp_fmt.scale).astype(np.int64)

    def process(
        self, x_raw: np.ndarray, engine: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Down-convert raw integer ADC samples; returns raw (I, Q).

        ``engine`` selects the kernel tier (``python``/``fused``;
        ``None`` = the ``REPRO_KERNELS`` default).  The non-python tiers
        run the whole chain as one fused end-to-end kernel — integer-LUT
        mixer, fused CIC rails, strided FIR — bit-identical to the
        stage-by-stage oracle below.
        """
        from ..kernels import dispatch as _dispatch

        tier = _dispatch.resolve("fixed_ddc", engine)
        if tier != "python":
            return _dispatch.kernel("fixed_ddc", tier)(self, x_raw)
        return self._process_python(x_raw)

    def _process_python(
        self, x_raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The oracle tier: per-stage processing with float LUT staging."""
        x_raw = np.asarray(x_raw)
        if not np.issubdtype(x_raw.dtype, np.integer):
            raise ConfigurationError("FixedDDC input must be raw integers")
        x_raw = x_raw.astype(np.int64, copy=False)
        in_fmt = QFormat(self.data_width, 0)
        if x_raw.size and (
            int(x_raw.max()) > in_fmt.max_raw or int(x_raw.min()) < in_fmt.min_raw
        ):
            raise ConfigurationError(f"input sample out of {in_fmt} range")

        cos_f, sin_f = self.nco.generate(len(x_raw), engine="python")
        # LUT values are already quantised floats on the amplitude grid;
        # recover their raw integers exactly.
        cos_raw = np.round(cos_f / self._amp_fmt.scale).astype(np.int64)
        sin_raw = np.round(sin_f / self._amp_fmt.scale).astype(np.int64)

        # Mixer: 12x12 -> 24-bit product, truncate back to the 12-bit bus.
        shift = self.data_width - 1
        i_mixed = saturate(
            quantize(x_raw * cos_raw, shift, Rounding.TRUNCATE), in_fmt
        )
        q_mixed = saturate(
            quantize(-(x_raw * sin_raw), shift, Rounding.TRUNCATE), in_fmt
        )

        i_s, q_s = i_mixed, q_mixed
        if self.cic2_i is not None and self.cic2_q is not None:
            i_s = self.cic2_i.process(i_s, engine="python")
            q_s = self.cic2_q.process(q_s, engine="python")
        i_s = self.cic5_i.process(i_s, engine="python")
        q_s = self.cic5_q.process(q_s, engine="python")
        i_out = self.fir_i.process(i_s, engine="python")
        q_out = self.fir_q.process(q_s, engine="python")
        return i_out, q_out

    def process_to_float(self, x_raw: np.ndarray) -> np.ndarray:
        """Down-convert and scale the raw I/Q output to +-1.0 floats."""
        i_out, q_out = self.process(x_raw)
        scale = 2.0 ** -(self.data_width - 1)
        return (i_out + 1j * q_out) * scale

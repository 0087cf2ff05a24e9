"""Numerically Controlled Oscillator (NCO).

Section 2.1: "This component produces a sine and cosine signal.  The NCO
calculates these values, e.g. by Taylor series, or reading from a look-up
table."

Both evaluation strategies are implemented behind one phase-accumulator
front end:

- ``NCOMode.LUT`` — a table of ``2**lut_addr_bits`` samples, optionally
  exploiting quarter-wave symmetry so only a quarter sine is stored (this is
  what the FPGA and Montium implementations do: "the values for the sine and
  cosine are stored in the local memories");
- ``NCOMode.TAYLOR`` — polynomial evaluation around the nearest table-free
  grid point, the alternative the paper mentions for the ASIC/GPP.

The phase accumulator is a ``phase_bits``-wide unsigned integer that
advances by a frequency control word each sample; its top ``lut_addr_bits``
bits address the table.  This is the standard DDS structure, and the
spurious-free dynamic range (SFDR) it achieves is measured in
``tests/test_nco_mixer.py`` and the NCO ablation in ``tests/test_ablations.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..config import check_finite
from ..errors import ConfigurationError
from ..fixedpoint import QFormat, to_fixed


class NCOMode(enum.Enum):
    """Sin/cos evaluation strategy (Section 2.1 offers both)."""

    LUT = "lut"
    TAYLOR = "taylor"


@dataclass
class NCO:
    """Phase-accumulator NCO producing paired cosine and sine streams.

    Parameters
    ----------
    sample_rate_hz:
        Rate at which the oscillator is clocked (64.512 MHz in the paper).
    frequency_hz:
        Output frequency.
    phase_bits:
        Width of the phase accumulator (default 32).
    lut_addr_bits:
        log2 of the LUT length used in LUT mode (default 10 → 1024 entries).
    amplitude_bits:
        If not ``None``, LUT entries are quantised to this word length
        (signed); models the 12-/16-bit tables of the hardware targets.
    mode:
        LUT or Taylor evaluation.
    taylor_order:
        Polynomial order for Taylor mode (default 3).
    quarter_wave:
        Store only a quarter sine and reconstruct by symmetry (LUT mode).
    """

    sample_rate_hz: float
    frequency_hz: float
    phase_bits: int = 32
    lut_addr_bits: int = 10
    amplitude_bits: int | None = None
    mode: NCOMode = NCOMode.LUT
    taylor_order: int = 3
    quarter_wave: bool = False
    _phase_acc: int = field(default=0, repr=False)
    _fcw: int = field(default=0, repr=False)
    _lut: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_finite(self)
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        if not 4 <= self.phase_bits <= 48:
            raise ConfigurationError("phase_bits must be in 4..48")
        if not 2 <= self.lut_addr_bits <= 20:
            raise ConfigurationError("lut_addr_bits must be in 2..20")
        if self.amplitude_bits is not None and not 2 <= self.amplitude_bits <= 32:
            raise ConfigurationError("amplitude_bits must be in 2..32")
        if self.taylor_order < 1:
            raise ConfigurationError("taylor_order must be >= 1")
        if abs(self.frequency_hz) > self.sample_rate_hz / 2:
            raise ConfigurationError("frequency_hz must be below Nyquist")
        self._fcw = self._frequency_to_fcw(self.frequency_hz)
        if self.mode is NCOMode.LUT:
            self._lut = self._build_lut()

    # ------------------------------------------------------------ internals
    def _frequency_to_fcw(self, freq_hz: float) -> int:
        fcw = round(freq_hz / self.sample_rate_hz * (1 << self.phase_bits))
        return fcw % (1 << self.phase_bits)

    def _build_lut(self) -> np.ndarray:
        n = 1 << self.lut_addr_bits
        if self.quarter_wave:
            # Quarter sine on n/4 points, sampled at bin centres so the
            # reconstruction by symmetry has no duplicated end points.
            quarter = np.sin(2 * np.pi * (np.arange(n // 4) + 0.5) / n)
            table = np.concatenate(
                [quarter, quarter[::-1], -quarter, -quarter[::-1]]
            )
        else:
            table = np.sin(2 * np.pi * (np.arange(n) + 0.5) / n)
        if self.amplitude_bits is not None:
            fmt = QFormat(self.amplitude_bits, self.amplitude_bits - 1)
            table = to_fixed(table, fmt).astype(np.float64) * fmt.scale
        return table

    # --------------------------------------------------------------- tuning
    @property
    def actual_frequency_hz(self) -> float:
        """Frequency actually produced after FCW rounding."""
        fcw = self._fcw
        half = 1 << (self.phase_bits - 1)
        if fcw >= half:
            fcw -= 1 << self.phase_bits
        return fcw / (1 << self.phase_bits) * self.sample_rate_hz

    def reset(self) -> None:
        """Reset the phase accumulator to zero."""
        self._phase_acc = 0

    # ------------------------------------------------------------ generation
    def phases(self, n: int) -> np.ndarray:
        """Advance the accumulator ``n`` steps; return raw phase words.

        The returned array holds the accumulator value *before* each step,
        i.e. the phase used for sample ``i``.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        modulus = 1 << self.phase_bits
        steps = (self._phase_acc + self._fcw * np.arange(n, dtype=np.int64)) % modulus
        self._phase_acc = int((self._phase_acc + self._fcw * n) % modulus)
        return steps

    def generate(
        self, n: int, engine: str = "fused"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Produce ``n`` samples of (cos, sin).

        The streams are phase-coherent: repeated calls continue where the
        previous call stopped, which the streaming DDC relies on.

        ``engine`` selects the kernel tier (``python``/``fused``), both
        bit-identical; only LUT mode has a fused kernel.
        """
        from .. import kernels

        lut = self.mode is NCOMode.LUT and self.phase_bits >= self.lut_addr_bits
        if kernels.dispatch("nco", engine, fused=lut):
            from ..kernels.fused import nco_generate

            return nco_generate(self, n)
        phase_words = self.phases(n)
        if self.mode is NCOMode.LUT:
            assert self._lut is not None
            index = (phase_words >> (self.phase_bits - self.lut_addr_bits)).astype(
                np.int64
            )
            n_lut = 1 << self.lut_addr_bits
            sin_v = self._lut[index]
            cos_v = self._lut[(index + n_lut // 4) % n_lut]
            return cos_v, sin_v
        # Taylor mode: evaluate sin/cos of the exact accumulator phase with a
        # truncated series around the nearest multiple of pi/2 (range
        # reduction keeps |x| <= pi/4 so low orders converge fast).
        theta = phase_words.astype(np.float64) / (1 << self.phase_bits) * 2 * np.pi
        sin_v = _taylor_sin(theta, self.taylor_order)
        cos_v = _taylor_sin(theta + np.pi / 2, self.taylor_order)
        if self.amplitude_bits is not None:
            fmt = QFormat(self.amplitude_bits, self.amplitude_bits - 1)
            sin_v = to_fixed(sin_v, fmt).astype(np.float64) * fmt.scale
            cos_v = to_fixed(cos_v, fmt).astype(np.float64) * fmt.scale
        return cos_v, sin_v

    def generate_complex(self, n: int, engine: str = "fused") -> np.ndarray:
        """Produce ``exp(-j*2*pi*f*t)`` for down-conversion: ``cos - j*sin``."""
        cos_v, sin_v = self.generate(n, engine=engine)
        return cos_v - 1j * sin_v


def _taylor_sin(theta: np.ndarray, order: int) -> np.ndarray:
    """Sine via range reduction to [-pi/4, pi/4] + truncated Taylor series.

    ``order`` counts the highest polynomial degree pair retained: order 1
    keeps ``x``; order 2 keeps ``x - x^3/6``; and so on.  Cosine of the
    reduced argument uses the matching even series.
    """
    two_pi = 2 * np.pi
    theta = np.mod(theta, two_pi)
    # Which quadrant: k = round(theta / (pi/2)); the residual must use the
    # *unwrapped* k so that x stays in [-pi/4, pi/4] even for theta ~ 2*pi.
    k_raw = np.round(theta / (np.pi / 2)).astype(np.int64)
    x = theta - k_raw * (np.pi / 2)
    k = k_raw % 4

    sin_x = np.zeros_like(x)
    cos_x = np.zeros_like(x)
    term_s = x.copy()
    term_c = np.ones_like(x)
    x2 = x * x
    for m in range(order):
        sin_x += term_s
        cos_x += term_c
        # next odd/even Taylor terms
        term_s = -term_s * x2 / ((2 * m + 2) * (2 * m + 3))
        term_c = -term_c * x2 / ((2 * m + 1) * (2 * m + 2))

    # sin(theta) by quadrant identity
    out = np.where(
        k == 0, sin_x, np.where(k == 1, cos_x, np.where(k == 2, -sin_x, -cos_x))
    )
    return out

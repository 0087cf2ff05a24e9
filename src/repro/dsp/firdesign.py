"""FIR coefficient design for the DDC's final filter stage.

The paper fixes the final filter at 125 taps (124 on the FPGA) but does not
publish the coefficients, so this module provides the designs a DDC
implementer would choose from:

- :func:`design_kaiser_lowpass` — Kaiser window from an attenuation spec;
- :func:`design_cic_compensator` — lowpass with inverse-CIC droop shaping in
  the passband, the textbook choice after a CIC chain whose "drawback ... is
  their sub-optimal frequency attenuation" (Section 2.1);
- :func:`reference_fir_taps` — the 125-tap filter used throughout this
  reproduction (frequency sampling with a Hamming window and CIC5 droop
  compensation, cut for the 24 kHz output band).

:func:`quantize_taps` converts any design to the 12-bit ROM contents of the
FPGA implementation (Fig. 5).  Only :func:`design_kaiser_lowpass` imports
scipy, inside its body, so ``import repro`` never loads it.
"""

from __future__ import annotations

from math import ceil, log

import numpy as np

from ..errors import ConfigurationError
from ..fixedpoint import QFormat, to_fixed
from .response import cic_response

# scipy builds Hamming as (alpha, 1 - alpha); 1 - 0.54 != 0.46 in binary.
HAMMING = (0.54, 1.0 - 0.54)
BLACKMAN_HARRIS = (0.35875, 0.48829, 0.14128, 0.01168)


def cosine_window(M: int, coeffs: tuple[float, ...]) -> np.ndarray:
    """Symmetric generalised cosine window ``sum_k a_k cos(k x)``.

    Bit-identical to ``scipy.signal.windows.general_cosine(M, coeffs)``
    (``HAMMING`` gives ``windows.hamming``, ``BLACKMAN_HARRIS``
    ``windows.blackmanharris``).
    """
    if M <= 1:
        return np.ones(M)
    fac = np.linspace(-np.pi, np.pi, M)
    w = np.zeros(M)
    for k, a in enumerate(coeffs):
        w += a * np.cos(k * fac)
    return w


def _check_taps(num_taps: int) -> None:
    if not isinstance(num_taps, int) or num_taps < 1:
        raise ConfigurationError(f"num_taps must be a positive int, got {num_taps!r}")


def _firwin2(
    numtaps: int, freq: np.ndarray, gain: np.ndarray, fs: float
) -> np.ndarray:
    """Type-I Hamming-window ``scipy.signal.firwin2``, bit for bit.

    ``numtaps`` is odd and ``freq`` runs strictly increasing from 0 to
    ``fs / 2``; the caller guarantees both.
    """
    nyq = 0.5 * fs
    x = np.linspace(0.0, nyq, 1 + 2 ** int(ceil(log(numtaps, 2))))
    fx = np.interp(x, freq, gain)
    shift = np.exp(-(numtaps - 1) / 2.0 * 1j * np.pi * x / nyq)
    return np.fft.irfft(fx * shift)[:numtaps] * cosine_window(numtaps, HAMMING)


def design_kaiser_lowpass(
    num_taps: int,
    cutoff_hz: float,
    sample_rate_hz: float,
    attenuation_db: float = 60.0,
) -> np.ndarray:
    """Kaiser-window lowpass with the beta implied by ``attenuation_db``."""
    from scipy import signal

    _check_taps(num_taps)
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigurationError("cutoff must be in (0, Nyquist)")
    if attenuation_db <= 0:
        raise ConfigurationError("attenuation_db must be positive")
    beta = signal.kaiser_beta(attenuation_db)
    taps = signal.firwin(
        num_taps, cutoff_hz, fs=sample_rate_hz, window=("kaiser", beta),
        pass_zero=True,
    )
    return taps / taps.sum()


def design_cic_compensator(
    num_taps: int,
    cutoff_hz: float,
    sample_rate_hz: float,
    cic_order: int,
    cic_decimation: int,
    cic_input_rate_hz: float,
    diff_delay: int = 1,
    grid_points: int = 512,
) -> np.ndarray:
    """Lowpass whose passband boosts the inverse of the preceding CIC droop.

    Designed by frequency sampling with a Hamming window (:func:`_firwin2`,
    the in-tree port of ``scipy.signal.firwin2``, pinned to scipy bit for
    bit by the tests): below ``cutoff_hz`` the target gain is
    ``1 / |H_cic(f)|`` (normalised to 1 at DC), above it the target is 0.
    This flattens the cascade passband — the role of the paper's 125-tap
    FIR after the CIC2/CIC5 pair.
    """
    _check_taps(num_taps)
    if num_taps % 2 == 0:
        raise ConfigurationError("compensator design requires an odd tap count")
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigurationError("cutoff must be in (0, Nyquist)")
    freqs = np.linspace(0.0, sample_rate_hz / 2, grid_points)
    cic_mag = np.abs(
        cic_response(freqs, cic_order, cic_decimation, cic_input_rate_hz,
                     diff_delay=diff_delay, normalize=True)
    )
    cic_mag = np.maximum(cic_mag, 1e-6)
    gains = np.where(freqs <= cutoff_hz, 1.0 / cic_mag, 0.0)
    # Smooth the brick edge one grid step to keep firwin2 well conditioned.
    edge = np.searchsorted(freqs, cutoff_hz)
    if 0 < edge < grid_points - 1:
        gains[edge] = gains[max(edge - 1, 0)] / 2
    taps = _firwin2(num_taps, freqs, gains, sample_rate_hz)
    dc = taps.sum()
    if abs(dc) < 1e-12:
        raise ConfigurationError("designed filter has zero DC gain")
    return taps / dc


def reference_fir_taps(
    num_taps: int = 125,
    sample_rate_hz: float = 192_000.0,
    output_rate_hz: float = 24_000.0,
    compensate_cic5: bool = True,
) -> np.ndarray:
    """The 125-tap FIR used by this reproduction's reference DDC.

    Passband is the DRM-friendly ±output_rate/2 * 0.8 (9.6 kHz for the
    24 kHz output), with CIC5 droop compensation enabled by default.
    """
    cutoff = output_rate_hz / 2 * 0.8
    if compensate_cic5:
        return design_cic_compensator(
            num_taps if num_taps % 2 else num_taps - 1,
            cutoff,
            sample_rate_hz,
            cic_order=5,
            cic_decimation=21,
            cic_input_rate_hz=sample_rate_hz * 21,
        )
    return design_kaiser_lowpass(num_taps, cutoff, sample_rate_hz, 70.0)


def quantize_taps(
    taps: np.ndarray, width: int = 12, frac_bits: int | None = None
) -> tuple[np.ndarray, QFormat]:
    """Quantise float taps into signed ``width``-bit raw integers.

    Chooses ``frac_bits`` so the largest tap uses the full scale (unless
    given), returning the raw integer array and the format.  This fills the
    coefficient ROM of the FPGA polyphase FIR.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.size == 0:
        raise ConfigurationError("taps must be non-empty")
    if frac_bits is None:
        peak = np.abs(taps).max()
        if peak == 0:
            raise ConfigurationError("all-zero taps cannot be quantised")
        # Largest value representable is (2**(w-1)-1) * 2**-f; pick max f
        # with peak <= that bound.
        frac_bits = width - 1
        while frac_bits > -32 and peak > (2 ** (width - 1) - 1) * 2.0 ** (-frac_bits):
            frac_bits -= 1
    fmt = QFormat(width, frac_bits)
    raw = to_fixed(taps, fmt)
    return raw, fmt

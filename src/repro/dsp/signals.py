"""Synthetic stimuli for the DDC.

The paper evaluates with *no* recorded RF data: the FPGA power estimate
assumes "input bit toggling ... 50 %, which corresponds to random data", and
the motivating workloads are DRM / DAB radio and GSM.  This module provides
the corresponding synthetic equivalents:

- :func:`tone` — a deterministic test tone;
- :func:`white_noise` — the 50 %-toggle "random data" stimulus;
- :func:`drm_like_ofdm` — an OFDM multicarrier burst with DRM robustness-
  mode-B-like numerology, centred on a tunable carrier: the workload the
  reference DDC is configured for;
- :func:`gsm_like_burst` — a GMSK-approximating constant-envelope burst at
  GSM symbol rate: the workload of the GC4016 datasheet example;
- :func:`quantize_to_adc` — quantise any float stimulus to the raw integer
  samples an ``n``-bit AD-converter would deliver.

All generators take an explicit ``rng`` or ``seed`` so experiments are
reproducible.
"""

from __future__ import annotations

import numpy as np

from ..config import check_finite_array
from ..errors import ConfigurationError
from ..fixedpoint import QFormat, to_fixed

#: Samples per block of :func:`drm_like_ofdm`'s angle-addition synthesis.
_BLOCK = 1024


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def tone(
    n: int, freq_hz: float, sample_rate_hz: float,
    amplitude: float = 1.0, phase: float = 0.0,
) -> np.ndarray:
    """Real cosine tone."""
    _check(n, sample_rate_hz)
    t = np.arange(n) / sample_rate_hz
    return amplitude * np.cos(2 * np.pi * freq_hz * t + phase)


def white_noise(
    n: int, rms: float = 0.25, seed: int | np.random.Generator | None = None
) -> np.ndarray:
    """Gaussian white noise; the '50 % toggle random data' stimulus."""
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    return _rng(seed).normal(0.0, rms, n)


def drm_like_ofdm(
    n: int,
    sample_rate_hz: float,
    carrier_hz: float,
    bandwidth_hz: float = 10_000.0,
    n_subcarriers: int = 206,
    rms: float = 0.2,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """DRM-like OFDM multicarrier signal centred at ``carrier_hz``.

    DRM robustness mode B uses 206 active subcarriers in a ~10 kHz channel;
    we synthesise QPSK symbols on that grid and mix the baseband multicarrier
    up to the carrier.  The result is a *real* passband signal as the
    AD-converter would deliver.

    Subcarrier ``k`` is the cosine ``cos(w_k i + phase_k)`` at
    ``carrier_hz + offset_k``.  Splitting each sample index as
    ``i = b B + r`` (``B = _BLOCK``), angle addition turns the sum over
    subcarriers into one contraction of block heads
    ``[cos, -sin](w_k b B + phase_k)`` with in-block steps
    ``[cos; sin](w_k r)``, so only ~``K (n / B + B)`` sines and cosines are
    evaluated.  ``np.einsum(optimize=False)`` reduces in a fixed order
    without BLAS.  Contract: the same signal as the direct per-subcarrier
    sum of complex exponentials to ~1e-10 absolute, the same
    ``rng.integers(0, 4, n_subcarriers)`` draws, and output bits that do
    not depend on the BLAS thread count.
    """
    _check(n, sample_rate_hz)
    if not 0 < carrier_hz < sample_rate_hz / 2:
        raise ConfigurationError("carrier must be in (0, Nyquist)")
    if n_subcarriers < 1:
        raise ConfigurationError("n_subcarriers must be >= 1")
    if not 0 < bandwidth_hz < np.inf:
        raise ConfigurationError(
            f"bandwidth_hz must be positive and finite, got {bandwidth_hz!r}")
    if not 0 <= rms < np.inf:
        raise ConfigurationError(f"rms must be >= 0 and finite, got {rms!r}")
    rng = _rng(seed)
    spacing = bandwidth_hz / n_subcarriers
    offsets = (np.arange(n_subcarriers) - (n_subcarriers - 1) / 2) * spacing
    # QPSK symbol per subcarrier, constant over the block (one OFDM symbol).
    phases = rng.integers(0, 4, n_subcarriers) * (np.pi / 2) + np.pi / 4
    if n == 0:
        return np.zeros(0)
    w = 2 * np.pi * (carrier_hz + offsets) / sample_rate_hz
    heads = np.outer(np.arange(0, n, _BLOCK), w) + phases
    steps = np.outer(w, np.arange(min(n, _BLOCK)))
    passband = np.einsum(
        "bk,kr->br", np.hstack([np.cos(heads), -np.sin(heads)]),
        np.vstack([np.cos(steps), np.sin(steps)]), optimize=False,
    ).ravel()[:n]
    current_rms = np.sqrt(np.mean(passband**2)) or 1.0
    return passband * (rms / current_rms)


def gsm_like_burst(
    n: int,
    sample_rate_hz: float,
    carrier_hz: float,
    symbol_rate_hz: float = 270_833.0,
    amplitude: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Constant-envelope GMSK-like burst (the GC4016 GSM example workload).

    GMSK is approximated as MSK with a Gaussian-smoothed phase ramp: random
    bits drive +-pi/2 phase increments per symbol, smoothed over 3 symbols
    (BT~0.3), then mixed to the carrier.  The constant envelope and the
    270.833 kHz symbol rate are the properties that matter for exercising
    the DDC.
    """
    _check(n, sample_rate_hz)
    if not 0 < carrier_hz < sample_rate_hz / 2:
        raise ConfigurationError("carrier must be in (0, Nyquist)")
    if symbol_rate_hz <= 0 or symbol_rate_hz > sample_rate_hz:
        raise ConfigurationError("symbol rate must be in (0, sample rate]")
    rng = _rng(seed)
    sps = sample_rate_hz / symbol_rate_hz
    n_symbols = int(np.ceil(n / sps)) + 4
    bits = rng.integers(0, 2, n_symbols) * 2 - 1  # +-1
    if n == 0:
        return np.zeros(0)
    # Phase increments per sample.
    sym_index = np.minimum((np.arange(n) / sps).astype(np.int64), n_symbols - 1)
    inc = bits[sym_index] * (np.pi / 2) / sps
    # Gaussian smoothing across ~3 symbol periods.
    klen = max(3, int(3 * sps) | 1)
    k = np.exp(-0.5 * ((np.arange(klen) - klen // 2) / (0.4 * sps)) ** 2)
    k /= k.sum()
    # The centred n samples of the full convolution ("same" mode returns
    # len(k) samples when the burst is shorter than the kernel).
    inc = np.convolve(inc, k)[klen // 2:klen // 2 + n]
    phase = np.cumsum(inc)
    t = np.arange(n) / sample_rate_hz
    return amplitude * np.cos(2 * np.pi * carrier_hz * t + phase)


def quantize_to_adc(
    x: np.ndarray, bits: int = 12, full_scale: float = 1.0
) -> np.ndarray:
    """Quantise a float signal to raw ``bits``-bit ADC integer samples.

    Values are clipped to ``+-full_scale`` and scaled so full scale maps to
    the extreme codes — the 12/14-bit inputs the paper's architectures see.
    A nan or inf sample is refused, naming its index.
    """
    if not 2 <= bits <= 32:
        raise ConfigurationError("bits must be in 2..32")
    if not 0 < full_scale < np.inf:
        raise ConfigurationError(
            f"full_scale must be positive and finite, got {full_scale!r}")
    fmt = QFormat(bits, 0)
    scaled = check_finite_array("x", x) / full_scale * fmt.max_raw
    return to_fixed(scaled, fmt)


def _check(n: int, sample_rate_hz: float) -> None:
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    if not 0 < sample_rate_hz < np.inf:
        raise ConfigurationError(
            f"sample_rate_hz must be positive and finite, got {sample_rate_hz!r}")

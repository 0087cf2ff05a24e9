"""Signal-quality metrics: SNR, SFDR, SINAD, ENOB, ripple, rejection.

These are the measurements behind the reproduction's quality claims (e.g.
"the fixed-point DDC output is within X dB of the gold model", the NCO SFDR
ablation, and the alias-rejection comparison between the reference chain and
the GC4016-style chain).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .firdesign import BLACKMAN_HARRIS, cosine_window


def _spectrum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Windowed power spectrum; returns (bin frequencies normalised, power).

    A 4-term Blackman-Harris window (-92 dB sidelobes) keeps the window's
    own leakage below the quantisation spurs these metrics measure.
    """
    x = np.asarray(x)
    if x.size < 8:
        raise ConfigurationError("need at least 8 samples for spectral metrics")
    w = cosine_window(len(x), BLACKMAN_HARRIS)
    xw = x * w
    spec = np.fft.rfft(xw) if not np.iscomplexobj(x) else np.fft.fft(xw)
    power = np.abs(spec) ** 2
    freqs = (
        np.fft.rfftfreq(len(x)) if not np.iscomplexobj(x) else np.fft.fftfreq(len(x))
    )
    return freqs, power


def _tone_bin(power: np.ndarray) -> int:
    """Index of the strongest non-DC bin."""
    p = power.copy()
    # Suppress DC leakage (first couple of bins for the Hann window).
    p[:3] = 0.0
    if len(p) > 3:
        p[-2:] = 0.0 if np.isrealobj(p) else p[-2:]
    return int(np.argmax(p))


def _band(idx: int, n: int, half_width: int = 8) -> slice:
    return slice(max(0, idx - half_width), min(n, idx + half_width + 1))


def tone_power_db(x: np.ndarray, rel: bool = False) -> float:
    """Power of the dominant tone in dB (absolute, or relative to total)."""
    _, power = _spectrum(x)
    k = _tone_bin(power)
    tone = power[_band(k, len(power))].sum()
    if rel:
        total = power.sum()
        return 10 * np.log10(tone / total) if total > 0 else -np.inf
    return 10 * np.log10(tone) if tone > 0 else -np.inf


def snr_db(x: np.ndarray, signal_bins: int = 8) -> float:
    """SNR of a single-tone signal: tone power over everything else.

    Harmonics are *included* in the noise (use :func:`sinad_db` alias) —
    for our quantisation studies that is the quantity of interest.
    """
    freqs, power = _spectrum(x)
    k = _tone_bin(power)
    band = _band(k, len(power), signal_bins)
    sig = power[band].sum()
    noise = power.sum() - sig - power[:3].sum()
    if noise <= 0:
        return np.inf
    return 10 * np.log10(sig / noise)


def sinad_db(x: np.ndarray) -> float:
    """Signal over noise-and-distortion; same computation as :func:`snr_db`."""
    return snr_db(x)


def enob(x: np.ndarray) -> float:
    """Effective number of bits from SINAD: ``(SINAD - 1.76) / 6.02``."""
    s = sinad_db(x)
    if not np.isfinite(s):
        return np.inf
    return (s - 1.76) / 6.02


def sfdr_db(x: np.ndarray) -> float:
    """Spurious-free dynamic range: carrier over the largest spur."""
    _, power = _spectrum(x)
    k = _tone_bin(power)
    carrier_band = _band(k, len(power))
    carrier = power[carrier_band].sum()
    rest = power.copy()
    rest[carrier_band] = 0.0
    rest[:3] = 0.0
    spur = rest.max()
    if spur <= 0:
        return np.inf
    return 10 * np.log10(carrier / spur)


def passband_ripple_db(
    response: np.ndarray, freqs_hz: np.ndarray, passband_hz: float
) -> float:
    """Peak-to-peak magnitude ripple inside ``|f| <= passband_hz``, in dB."""
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    mag = np.abs(np.asarray(response))
    mask = np.abs(freqs) <= passband_hz
    if not mask.any():
        raise ConfigurationError("no response samples inside the passband")
    band = mag[mask]
    if band.min() <= 0:
        return np.inf
    return 20 * np.log10(band.max() / band.min())


def stopband_attenuation_db(
    response: np.ndarray, freqs_hz: np.ndarray, stopband_start_hz: float
) -> float:
    """Minimum attenuation beyond ``stopband_start_hz`` relative to DC gain."""
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    mag = np.abs(np.asarray(response))
    mask = np.abs(freqs) >= stopband_start_hz
    if not mask.any():
        raise ConfigurationError("no response samples inside the stopband")
    ref = mag[np.argmin(np.abs(freqs))]
    if ref <= 0:
        raise ConfigurationError("zero DC gain")
    worst = mag[mask].max()
    if worst <= 0:
        return np.inf
    return 20 * np.log10(ref / worst)


def rms_error(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square difference between two equal-length signals."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))

"""Theoretical frequency responses of the DDC filter stages.

These closed forms back the filter-quality analysis the paper alludes to
("The drawback of the CIC filters is their sub-optimal frequency
attenuation") and are used by the design functions, the metric tests and the
alias-rejection ablation.

All responses are evaluated at absolute frequencies in Hz against the rate
at which the filter runs, so cascades across rate changes compose naturally
via :func:`chain_response`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def cic_response(
    freqs_hz: np.ndarray,
    order: int,
    decimation: int,
    input_rate_hz: float,
    diff_delay: int = 1,
    normalize: bool = True,
) -> np.ndarray:
    """Complex response of an ``order``-stage CIC decimator before decimation.

    ``H(f) = [sin(pi f R M / fs) / sin(pi f / fs)]**N`` with the linear-phase
    term omitted (magnitude analysis).  The DC limit ``(R M)**N`` is handled
    explicitly.  With ``normalize`` the response is divided by the DC gain.
    """
    if input_rate_hz <= 0:
        raise ConfigurationError("input_rate_hz must be positive")
    if order < 1 or decimation < 1 or diff_delay < 1:
        raise ConfigurationError("order, decimation, diff_delay must be >= 1")
    f = np.asarray(freqs_hz, dtype=np.float64)
    x = np.pi * f / input_rate_hz
    rm = decimation * diff_delay
    num = np.sin(rm * x)
    den = np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(np.abs(den) < 1e-15, float(rm), num / den) ** order
    if normalize:
        h = h / float(rm**order)
    return h


def fir_response(
    freqs_hz: np.ndarray, taps: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Complex response of an FIR filter at absolute frequencies."""
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample_rate_hz must be positive")
    taps = np.asarray(taps, dtype=np.float64)
    f = np.asarray(freqs_hz, dtype=np.float64)
    w = 2 * np.pi * f / sample_rate_hz
    n = np.arange(len(taps))
    return np.exp(-1j * np.outer(w, n)) @ taps


def chain_response(
    freqs_hz: np.ndarray,
    input_rate_hz: float,
    cic_stages: list[tuple[int, int]],
    fir_taps: np.ndarray | None = None,
) -> np.ndarray:
    """Response of a CIC/.../FIR chain referenced to the chain input.

    ``cic_stages`` is ``[(order, decimation), ...]`` applied in order; each
    stage runs at the rate left over by its predecessors.  The optional FIR
    runs at the final CIC output rate.  Aliasing is not folded in — this is
    the response to an input tone before decimation images; use
    :func:`alias_rejection` for the folded-image question.
    """
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    rate = input_rate_hz
    total = np.ones(len(freqs), dtype=np.complex128)
    for order, decimation in cic_stages:
        total *= cic_response(freqs, order, decimation, rate)
        rate /= decimation
    if fir_taps is not None:
        total *= fir_response(freqs, fir_taps, rate)
    return total


def alias_rejection(
    order: int,
    decimation: int,
    input_rate_hz: float,
    band_edge_hz: float,
    diff_delay: int = 1,
) -> float:
    """Worst-case aliasing rejection of a CIC decimator, in dB.

    The images that fold onto the passband edge ``band_edge_hz`` come from
    ``k * fs/R ± band_edge`` for ``k = 1..R-1``; the rejection is the CIC
    attenuation at the least-attenuated of those frequencies relative to
    the passband-edge gain.  Positive result = attenuation in dB.
    """
    if not 0 < band_edge_hz < input_rate_hz / (2 * decimation):
        raise ConfigurationError(
            "band_edge must be within the post-decimation Nyquist band"
        )
    low_rate = input_rate_hz / decimation
    # Candidate folding frequencies below the input Nyquist.
    ks = np.arange(1, decimation)
    candidates = np.concatenate([ks * low_rate - band_edge_hz,
                                 ks * low_rate + band_edge_hz])
    candidates = candidates[(candidates > 0) & (candidates <= input_rate_hz / 2)]
    if candidates.size == 0:
        return float("inf")
    h_pass = np.abs(
        cic_response(np.array([band_edge_hz]), order, decimation,
                     input_rate_hz, diff_delay)
    )[0]
    h_img = np.abs(
        cic_response(candidates, order, decimation, input_rate_hz, diff_delay)
    )
    worst = h_img.max()
    if worst == 0:
        return float("inf")
    return 20 * np.log10(h_pass / worst)

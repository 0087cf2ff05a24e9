"""Digital signal processing core: the DDC algorithm of Section 2.

This package implements every block in the paper's Fig. 1 chain, in both a
fast vectorised floating-point form (the "gold" reference) and a bit-true
integer form matching the hardware models:

- :mod:`~repro.dsp.nco` — numerically controlled oscillator (phase
  accumulator + sine LUT or Taylor evaluation);
- :mod:`~repro.dsp.mixer` — complex down-mixing of the real input;
- :mod:`~repro.dsp.cic` — cascaded integrator-comb decimators (Fig. 2);
- :mod:`~repro.dsp.fir` — direct-form and polyphase decimating FIR (Fig. 3);
- :mod:`~repro.dsp.firdesign` — coefficient design including CIC droop
  compensation;
- :mod:`~repro.dsp.ddc` — the full reference DDC;
- :mod:`~repro.dsp.response` — theoretical frequency responses;
- :mod:`~repro.dsp.signals` — synthetic stimuli (tones, noise, DRM-like
  OFDM, GSM-like bursts);
- :mod:`~repro.dsp.metrics` — SNR / SFDR / ripple / rejection measurement.
"""

from .nco import NCO, NCOMode
from .mixer import Mixer
from .cic import CICDecimator, FixedCICDecimator, cic_reference_output
from .fir import (
    FIRFilter,
    PolyphaseDecimator,
    FixedPolyphaseDecimator,
    polyphase_decompose,
)
from .firdesign import (
    design_kaiser_lowpass,
    design_cic_compensator,
    reference_fir_taps,
    quantize_taps,
)
from .ddc import DDC, DDCResult, FixedDDC
from .response import (
    cic_response,
    fir_response,
    chain_response,
    alias_rejection,
)
from .signals import (
    tone,
    white_noise,
    drm_like_ofdm,
    gsm_like_burst,
    quantize_to_adc,
)
from .metrics import (
    snr_db,
    sfdr_db,
    sinad_db,
    enob,
    passband_ripple_db,
    stopband_attenuation_db,
    tone_power_db,
)

__all__ = [
    "NCO",
    "NCOMode",
    "Mixer",
    "CICDecimator",
    "FixedCICDecimator",
    "cic_reference_output",
    "FIRFilter",
    "PolyphaseDecimator",
    "FixedPolyphaseDecimator",
    "polyphase_decompose",
    "design_kaiser_lowpass",
    "design_cic_compensator",
    "reference_fir_taps",
    "quantize_taps",
    "DDC",
    "DDCResult",
    "FixedDDC",
    "cic_response",
    "fir_response",
    "chain_response",
    "alias_rejection",
    "tone",
    "white_noise",
    "drm_like_ofdm",
    "gsm_like_burst",
    "quantize_to_adc",
    "snr_db",
    "sfdr_db",
    "sinad_db",
    "enob",
    "passband_ripple_db",
    "stopband_attenuation_db",
    "tone_power_db",
]

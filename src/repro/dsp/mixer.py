"""Complex mixer: frequency translation of the real ADC stream.

Section 2.1: "To generate an in-phase (I) signal the input signal is
multiplied with the cosine signal.  The quadrature part (Q) is derived by
multiplying the input signal with the sine signal."

The mixer is a pure element-wise multiply and therefore trivially
vectorised; the class exists so the streaming DDC and the hardware models
share one definition of the I/Q sign convention:

``I[n] = x[n] * cos(w n)``, ``Q[n] = -x[n] * sin(w n)``, i.e. the complex
baseband signal is ``x[n] * exp(-j w n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .nco import NCO


@dataclass
class Mixer:
    """Down-mixing stage driven by an :class:`~repro.dsp.nco.NCO`."""

    nco: NCO

    def process(self, x: np.ndarray) -> np.ndarray:
        """Mix a real block to complex baseband: ``x * exp(-j w n)``.

        Phase continuity across blocks is provided by the NCO's
        accumulator state.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ConfigurationError("mixer input must be one-dimensional")
        lo = self.nco.generate_complex(len(x))
        return x * lo

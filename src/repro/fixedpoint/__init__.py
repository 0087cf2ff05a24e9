"""Fixed-point arithmetic substrate.

All hardware models in this reproduction (the FPGA RTL components, the
Montium ALUs, the ASIC channel models) compute on two's-complement words of
bounded width, exactly like the paper's 12-bit data buses and 31-bit FIR
accumulator.  This package provides:

- :class:`QFormat` — a signed two's-complement format descriptor ``Q(w, f)``
  with ``w`` total bits and ``f`` fraction bits;
- vectorised NumPy operations with explicit overflow behaviour
  (:func:`saturate`, :func:`wrap`) and rounding modes (:func:`quantize`);
- bit-growth analysis helpers (:func:`cic_bit_growth`,
  :func:`fir_accumulator_bits`) matching the worst-case analysis the paper
  uses to size the FPGA's 31-bit intermediate result bus.
"""

from .qformat import QFormat
from .ops import (
    Overflow,
    Rounding,
    saturate,
    wrap,
    quantize,
    to_fixed,
)
from .analysis import (
    cic_bit_growth,
    cic_gain,
    fir_accumulator_bits,
)

__all__ = [
    "QFormat",
    "Overflow",
    "Rounding",
    "saturate",
    "wrap",
    "quantize",
    "to_fixed",
    "cic_bit_growth",
    "cic_gain",
    "fir_accumulator_bits",
]

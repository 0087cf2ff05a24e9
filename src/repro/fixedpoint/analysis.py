"""Word-length growth analysis for decimating filter chains.

The paper sizes its FPGA data paths "in such a way that overflow cannot
occur" (Section 5.2.1): the polyphase FIR keeps a 31-bit intermediate result
for 12-bit data, and CIC filters must grow by ``N * ceil(log2(R * M))`` bits
(Hogenauer 1981) to guarantee modular-arithmetic correctness.  This module
implements that worst-case analysis so that the hardware models derive their
internal widths instead of hard-coding them.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError


def cic_gain(order: int, decimation: int, diff_delay: int = 1) -> int:
    """DC gain of an ``order``-stage CIC decimator: ``(R*M)**N``.

    This is the worst-case growth of any internal node, reached at DC.
    """
    _check(order, decimation, diff_delay)
    return (decimation * diff_delay) ** order


def cic_bit_growth(order: int, decimation: int, diff_delay: int = 1) -> int:
    """Number of extra integer bits a CIC needs: ``ceil(N * log2(R*M))``.

    Registers sized ``input_width + growth`` can never overflow in the
    two's-complement (wrap-around) sense that matters for CIC correctness.
    """
    _check(order, decimation, diff_delay)
    return math.ceil(order * math.log2(decimation * diff_delay))


def fir_accumulator_bits(
    input_width: int, coeff_width: int, taps: int
) -> int:
    """Width of an accumulator that can never overflow for a ``taps``-tap FIR.

    Product of a ``w_i``-bit sample and a ``w_c``-bit coefficient needs
    ``w_i + w_c`` bits; summing ``taps`` of them adds ``ceil(log2(taps))``.
    For the paper's FPGA FIR (12-bit data, 12-bit coefficients, 124 taps)
    this gives 12 + 12 + 7 = 31 bits — exactly the 31-bit intermediate
    result bus of Fig. 5.
    """
    if input_width < 1 or coeff_width < 1:
        raise ConfigurationError("widths must be positive")
    if taps < 1:
        raise ConfigurationError(f"taps must be >= 1, got {taps}")
    return input_width + coeff_width + math.ceil(math.log2(taps))


def _check(order: int, decimation: int, diff_delay: int) -> None:
    if order < 1:
        raise ConfigurationError(f"CIC order must be >= 1, got {order}")
    if decimation < 1:
        raise ConfigurationError(
            f"CIC decimation must be >= 1, got {decimation}"
        )
    if diff_delay < 1:
        raise ConfigurationError(
            f"CIC differential delay must be >= 1, got {diff_delay}"
        )

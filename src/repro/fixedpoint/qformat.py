"""Two's-complement fixed-point format descriptor.

A :class:`QFormat` describes signed two's-complement words with ``width``
total bits of which ``frac`` are fraction bits.  The representable integer
range is ``[-2**(width-1), 2**(width-1) - 1]`` and the real value of a raw
integer ``r`` is ``r * 2**-frac``.

The paper's data paths map onto this as:

- the 12-bit FPGA data bus → ``QFormat(12, 11)`` (full-scale ±1),
- the 31-bit FIR intermediate result → ``QFormat(31, ...)``,
- the Montium's 16-bit ALU inputs → ``QFormat(16, 15)``,
- the 17-bit east/west ALU ports → ``QFormat(17, 15)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FixedPointError


@dataclass(frozen=True, order=False)
class QFormat:
    """Signed two's-complement fixed-point format.

    Parameters
    ----------
    width:
        Total number of bits, including the sign bit.  Must be in
        ``1..64`` so that raw values fit an ``int64`` NumPy array.
    frac:
        Number of fraction bits.  May be negative (values scaled up) or
        exceed ``width`` (values scaled down); both are valid Q notations.
    """

    width: int
    frac: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or not isinstance(self.frac, int):
            raise FixedPointError(
                f"QFormat fields must be ints, got ({self.width!r}, {self.frac!r})"
            )
        if not 1 <= self.width <= 64:
            raise FixedPointError(
                f"QFormat width must be in 1..64, got {self.width}"
            )

    # ------------------------------------------------------------------ raw
    @property
    def min_raw(self) -> int:
        """Most negative representable raw integer."""
        return -(1 << (self.width - 1))

    @property
    def max_raw(self) -> int:
        """Most positive representable raw integer."""
        return (1 << (self.width - 1)) - 1

    @property
    def scale(self) -> float:
        """Real value of one LSB: ``2**-frac``."""
        return 2.0 ** (-self.frac)

    # ----------------------------------------------------------------- real
    @property
    def min_value(self) -> float:
        """Most negative representable real value."""
        return self.min_raw * self.scale

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""
        return self.max_raw * self.scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.width}.{self.frac}"


#: 12-bit bus used throughout the FPGA implementation (Section 5.2.1).
BUS12 = QFormat(12, 11)

#: 31-bit intermediate result of the FPGA polyphase FIR (Fig. 5).
ACC31 = QFormat(31, 22)

#: 16-bit Montium ALU operand format.
MONTIUM16 = QFormat(16, 15)

#: 17-bit Montium east/west neighbour port format.
MONTIUM17 = QFormat(17, 15)

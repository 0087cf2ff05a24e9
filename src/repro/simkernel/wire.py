"""Wires: named buses with two-phase update and toggle counting.

A :class:`Wire` holds a signed two's-complement value of fixed ``width``.
During a cycle, components read :attr:`value` (the registered value from the
previous cycle) and call :meth:`drive` to set the value for the next cycle;
the simulator then calls :meth:`commit` on every wire.  Driving the same
wire twice in one cycle raises :class:`~repro.errors.SimulationError`
(multiple drivers = bus contention).

Toggle accounting: on every commit the number of flipped bits between the
old and new value is accumulated.  ``toggles / (cycles * width)`` is the
wire's *toggle rate* — the quantity Quartus' PowerPlay sweeps in the paper's
Table 5 and that our FPGA power model consumes.

This module sits on the innermost loop of the cycle-driven simulator
(one :meth:`drive` per component output and one :meth:`commit` per wire per
clock edge), so the hot methods are written for speed: ``__slots__``
storage, a precomputed width mask, an early-out when the wire holds its
value, and a popcount that uses :meth:`int.bit_count` where available.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..fixedpoint import QFormat

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on old runtimes
    def _popcount(v: int) -> int:
        return bin(v).count("1")


class Wire:
    """A named synchronous bus."""

    __slots__ = (
        "name",
        "width",
        "_fmt",
        "_lo",
        "_hi",
        "_mask",
        "reset_value",
        "value",
        "_next",
        "_driver",
        "toggles",
        "commits",
    )

    def __init__(self, name: str, width: int = 1, reset_value: int = 0) -> None:
        if not 1 <= width <= 64:
            raise SimulationError(f"wire {name!r}: width must be in 1..64")
        self.name = name
        self.width = width
        self._fmt = QFormat(width, 0) if width > 1 else None
        self._lo, self._hi = self._range()
        self._mask = (1 << width) - 1
        if not self._lo <= reset_value <= self._hi:
            raise SimulationError(
                f"wire {name!r}: reset value {reset_value} does not fit "
                f"{width} bits"
            )
        self.reset_value = reset_value
        self.value = reset_value
        self._next: int | None = None
        self._driver: str | None = None
        self.toggles = 0
        self.commits = 0

    def _range(self) -> tuple[int, int]:
        if self.width == 1:
            return 0, 1
        assert self._fmt is not None
        return self._fmt.min_raw, self._fmt.max_raw

    # ------------------------------------------------------------------ API
    def drive(self, value: int, driver: str = "?") -> None:
        """Schedule ``value`` to appear on the wire next cycle."""
        if type(value) is not int:
            # numpy integer scalars compare correctly against the range
            # bounds but must be stored as Python ints so commit's XOR /
            # popcount stays in exact arbitrary-precision arithmetic.
            value = int(value)
        if self._next is not None:
            raise SimulationError(
                f"wire {self.name!r}: driven by both {self._driver!r} and "
                f"{driver!r} in the same cycle"
            )
        if not self._lo <= value <= self._hi:
            raise SimulationError(
                f"wire {self.name!r}: value {value} does not fit "
                f"{self.width} bits (driver {driver!r})"
            )
        self._next = value
        self._driver = driver

    def commit(self) -> None:
        """Latch the driven value (or hold) and count bit toggles."""
        new = self._next
        self.commits += 1
        if new is None:  # hold: value unchanged, no bits flip
            return
        old = self.value
        if new != old:
            # Two's-complement XOR over the wire width counts flipped bits.
            self.toggles += _popcount((old ^ new) & self._mask)
            self.value = new
        self._next = None
        self._driver = None

    # Batched-commit fast paths used by the compiled Simulator.step loop.
    # They skip the per-cycle ``commits`` increment; the scheduler bulk-adds
    # the cycle count after the batch (every wire commits every cycle), so
    # observable counters are identical once ``step`` returns.
    def _latch(self) -> None:
        new = self._next
        if new is None:
            return
        old = self.value
        if new != old:
            self.toggles += _popcount((old ^ new) & self._mask)
            self.value = new
        self._next = None
        self._driver = None

    def _latch_no_activity(self) -> None:
        new = self._next
        if new is None:
            return
        self.value = new
        self._next = None
        self._driver = None

    def reset(self) -> None:
        """Return to the reset value and clear statistics."""
        self.value = self.reset_value
        self._next = None
        self._driver = None
        self.toggles = 0
        self.commits = 0

    @property
    def toggle_rate(self) -> float:
        """Average fraction of bits toggling per cycle (0..1)."""
        if self.commits == 0:
            return 0.0
        return self.toggles / (self.commits * self.width)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Wire({self.name!r}, width={self.width}, value={self.value})"

"""Waveform capture and toggle-activity reporting.

:class:`WaveTrace` records selected wires' values every cycle (a tiny VCD
stand-in used by tests and the Fig. 9-style schedule rendering).

:class:`ActivityReport` aggregates per-wire toggle counts into the design-
level *internal toggle rate* — the single number the paper sweeps in
Table 5 ("we assumed an internal toggle rate of 10 % for both FPGAs") and
that :mod:`repro.archs.fpga.power` converts to dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import SimulationError
from .wire import Wire


class WaveTrace:
    """Records the value of selected wires each cycle."""

    def __init__(self, wires: list[Wire]) -> None:
        if not wires:
            raise SimulationError("WaveTrace needs at least one wire")
        self._wires = list(wires)
        self._history: dict[str, list[int]] = {w.name: [] for w in self._wires}
        self._cycles: list[int] = []

    def sample(self, cycle: int) -> None:
        """Capture the committed value of every traced wire."""
        self._cycles.append(cycle)
        for w in self._wires:
            self._history[w.name].append(w.value)

    def clear(self) -> None:
        """Drop all captured samples."""
        self._cycles.clear()
        for h in self._history.values():
            h.clear()

    def values(self, wire_name: str) -> list[int]:
        """Captured sample list for one wire."""
        try:
            return list(self._history[wire_name])
        except KeyError:
            raise SimulationError(f"wire {wire_name!r} is not traced") from None

    @property
    def cycles(self) -> list[int]:
        """Cycle numbers at which samples were taken."""
        return list(self._cycles)


@dataclass(frozen=True)
class WireActivity:
    """Toggle statistics of a single wire."""

    name: str
    width: int
    toggles: int
    commits: int

    @property
    def toggle_rate(self) -> float:
        """Fraction of bits toggling per cycle (0..1)."""
        if self.commits == 0:
            return 0.0
        return self.toggles / (self.commits * self.width)


@dataclass(frozen=True)
class ActivityReport:
    """Aggregate toggle activity over a simulation run."""

    cycles: int
    wires: tuple[WireActivity, ...] = field(default_factory=tuple)

    @classmethod
    def from_wires(cls, wires: Iterable[Wire], cycles: int) -> "ActivityReport":
        """Snapshot the current counters of ``wires``."""
        acts = tuple(
            WireActivity(w.name, w.width, w.toggles, w.commits) for w in wires
        )
        return cls(cycles=cycles, wires=acts)

    @property
    def mean_toggle_rate(self) -> float:
        """Bit-weighted average toggle rate across all wires.

        This is the design-level "internal toggle rate" of Table 5.
        """
        denom = sum(w.width * w.commits for w in self.wires)
        if denom == 0:
            return 0.0
        return sum(w.toggles for w in self.wires) / denom

    def by_name(self, name: str) -> WireActivity:
        """Activity record of one wire."""
        for w in self.wires:
            if w.name == name:
                return w
        raise SimulationError(f"no activity recorded for wire {name!r}")

    def busiest(self, n: int = 5) -> list[WireActivity]:
        """The ``n`` wires with the highest toggle rate."""
        return sorted(self.wires, key=lambda w: w.toggle_rate, reverse=True)[:n]

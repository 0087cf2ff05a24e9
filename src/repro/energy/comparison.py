"""Cross-architecture energy comparison — the builder of Table 7.

Collects :class:`~repro.archs.base.ImplementationReport` objects from the
architecture models, adds the 0.13 µm-scaled estimates the paper derives
(rows marked "(estimated)" in Table 7), and renders/returns the comparison.

Scaling convention follows the paper exactly:

- figures from *larger* nodes (GC4016 at 0.25 µm, low-power ASIC at
  0.18 µm) are scaled *down* with the full dynamic-power rule;
- the Cyclone II figure (0.09 µm) is scaled *up* to 0.13 µm by the
  capacitance ratio only (voltage is 1.2 V at both nodes), and — like the
  paper — only its *dynamic* component is scaled (31.11 mW -> 44.94 mW);
- native-0.13 µm figures (ARM, Cyclone I, Montium) are left untouched.

The row objects keep both the native and scaled power so benches can print
the published table shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .technology import TECH_130NM, TechnologyNode, scale_power

if TYPE_CHECKING:  # imported only for typing to avoid a package cycle
    from ..archs.base import ImplementationReport


@dataclass(frozen=True)
class ComparisonRow:
    """One architecture's row of Table 7."""

    architecture: str
    technology: TechnologyNode
    clock_hz: float
    power_w: float
    power_scaled_w: float
    area_mm2: float | None
    feasible: bool
    notes: str = ""

    @property
    def power_mw(self) -> float:
        """Native power in mW."""
        return self.power_w * 1e3

    @property
    def power_scaled_mw(self) -> float:
        """Power scaled to the reference node, in mW."""
        return self.power_scaled_w * 1e3


class ArchitectureComparison:
    """Accumulates implementation reports and produces the summary table."""

    def __init__(self, reference: TechnologyNode = TECH_130NM) -> None:
        self.reference = reference
        self._rows: list[ComparisonRow] = []

    def add(
        self,
        report: "ImplementationReport",
        scaled_power_w: float | None = None,
    ) -> ComparisonRow:
        """Add one architecture's report.

        ``scaled_power_w`` overrides the default scaling — used for the
        Cyclone II row whose published estimate scales only the dynamic
        component.
        """
        if scaled_power_w is None:
            scaled_power_w = scale_power(
                report.power_w, report.technology, self.reference
            )
        row = ComparisonRow(
            architecture=report.architecture,
            technology=report.technology,
            clock_hz=report.clock_hz,
            power_w=report.power_w,
            power_scaled_w=scaled_power_w,
            area_mm2=report.area_mm2,
            feasible=report.feasible,
            notes=report.notes,
        )
        self._rows.append(row)
        return row

    @property
    def rows(self) -> list[ComparisonRow]:
        """Rows in insertion order."""
        return list(self._rows)

    def ranking(self, scaled: bool = True) -> list[ComparisonRow]:
        """All rows sorted by (scaled) power, ascending."""
        key = (lambda r: r.power_scaled_w) if scaled else (lambda r: r.power_w)
        return sorted(self._rows, key=key)

    def render(self) -> str:
        """Fixed-width text table in the shape of the paper's Table 7."""
        header = (
            f"{'Solution':26s} {'Size':8s} {'Freq[MHz]':>10s} "
            f"{'Power[mW]':>10s} {'@0.13um[mW]':>12s} {'Area':>9s} {'RT':>3s}"
        )
        lines = [header, "-" * len(header)]
        for r in self._rows:
            area = f"{r.area_mm2:.1f}mm2" if r.area_mm2 is not None else "n.a."
            lines.append(
                f"{r.architecture:26s} {str(r.technology):8s} "
                f"{r.clock_hz / 1e6:>10.1f} {r.power_mw:>10.2f} "
                f"{r.power_scaled_mw:>12.2f} {area:>9s} "
                f"{'yes' if r.feasible else 'NO':>3s}"
            )
        return "\n".join(lines)

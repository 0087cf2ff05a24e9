"""Schedule analysis: Table 6 occupancy and the Fig. 9 Gantt rendering.

Table 6 reports, per DDC part, how many ALUs participate and what
percentage of the tile's cycles they spend on it; Fig. 9 shows the first
40 clock cycles of the running DDC.  Both are derived here directly from
the :class:`~repro.archs.montium.program.TileProgram` schedule (statically)
or from a tile's measured ``busy_cycles`` (dynamically) — the two must
agree, which the tests assert.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ...errors import ConfigurationError
from .program import TileProgram
from .tile import MontiumTile

#: Display names used by the paper's Table 6.
PAPER_LABELS = {
    "nco_cic2_int": "NCO + CIC2 integrating",
    "cic2_comb": "CIC2 cascading",
    "cic5_int": "CIC5 integrating",
    "cic5_comb": "CIC5 cascading",
    "fir125": "FIR125",
}


@dataclass(frozen=True)
class OccupancyRow:
    """One Table 6 row."""

    label: str
    n_alus: int
    percent_of_time: float


@dataclass(frozen=True)
class OccupancyReport:
    """Occupancy of all DDC parts plus overall utilisation."""

    rows: tuple[OccupancyRow, ...]
    period: int

    def by_label(self, label: str) -> OccupancyRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise ConfigurationError(f"no occupancy row for {label!r}")

    def table6_rows(self) -> list[tuple[str, int, float]]:
        """(paper row name, #ALUs, percent) in Table 6 order."""
        order = ["nco_cic2_int", "cic2_comb", "cic5_int", "cic5_comb",
                 "fir125"]
        out = []
        for label in order:
            r = self.by_label(label)
            out.append((PAPER_LABELS[label], r.n_alus, r.percent_of_time))
        return out


def analyze_schedule(program: TileProgram) -> OccupancyReport:
    """Static occupancy over one schedule period."""
    if program.period == 0:
        raise ConfigurationError("empty program")
    cycles_per_label: dict[str, int] = defaultdict(int)
    alus_per_label: dict[str, set[int]] = defaultdict(set)
    for ops in program.cycles:
        seen: set[str] = set()
        for alu, op in ops.items():
            alus_per_label[op.label].add(alu)
            seen.add(op.label)
        for label in seen:
            cycles_per_label[label] += 1
    rows = tuple(
        OccupancyRow(
            label,
            len(alus_per_label[label]),
            100.0 * cycles_per_label[label] / program.period,
        )
        for label in sorted(cycles_per_label)
    )
    return OccupancyReport(rows, program.period)


def measured_occupancy(tile: MontiumTile) -> OccupancyReport:
    """Dynamic occupancy from a tile's executed-cycle counters."""
    if tile.cycle == 0:
        raise ConfigurationError("tile has not executed any cycles")
    rows = []
    for label, per_alu in sorted(tile.busy_cycles.items()):
        # cycles where at least one ALU ran this label = max per-ALU count
        # (ops of one label always co-issue on their ALU set in the DDC).
        cycles = max(per_alu.values())
        rows.append(
            OccupancyRow(label, len(per_alu), 100.0 * cycles / tile.cycle)
        )
    return OccupancyReport(tuple(rows), tile.cycle)


_FIG9_GLYPHS = {
    "nco_cic2_int": "N",
    "cic2_comb": "2",
    "cic5_int": "5",
    "cic5_comb": "c",
    "fir125": "F",
}


def render_figure9(program: TileProgram, cycles: int = 40) -> str:
    """ASCII Gantt of the first ``cycles`` clock cycles (paper Fig. 9).

    One row per ALU, one column per cycle; glyphs mark the DDC part each
    ALU is executing ('.' = idle).  The paper's figure shows exactly this:
    three ALUs continuously on NCO/address generation + CIC2 integration,
    the comb part repeating every 16 cycles on the remaining two.
    """
    if cycles < 1:
        raise ConfigurationError("cycles must be >= 1")
    header = "cycle  " + "".join(str(c % 10) for c in range(cycles))
    lines = [header]
    for alu in range(MontiumTile.N_ALUS):
        row = []
        for c in range(cycles):
            op = program.ops_at(c).get(alu)
            row.append(_FIG9_GLYPHS.get(op.label, "?") if op else ".")
        lines.append(f"ALU{alu + 1}   " + "".join(row))
    legend = (
        "legend: N=NCO+CIC2-int/addr-gen  2=CIC2 comb  5=CIC5 int  "
        "c=CIC5 comb  F=FIR125  .=idle"
    )
    lines.append(legend)
    return "\n".join(lines)

"""JSON/CSV frontier reports for design-space explorations.

The JSON document (schema ``repro-explore/v1``) is a pure function of
the spec and the per-cell outcomes — it carries no engine, timing,
cache-state or evaluation-count metadata — so the adaptive engine and
the dense scalar oracle serialise to *byte-identical* output whenever
their outcomes agree.  ``python -m repro.explore --verify`` leans on
exactly that property, the same convention as the sweep reports.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .refine import PointExploration
from .spec import ExploreSpec

SCHEMA = "repro-explore/v1"

#: Output formats accepted by :meth:`ExploreReport.render` / the CLI.
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ExploreReport:
    """All cells of one exploration, in point/target-grid order.

    ``evaluations`` counts the cells actually run through the model
    layer (the adaptive engine's budget accounting); it is deliberately
    **not** serialised — reports must not reveal which engine produced
    them.
    """

    spec: ExploreSpec
    points: list[PointExploration]
    evaluations: int = field(default=0, compare=False)

    @property
    def partial(self) -> bool:
        """True when at least one cell carries a recorded failure."""
        return any(cell.failed for p in self.points for cell in p.cells)

    def to_json_doc(self) -> dict:
        """The schema'd document (deterministic: no engine metadata)."""
        objective_names = self.spec.objectives
        return {
            "schema": SCHEMA,
            "spec": self.spec.describe(),
            "axis_values": [
                self.spec.value_at(k)
                for k in range(self.spec.target_steps)
            ],
            "points": [
                {
                    "index": p.index,
                    "label": p.label,
                    "overrides": {k: v for k, v in p.overrides},
                    "cells": [c.to_json() for c in p.cells],
                    "snapshots": [
                        s.to_json(objective_names) for s in p.snapshots
                    ],
                    "frontier_intervals": {
                        name: [list(span) for span in spans]
                        for name, spans in p.frontier_intervals(
                            self.spec
                        ).items()
                    },
                }
                for p in self.points
            ],
            "partial": self.partial,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """Long-form frontier map: one row per (point, axis value)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ("point", "label", "axis_value", "candidates", "frontier",
             "static_winner", "winning_regions", "error")
        )
        for p in self.points:
            for cell in p.cells:
                writer.writerow(
                    (
                        p.index,
                        p.label,
                        repr(cell.value),
                        "|".join(cell.candidates),
                        "|".join(cell.frontier),
                        cell.static_winner,
                        ";".join(
                            f"{repr(lo)}:{repr(hi)}:{name}"
                            for lo, hi, name in cell.winning_regions
                        ),
                        "" if cell.error is None else
                        f"{cell.error[0]}: {cell.error[1]}",
                    )
                )
        return buf.getvalue()

    def render(self, fmt: str = "json") -> str:
        if fmt not in FORMATS:
            raise ConfigurationError(
                f"unknown report format {fmt!r}; expected one of {FORMATS}"
            )
        return self.to_json() if fmt == "json" else self.to_csv()

    def summary(self) -> str:
        """Human-readable digest printed by the CLI."""
        axis_field, lo, hi = self.spec.axis
        lines = [
            f"{len(self.points)} discrete point(s) x "
            f"{self.spec.target_steps} values of {axis_field} "
            f"[{lo:g} .. {hi:g}] "
            f"({self.evaluations} cells evaluated of {self.spec.n_cells})"
        ]
        failed = sum(
            1 for p in self.points for cell in p.cells if cell.failed
        )
        if failed:
            lines[0] += f" (PARTIAL: {failed} cell(s) failed)"
        for p in self.points:
            lines.append(f"  [{p.index}] {p.label}")
            lines.append(
                "    frontier ("
                + ", ".join(self.spec.objectives)
                + "):"
            )
            for name, spans in p.frontier_intervals(self.spec).items():
                pretty = ", ".join(
                    f"{a:g} .. {b:g}" for a, b in spans
                )
                lines.append(f"      {name}: {pretty}")
            winners: list[str] = []
            for cell in p.cells:
                if not winners or winners[-1] != cell.static_winner:
                    winners.append(cell.static_winner)
            lines.append(
                "    static winner along the axis: " + " -> ".join(winners)
            )
        return "\n".join(lines)

"""JSON/CSV reports for scenario sweeps.

The JSON document (schema ``repro-sweep/v1``) is a pure function of the
spec and the grid values — it carries no engine, timing or host metadata —
so the batched and scalar engines, and the thread and process backends,
all serialise to *byte-identical* output.  ``python -m repro.sweep
--verify`` leans on exactly that property.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from ..errors import ConfigurationError
from .engine import PointFailure, PointResult
from .spec import SweepSpec

SCHEMA = "repro-sweep/v1"

#: Output formats accepted by :meth:`SweepReport.render` / the CLI.
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class SweepReport:
    """All grid points of one sweep, in point order.

    ``failures`` is the error channel filled under
    ``on_error="skip"``/``"retry"`` — points whose evaluation failed,
    recorded instead of evaluated.  A report with failures is *partial*
    and says so explicitly in its JSON document and summary.
    """

    spec: SweepSpec
    duty_cycles: tuple[float, ...]
    points: list[PointResult]
    failures: tuple[PointFailure, ...] = ()

    @property
    def partial(self) -> bool:
        """True when at least one grid point failed and was recorded."""
        return bool(self.failures)

    def to_json_doc(self) -> dict:
        """The schema'd document (deterministic: no engine/host metadata)."""
        return {
            "schema": SCHEMA,
            "spec": self.spec.describe(),
            "duty_cycles": list(self.duty_cycles),
            "points": [p.to_json() for p in self.points],
            "failures": [f.to_json() for f in self.failures],
            "partial": self.partial,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """Long-form grid: one row per (point, duty cycle, candidate) cell."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ("point", "label", "duty_cycle", "candidate", "power_w",
             "winner")
        )
        for p in self.points:
            for k, d in enumerate(self.duty_cycles):
                for j, name in enumerate(p.names):
                    writer.writerow(
                        (p.index, p.label, repr(d), name,
                         repr(p.powers_w[k][j]), p.winners[k])
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
        lines = [
            f"{len(self.points)} configuration point(s) x "
            f"{len(self.duty_cycles)} duty cycles"
        ]
        if self.partial:
            lines[0] += f" (PARTIAL: {len(self.failures)} point(s) failed)"
        for p in self.points:
            lines.append(f"  [{p.index}] {p.label}")
            for lo, hi, name in p.winning_regions:
                lines.append(f"      {lo:7.2%} .. {hi:7.2%}  {name}")
        for f in self.failures:
            lines.append(
                f"  [{f.index}] {f.label}  FAILED "
                f"({f.error_type}: {f.message})"
            )
        return "\n".join(lines)

"""Batched scenario sweeps over configuration grids (``repro.sweep``).

The paper's comparative layer — the Section 7 scenario analysis and the
Table 7 grid — asked one configuration at a time.  This subsystem serves
*many* scenarios in one call:

- :class:`~repro.sweep.spec.SweepSpec` — a declarative grid: parameter
  axes over :class:`~repro.config.DDCConfig` fields, a duty-cycle grid,
  an optional architecture subset;
- :mod:`~repro.sweep.engine` — batched execution: each point's whole
  duty-cycle x candidate grid is one numpy pass through the
  energy/scenario batch APIs, bit-identical to the scalar path, with
  ``backend="process"`` fan-out for grids that outgrow the GIL;
- :mod:`~repro.sweep.report` — deterministic JSON/CSV reports.

CLI::

    PYTHONPATH=src python -m repro.sweep                  # Table 7 grid
    PYTHONPATH=src python -m repro.sweep --verify         # batch == scalar
    PYTHONPATH=src python -m repro.sweep \\
        --axis fir_taps=63,125 --steps 201 --format csv --output grid.csv
"""

from .engine import (
    ENGINES,
    PointResult,
    duty_cycle_grid,
    evaluate_point,
    run_sweep,
)
from .report import FORMATS, SCHEMA, SweepReport
from .spec import SweepPoint, SweepSpec

__all__ = [
    "ENGINES",
    "FORMATS",
    "SCHEMA",
    "PointResult",
    "SweepPoint",
    "SweepSpec",
    "SweepReport",
    "duty_cycle_grid",
    "evaluate_point",
    "run_sweep",
]

"""Regeneration of every table and figure of the paper.

Each ``tableN()`` / ``figureN()`` function recomputes the published
artefact from the library's models and returns a structured result with a
``render()`` text form.  ``tests/test_paper.py`` checks each against the
published values and ``tests/goldens/`` pins the rendered tables.
"""

from .tables import (
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    TableResult,
)
from .figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure8,
    figure9,
    figure_duty_cycle,
    figure_pareto,
    figure_population,
)
from .scenarios import section7_scenarios

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "TableResult",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure8",
    "figure9",
    "figure_duty_cycle",
    "figure_pareto",
    "figure_population",
    "section7_scenarios",
]

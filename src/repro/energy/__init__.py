"""Energy accounting: technology scaling, power reports, comparison.

The paper's headline result (Table 7) is a power comparison across
architectures built in different technologies (0.25, 0.18, 0.13, 0.09 µm);
to compare fairly it scales every figure to 0.13 µm / 1.2 V using the
first-order CMOS dynamic-power rule

    P2 = P1 / ((V1/V2)^2 * (L1/L2)).

This package implements that rule (:mod:`~repro.energy.technology`), the
per-architecture report structures, the Table 7 builder
(:mod:`~repro.energy.comparison`) and the duty-cycle scenario analysis of
the conclusion (:mod:`~repro.energy.scenarios`).
"""

from .technology import (
    TechnologyNode,
    TECH_250NM,
    TECH_180NM,
    TECH_130NM,
    TECH_90NM,
    scale_power,
    scaling_factor,
)
from .comparison import ArchitectureComparison, ComparisonRow
from .scenarios import (
    ScenarioAnalysis,
    ScenarioCandidate,
    ScenarioGrid,
    ScenarioResult,
    duty_cycle_crossover,
    duty_grid,
)

__all__ = [
    "TechnologyNode",
    "TECH_250NM",
    "TECH_180NM",
    "TECH_130NM",
    "TECH_90NM",
    "scale_power",
    "scaling_factor",
    "ArchitectureComparison",
    "ComparisonRow",
    "ScenarioAnalysis",
    "ScenarioCandidate",
    "ScenarioGrid",
    "ScenarioResult",
    "duty_cycle_crossover",
    "duty_grid",
]

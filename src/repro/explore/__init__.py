"""Design-space exploration (``repro.explore``).

The paper is, at heart, a design-space study: which architecture wins
the DDC under which conditions.  The sweep subsystem evaluates fixed
grids; this package *searches*:

- :class:`~repro.explore.spec.ExploreSpec` — a declarative search
  space: one continuous refinement axis over a float
  :class:`~repro.config.DDCConfig` field, discrete configuration axes,
  a duty-cycle grid, Pareto objectives drawn from the implementation
  reports, deterministic seeding;
- :mod:`~repro.explore.pareto` — exact non-dominated frontiers,
  vectorised over whole :class:`~repro.archs.base.BatchImplementationReport`
  stacks, with a scalar double-loop oracle twin;
- :mod:`~repro.explore.refine` — adaptive refinement: coarse grid, then
  bisection of exactly the cells whose winner or frontier membership
  flips across a boundary, each round one batched model pass; plus the
  dense scalar oracle engine it is verified against;
- :mod:`~repro.explore.store` — a persistent on-disk JSONL spill of the
  per-process :class:`~repro.core.evaluator.ReportCache` and frontier
  snapshots, content-hash invalidated, so explorations warm-start
  across runs and processes.

CLI::

    PYTHONPATH=src python -m repro.explore                 # reference space
    PYTHONPATH=src python -m repro.explore --verify        # adaptive == dense
    PYTHONPATH=src python -m repro.explore \\
        --store runs/ddc.jsonl --summary                   # warm-started
"""

from .pareto import (
    frontier_from_batches,
    frontier_scalar,
    objective_values,
    pareto_mask,
    pareto_mask_scalar,
)
from .refine import (
    ENGINES,
    ArchSnapshot,
    CellOutcome,
    CellSnapshot,
    PointExploration,
    run_explore,
)
from .report import FORMATS, SCHEMA, ExploreReport
from .spec import OBJECTIVES, ExploreSpec
from .store import ReportStore, model_digest, space_digest

__all__ = [
    "ENGINES",
    "FORMATS",
    "OBJECTIVES",
    "SCHEMA",
    "ArchSnapshot",
    "CellOutcome",
    "CellSnapshot",
    "ExploreReport",
    "ExploreSpec",
    "PointExploration",
    "ReportStore",
    "frontier_from_batches",
    "frontier_scalar",
    "model_digest",
    "objective_values",
    "pareto_mask",
    "pareto_mask_scalar",
    "run_explore",
    "space_digest",
]

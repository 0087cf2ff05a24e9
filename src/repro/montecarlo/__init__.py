"""Population-scale Monte-Carlo scenario simulation.

Declare a user population (:class:`PopulationSpec` — seeded
distributions over duty cycle and any workload configuration axis), run
it (:func:`run_population`), and read distributions instead of point
answers: p50/p95/p99 power and battery life per architecture plus
winner-probability maps over duty cycle, as deterministic JSON.

The vectorised engine deduplicates samples to distinct configurations
(one batched model evaluation per distinct config) and streams the
per-sample math in fused numpy chunks; ``python -m repro.montecarlo
--verify`` proves it byte-identical to a per-sample scalar oracle loop.
See ``benchmarks/README.md`` ("Population simulation") for the spec
schema and the contracts.
"""

from .engine import (
    ENGINES,
    CandidateTable,
    ChunkFailure,
    ConfigFailure,
    build_candidate_table,
    dedup_axis_indices,
    run_population,
    sample_population,
)
from .report import (
    SCHEMA,
    ArchitectureStats,
    PopulationReport,
    battery_life_percentile,
    build_report,
    nearest_rank,
)
from .spec import (
    Choice,
    Distribution,
    Mixture,
    Normal,
    PopulationSpec,
    Uniform,
    parse_distribution,
)

__all__ = [
    "ENGINES",
    "SCHEMA",
    "ArchitectureStats",
    "CandidateTable",
    "Choice",
    "ChunkFailure",
    "ConfigFailure",
    "Distribution",
    "Mixture",
    "Normal",
    "PopulationReport",
    "PopulationSpec",
    "Uniform",
    "battery_life_percentile",
    "build_candidate_table",
    "build_report",
    "dedup_axis_indices",
    "nearest_rank",
    "parse_distribution",
    "run_population",
    "sample_population",
]

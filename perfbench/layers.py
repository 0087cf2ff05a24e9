"""Metric declarations shared by the runner, the worker and the self-test.

``END_TO_END`` and ``PER_LAYER`` are the two metric sets ``run.py``
prints (``--trace 0`` and ``--trace 1`` respectively); ``BENCHMARK.json``
at the repository root lists exactly the same names and units, and
``selftest.py`` checks that the two never drift apart.

``MOVES`` records, per layer, which end-to-end figure a change to that
layer should move and on which workload; the layer names are the
package's own modules.
"""

from __future__ import annotations

#: (name, unit, better) of the end-to-end metrics, every workload.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_s.ref", "s", "lower"),
)

#: The unit of work each workload delivers, with the name the workload's
#: median figure carries in the figures line of ``run.py``.
WORK_UNITS = {
    "cli_cold": ("invocations", "cli_s.p50"),
    "design_space": ("cells", "cells_per_s"),
    "population": ("users", "users_per_s"),
    "bit_true_stream": ("samples", "adc_samples_per_s"),
}

_CLIS = ("sweep", "explore", "montecarlo", "paper")
_MODELS = ("gc4016", "lowpower", "arm9", "cyclone1", "cyclone2", "montium")

#: (name, unit, better) of the per-layer metrics of the traced run.
#: Times and counts are per pass over the workload's operation sequence
#: (per invocation for ``cli.*``); a layer a workload never enters reads 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("import.repro_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.modules", "count", "lower"),
    *(
        (f"cli.{cli}.{part}", "s", "lower")
        for cli in _CLIS
        for part in ("import_s", "main_s")
    ),
    ("paper.render_tables_s", "s", "lower"),
    ("evaluator.report_batches_s", "s", "lower"),
    ("evaluator.candidates_s", "s", "lower"),
    ("evaluator.configs", "count", "lower"),
    ("evaluator.cache_lookups", "count", "lower"),
    ("evaluator.cache_hit_ratio", "ratio", "higher"),
    *((f"archs.{m}.implement_batch_s", "s", "lower") for m in _MODELS),
    ("archs.other.implement_batch_s", "s", "lower"),
    ("archs.reports", "count", "lower"),
    ("energy.evaluate_batch_s", "s", "lower"),
    ("energy.population_math_s", "s", "lower"),
    ("sweep.run_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.render_s", "s", "lower"),
    ("sweep.points", "count", "higher"),
    ("explore.run_s", "s", "lower"),
    ("explore.self_s", "s", "lower"),
    ("explore.pareto_s", "s", "lower"),
    ("explore.render_s", "s", "lower"),
    ("explore.cells_evaluated", "count", "lower"),
    ("explore.eval_ratio", "ratio", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.warm_hit_ratio", "ratio", "higher"),
    ("montecarlo.run_s", "s", "lower"),
    ("montecarlo.sample_s", "s", "lower"),
    ("montecarlo.dedup_s", "s", "lower"),
    ("montecarlo.table_s", "s", "lower"),
    ("montecarlo.stream_s", "s", "lower"),
    ("montecarlo.aggregate_s", "s", "lower"),
    ("montecarlo.render_s", "s", "lower"),
    ("montecarlo.distinct_configs", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("dsp.nco_s", "s", "lower"),
    ("dsp.cic_s", "s", "lower"),
    ("dsp.fir_s", "s", "lower"),
    ("dsp.fixed_ddc_s", "s", "lower"),
    ("dsp.stimulus_s", "s", "lower"),
    ("archs.rtl_block_s", "s", "lower"),
    ("archs.gpp_iss_s", "s", "lower"),
    ("archs.montium_tile_s", "s", "lower"),
    ("workloads.drm_receive_s", "s", "lower"),
    ("simkernel.rtl_cycle_s", "s", "lower"),
    ("simkernel.cycles_per_s", "1/s", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Metric-name prefix -> the end-to-end figure it should move, and where
#: (the longest matching prefix applies).
#: ``pass_s.ref`` is the median pass over the workload's operations (the
#: four cold CLI invocations on ``cli_cold``) at the reference host's
#: speed; in brackets, the figure of ``run.py``'s figures line that moves
#: with it.
MOVES = {
    "import.": "pass_s.ref (cli_s.p50) on cli_cold; setup_s on every workload",
    "cli.": "pass_s.ref (cli_s.p50) on cli_cold",
    "paper.": "pass_s.ref (cli_s.p50) on cli_cold",
    "evaluator.": "pass_s.ref (cells_per_s) on design_space; "
    "should not move population",
    "archs.rtl_": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "archs.gpp_": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "archs.montium_tile": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "archs.": "pass_s.ref (cells_per_s) on design_space",
    "energy.evaluate_batch": "pass_s.ref (cells_per_s) on design_space",
    "energy.population_math": "pass_s.ref (users_per_s) on population",
    "sweep.": "pass_s.ref (cells_per_s) on design_space",
    "explore.": "pass_s.ref (cells_per_s) on design_space",
    "store.": "pass_s.ref (cells_per_s) on design_space",
    "montecarlo.": "pass_s.ref (users_per_s) and peak_rss_mb on population",
    "parallel.": "pass_s.ref (users_per_s) on population",
    "dsp.stimulus": "setup_s on bit_true_stream",
    "dsp.": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "workloads.": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "simkernel.": "pass_s.ref (adc_samples_per_s) on bit_true_stream",
    "trace.": "none: a health check on the trace itself",
}

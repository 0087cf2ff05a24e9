"""Persistent throughput benchmark harness.

The paper's product is a quantitative architecture comparison, so the
repository's own execution speed is a tracked artefact: ``BENCH_dsp.json``
at the repo root records, for every row of :data:`runner.BENCHES`, the
throughput of one fast path (the fused DSP kernels, the RTL, ARM9 and
Montium simulators, the ``Simulator.step`` microkernel and the batched
sweep, explore and population engines) next to its bit-true oracle or
frozen seed loop, timed in the same run.  Future PRs regenerate the file
with

    PYTHONPATH=src python -m repro.bench

and CI guards every fast path marked ``guarded`` in the table (15 of
the 16 benches; see ``python -m repro.bench --list``) against >30 %
regressions with ``python -m repro.bench --quick --check BENCH_dsp.json``.

See ``benchmarks/README.md`` for the JSON schema and usage guide.
"""

from .report import check_regression, load_report, write_report
from .runner import BenchResult, run_dsp_suite, time_fn

__all__ = [
    "BenchResult",
    "run_dsp_suite",
    "time_fn",
    "write_report",
    "load_report",
    "check_regression",
]

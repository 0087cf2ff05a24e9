"""CLI entry point: ``PYTHONPATH=src python -m repro.bench``.

Runs the DSP/RTL/GPP throughput suite and writes ``BENCH_dsp.json``.
With ``--check`` it instead compares the run against a committed report
and exits non-zero on regression — the CI smoke guard.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigurationError
from ..telemetry import tracing
from .report import check_regression, load_report, write_report
from .runner import BENCH_NAMES, BENCHES, run_dsp_suite, select


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Throughput benchmark harness (writes BENCH_dsp.json).",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller inputs / fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the known bench names (one per line, guarded benches "
        "marked) and exit",
    )
    parser.add_argument(
        "--only", metavar="BENCH[,BENCH...]",
        help="run only the named benches (known: %s); a partial run "
        "writes bench-measured.json unless --output is given explicitly"
        % ", ".join(BENCH_NAMES),
    )
    parser.add_argument(
        "--output", default="BENCH_dsp.json",
        help="report path to write (default: %(default)s)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a committed report and exit 1 if any guarded "
        "bench regressed (the run itself goes to bench-measured.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="allowed fractional slowdown in --check mode "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL execution trace with one bench.run "
        "span per bench (wall time, warmup + repeats included); "
        "summarise with `python -m repro.telemetry PATH`",
    )
    args = parser.parse_args(argv)

    if args.list:
        for bench in BENCHES:
            print(bench.name + ("  [guarded]" if bench.guarded else ""))
        return 0

    only = None
    if args.only:
        only = {b.strip() for b in args.only.split(",") if b.strip()}
        try:
            select(only)
        except ConfigurationError as exc:
            print(f"--only: {exc}", file=sys.stderr)
            return 2

    committed = None
    if args.check:
        # Validate the baseline before spending minutes measuring.
        try:
            committed = load_report(args.check)
        except (OSError, ValueError, ConfigurationError) as exc:
            print(f"cannot use baseline {args.check}: {exc}", file=sys.stderr)
            return 2

    with tracing(args.trace):
        results = run_dsp_suite(
            quick=args.quick,
            progress=lambda m: print(m, flush=True),
            only=only,
        )

    print()
    width = max(map(len, results), default=0)
    for name, r in sorted(results.items()):
        line = f"{name:>{width}}: {r.samples_per_sec:>14,.0f} {r.unit}"
        if r.baseline_samples_per_sec:
            line += (
                f"   (baseline {r.baseline_samples_per_sec:>12,.0f},"
                f" speedup {r.speedup:.1f}x)"
            )
        print(line)

    out = args.output
    if out == "BENCH_dsp.json" and (committed is not None or only is not None):
        # Never clobber the committed full report with a check or partial
        # run.  CI publishes the check run's measured report as a workflow
        # artifact, making the perf trajectory inspectable per-PR.
        out = "bench-measured.json"
    write_report(out, results, quick=args.quick)
    print(f"\nwrote {out}")
    if committed is None:
        return 0

    # A deliberate partial run can only check what it measured.
    guard_names = tuple(b.name for b in select(only) if b.guarded)
    failures = check_regression(
        results, committed, names=guard_names, max_regression=args.max_regression
    )
    if failures:
        print("\nREGRESSION CHECK FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"regression check against {args.check}: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

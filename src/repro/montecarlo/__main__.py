"""CLI entry point: ``PYTHONPATH=src python -m repro.montecarlo``.

With no arguments it simulates a 100k-user population of the default
workload (the workload's declared duty-cycle and axis distributions)
and prints the JSON report.  ``--duty``/``--axis`` override the
distributions with the grammar of
:func:`~repro.montecarlo.spec.parse_distribution`, ``--workers N``
fans sample chunks out over a thread pool, and ``--verify``
proves the vectorised estimator byte-identical to the per-sample
scalar oracle loop while timing both (the shared flags: :mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from .. import cli
from ..errors import ConfigurationError
from .engine import run_population
from .spec import PopulationSpec, parse_distribution

#: Default sample counts; ``--verify`` also runs the per-sample python
#: oracle, so it defaults smaller (still >= 10^4).
DEFAULT_SAMPLES = 100_000
DEFAULT_VERIFY_SAMPLES = 20_000


def _parse_axis(text: str) -> tuple[str, object]:
    name, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ConfigurationError(f"--axis expects FIELD=DISTRIBUTION, got {text!r}")
    return name.strip(), parse_distribution(raw)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The population study's own flags."""
    add = parser.add_argument
    add("--samples", type=int, default=None, metavar="N",
        help=f"population size (default: {DEFAULT_SAMPLES}, or "
        f"{DEFAULT_VERIFY_SAMPLES} under --verify)")
    add("--seed", type=int, default=0,
        help="RNG seed; identical specs+seeds give byte-identical "
        "reports (default: %(default)s)")
    add("--duty", default=None, metavar="DIST",
        help="duty-cycle distribution, e.g. 'uniform(0,1)' or "
        "'normal(0.3,0.1,0,1)' (default: the workload's declared "
        "distribution); must be bounded within [0, 1]")
    add("--axis", action="append", default=[], metavar="FIELD=DIST",
        help="configuration-axis distribution (repeatable), e.g. "
        "fir_taps='choice(63,125,255)' or 'choice(1:0.6,2:0.4)' or "
        "'trace(63,125,63)'; must be discrete (choice/trace/point); "
        "default: the workload's declared population axes")
    add("--battery-wh", type=float, default=3.7,
        help="battery capacity for life distributions "
        "(default: %(default)s Wh)")
    add("--duty-bins", type=int, default=10,
        help="duty-cycle bins of the winner-probability map "
        "(default: %(default)s)")
    add("--chunk-samples", type=int, default=65_536,
        help="streaming chunk size (execution knob: reports are "
        "byte-identical across values; default: %(default)s)")


def build_spec(args: argparse.Namespace) -> PopulationSpec:
    """Translate parsed CLI arguments into a PopulationSpec."""
    n_samples = args.samples
    if n_samples is None:
        n_samples = DEFAULT_VERIFY_SAMPLES if args.verify else DEFAULT_SAMPLES
    return PopulationSpec(
        workload=args.workload,
        n_samples=n_samples,
        seed=args.seed,
        duty_cycle=parse_distribution(args.duty) if args.duty else None,
        axes=tuple(_parse_axis(a) for a in args.axis) if args.axis else None,
        standby_fraction=args.standby_fraction,
        battery_wh=args.battery_wh,
        duty_bins=args.duty_bins,
        chunk_samples=args.chunk_samples,
        on_error=args.on_error,
    )


COMMAND = cli.Command(
    prog="python -m repro.montecarlo",
    description="Population-scale Monte-Carlo scenario simulation.",
    engines=("vector", "scalar"),
    add_arguments=add_arguments,
    build_spec=build_spec,
    run=lambda args, spec, engine, pooled: run_population(
        spec, workers=args.workers if pooled else None, engine=engine,
    ),
    warm_spec=lambda spec: replace(spec, n_samples=64, chunk_samples=32),
    verify_detail=lambda spec, fast, oracle: (
        f"{spec.n_samples} samples, {fast.n_distinct_configs} distinct "
        "configs"
    ),
    lost=lambda report: f"{report.n_dropped_samples} sample(s) dropped",
)


def main(argv: list[str] | None = None) -> int:
    return cli.main(COMMAND, argv)


if __name__ == "__main__":
    raise SystemExit(main())

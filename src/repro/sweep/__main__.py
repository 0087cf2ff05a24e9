"""CLI entry point: ``PYTHONPATH=src python -m repro.sweep``.

With no arguments it regenerates the Table 7 scenario grid — the paper's
feasible architectures against the 0..1 duty-cycle grid — through the
batched engine and prints the JSON report.  ``--axis`` adds configuration
axes, ``--backend process --workers N`` fans points out over a process
pool, and ``--verify`` proves the batched run byte-identical to the
scalar oracle while timing both (the shared flags: :mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from .. import cli
from .engine import run_sweep
from .report import FORMATS
from .spec import SweepSpec


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep's own flags."""
    add = parser.add_argument
    add("--axis", action="append", default=[], metavar="FIELD=V1,V2,...",
        help="add a configuration sweep axis over the workload's fields "
        "(repeatable); no axes = the workload's reference configuration "
        "(for ddc, the Table 7 scenario grid)")
    add("--steps", type=int, default=101,
        help="duty-cycle grid size over [0, 1] (default: %(default)s)")
    add("--architectures", default=None, metavar="NAME,NAME,...",
        help="restrict candidates to these architecture names")


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Translate parsed CLI arguments into a SweepSpec."""
    return SweepSpec.from_axes(
        dict(cli.value_axis(a) for a in args.axis),
        duty_cycle_steps=args.steps,
        architectures=(
            cli.names(args.architectures) if args.architectures else None
        ),
        standby_fraction=args.standby_fraction,
        on_error=args.on_error,
        workload=args.workload,
    )


COMMAND = cli.Command(
    prog="python -m repro.sweep",
    description="Batched scenario sweeps over configuration grids.",
    engines=("batch", "scalar"),
    add_arguments=add_arguments,
    build_spec=build_spec,
    run=lambda args, spec, engine, pooled: run_sweep(
        spec, workers=args.workers if pooled else None,
        backend=args.backend, engine=engine,
    ),
    warm_spec=lambda spec: replace(spec, duty_cycle_steps=2),
    verify_detail=lambda spec, fast, oracle: f"{spec.n_grid_cells} grid cells",
    lost=lambda report: f"{len(report.failures)} point(s) failed",
    formats=FORMATS,
)


def main(argv: list[str] | None = None) -> int:
    return cli.main(COMMAND, argv)


if __name__ == "__main__":
    raise SystemExit(main())

"""CLI entry point: ``PYTHONPATH=src python -m repro.explore``.

With no arguments it explores the reference space — the paper's DDC over
an input-rate axis spanning both Cyclone f_max thresholds — adaptively
and prints the JSON frontier report.  ``--store PATH`` warm-starts the
report cache from (and spills it back to) an on-disk store so repeated
explorations across processes skip re-running the models (a damaged
store is refused with exit 2; delete it to start cold); ``--verify``
runs the adaptive engine *and* the dense scalar oracle, requires their
reports byte-identical, and reports the measured speedup and how few
cells the adaptive engine actually evaluated (the shared flags:
:mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
import sys

from .. import cli
from ..core.evaluator import ReportCache
from ..errors import ConfigurationError
from ..workloads import get as get_workload
from .refine import run_explore
from .report import FORMATS
from .spec import ExploreSpec
from .store import ReportStore


def _parse_axis(text: str) -> tuple[str, float, float]:
    """``field=lo:hi`` for the continuous axis."""
    name, sep, raw = text.partition("=")
    lo, sep2, hi = raw.partition(":")
    if not sep or not sep2:
        raise ConfigurationError(f"--axis expects field=lo:hi, got {text!r}")
    try:
        return name.strip(), float(lo), float(hi)
    except ValueError:
        raise ConfigurationError(f"axis bounds must be numbers, got {raw!r}") from None


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The explorer's own flags."""
    add = parser.add_argument
    add("--axis", default=None, metavar="FIELD=LO:HI",
        help="continuous refinement axis (default: the workload's "
        "reference axis; for ddc, input_rate_hz over the reference space)")
    add("--coarse", type=int, default=5,
        help="initial coarse grid size (default: %(default)s)")
    add("--target", type=int, default=65,
        help="target axis resolution; (target-1) must be (coarse-1)*2^k "
        "(default: %(default)s)")
    add("--discrete-axis", action="append", default=[],
        metavar="FIELD=V1,V2,...",
        help="add a discrete DDCConfig axis (repeatable)")
    add("--steps", type=int, default=101,
        help="duty-cycle grid size over [0, 1] (default: %(default)s)")
    add("--objectives", default=None, metavar="NAME,NAME,...",
        help="Pareto objectives (default: power_w,area_mm2)")
    add("--architectures", default=None, metavar="NAME,NAME,...",
        help="restrict candidates to these architecture names")
    add("--probes", type=int, default=0,
        help="extra seeded round-0 probe cells (default: %(default)s)")
    add("--seed", type=int, default=0,
        help="probe-draw seed (default: %(default)s)")
    add("--budget", type=int, default=None,
        help="max evaluated cells per discrete point (default: none)")
    add("--store", default=None, metavar="PATH",
        help="on-disk report store: warm-start the report cache from it "
        "and spill the cache (plus this frontier) back after the run")


def build_spec(args: argparse.Namespace) -> ExploreSpec:
    """Translate parsed CLI arguments into an ExploreSpec."""
    if args.store and (args.verify or args.engine != "adaptive"):
        # Silently skipping persistence would strand the user's next
        # warm start; say so instead.
        raise ConfigurationError(
            "--store needs the adaptive engine (the dense oracle and "
            "--verify run deliberately uncached)"
        )
    kwargs: dict = {}
    if args.axis:
        kwargs["axis"] = _parse_axis(args.axis)
    if args.architectures:
        kwargs["architectures"] = cli.names(args.architectures)
    if args.objectives:
        kwargs["objectives"] = cli.names(args.objectives)
    return ExploreSpec(
        coarse_steps=args.coarse,
        target_steps=args.target,
        discrete_axes=tuple(
            cli.value_axis(a, flag="--discrete-axis")
            for a in args.discrete_axis
        ),
        duty_cycle_steps=args.steps,
        standby_fraction=args.standby_fraction,
        probe_points=args.probes,
        seed=args.seed,
        max_evaluations=args.budget,
        on_error=args.on_error,
        workload=args.workload,
        **kwargs,
    )


def _note(message: str) -> None:
    print(f"store: {message}", file=sys.stderr)


def _run(args: argparse.Namespace, spec: ExploreSpec, engine: str, pooled):
    """One exploration; the ``--store`` hooks wrap the adaptive engine."""
    workload = get_workload(spec.workload)
    if args.verify:
        # Fresh caches/evaluators per engine so the comparison (and the
        # timing) is cold-start honest on both sides.
        cache = ReportCache() if engine == "adaptive" else None
        return run_explore(spec, engine, workload.evaluator(cache=cache))
    if not args.store:
        return run_explore(spec, engine)
    evaluator = workload.shared_evaluator()
    store = ReportStore(args.store)
    loaded = store.load(evaluator.cache, evaluator.models)
    _note(f"warm-started {loaded} report(s) from {args.store}")
    report = run_explore(spec, engine, evaluator)
    total = store.save(evaluator.cache)
    store.save_frontier(spec, evaluator.models, report.to_json_doc())
    _note(f"spilled cache ({total} report(s)) and frontier to {args.store}")
    return report


def _warm_hit_line(args: argparse.Namespace, hits: int, misses: int):
    """How much of a ``--store`` run the warm-started cache served."""
    lookups = hits + misses
    if not (args.store and lookups):
        return []
    return [
        f"store warm-hit rate: {hits / lookups:.1%} ({hits}/{lookups} "
        "lookups served without a model run)"
    ]


COMMAND = cli.Command(
    prog="python -m repro.explore",
    description="Design-space exploration: Pareto frontiers over "
    "configuration axes with adaptive refinement.",
    engines=("adaptive", "dense"),
    add_arguments=add_arguments,
    build_spec=build_spec,
    run=_run,
    warm_spec=lambda spec: ExploreSpec(
        axis=spec.axis, coarse_steps=2, target_steps=2, duty_cycle_steps=2,
        workload=spec.workload,
    ),
    verify_detail=lambda spec, fast, oracle: (
        f"{spec.n_cells} cells at target resolution; adaptive evaluated "
        f"{fast.evaluations}, dense {oracle.evaluations}"
    ),
    lost=lambda report: "{} cell(s) failed".format(
        sum(cell.failed for p in report.points for cell in p.cells)
    ),
    formats=FORMATS,
    pooled=False,
    extra_lines=_warm_hit_line,
)


def main(argv: list[str] | None = None) -> int:
    return cli.main(COMMAND, argv)


if __name__ == "__main__":
    raise SystemExit(main())

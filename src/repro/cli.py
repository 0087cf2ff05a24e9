"""The one command-line scaffold under the sweep, explore and montecarlo CLIs.

The three studies answer the paper's who-wins-where question at three
input shapes (grid points, refined cells, sampled users).  Each
``__main__`` declares only its own flags, spec builder and engine pair
as a :class:`Command`; :func:`main` owns the rest: the shared flags,
each declared and documented once; ``--trace``; the stderr-only
``--metrics`` epilogue, which only reads counters; ``--verify`` (warm
both engines on a tiny spec, time the production engine and the scalar
oracle, require byte-identical reports); and the exit codes: 0 success,
1 ``--verify`` divergence, 2 error (any :class:`~repro.errors.ReproError`,
or an :class:`OSError` on a path the user named, such as an unwritable
``--output``/``--trace`` file), 3 partial report (failures recorded under
``--on-error skip|retry``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigurationError, ReproError
from .resilience import ON_ERROR_POLICIES
from .telemetry import tracing
from .workloads import DEFAULT_WORKLOAD, available, get


@dataclass(frozen=True)
class Command:
    """What one study CLI adds to the scaffold."""

    prog: str
    description: str
    engines: tuple[str, str]  # (production engine, scalar oracle)
    add_arguments: Callable[[argparse.ArgumentParser], None]
    build_spec: Callable[[argparse.Namespace], Any]
    #: ``(args, spec, engine, pooled) -> report``; ``pooled=False`` runs
    #: serially whatever ``--workers`` says (warm-ups, the timed oracle).
    run: Callable[..., Any]
    warm_spec: Callable[[Any], Any]  # the tiny spec --verify warms up on
    #: ``(spec, fast report, oracle report) -> str``: what was verified.
    verify_detail: Callable[[Any, Any, Any], str]
    lost: Callable[[Any], str]  # what a partial report lost
    formats: tuple[str, ...] = ()  # --format choices, if several
    pooled: bool = True  # has --workers
    #: ``(args, hits, misses) -> lines`` printed after the report-cache
    #: line of ``--summary`` and ``--metrics``.
    extra_lines: Callable[..., list[str]] = lambda args, hits, misses: []


def _add_shared(parser: argparse.ArgumentParser, command: Command) -> None:
    """Declare and document the flags every study shares."""
    fast, oracle = command.engines
    add = parser.add_argument
    add("--workload", default=DEFAULT_WORKLOAD, metavar="NAME",
        help=f"workload to study, one of: {', '.join(available())} "
        "(default: %(default)s)")
    add("--standby-fraction", type=float, default=0.05,
        help="fixed-function idle power as a fraction of active power "
        "(default: %(default)s)")
    if command.pooled:
        add("--workers", type=int, default=None,
            help="fan the work out over a thread pool of at most this many "
            "threads, capped at the CPU count (default: serial)")
    add("--engine", choices=command.engines, default=fast,
        help=f"evaluation path ({oracle} = the scalar oracle; "
        "default: %(default)s)")
    add("--on-error", choices=ON_ERROR_POLICIES, default="raise",
        help="failure policy: raise = abort on the first failure, skip = "
        "record it and continue, retry = retry it first and record it "
        "only if every attempt fails; a report with recorded failures is "
        "marked partial and exits with status 3 (default: %(default)s)")
    if command.formats:
        add("--format", choices=command.formats, default=command.formats[0],
            help="report format (default: %(default)s)")
    add("--output", default="-", metavar="PATH",
        help="report path, '-' = stdout (default: stdout)")
    add("--summary", action="store_true",
        help="print a human-readable digest instead of the report")
    add("--verify", action="store_true",
        help=f"run BOTH engines ({fast} and the {oracle} oracle), require "
        "byte-identical reports and report the measured speedup; exits 1 "
        "on any divergence")
    add("--trace", default=None, metavar="PATH",
        help="write a JSONL execution trace of this run (pool threads "
        "included) to PATH; summarise it with "
        "`python -m repro.telemetry PATH`")
    add("--metrics", action="store_true",
        help="print report-cache hit rates to stderr (never touches the "
        "report on stdout)")


def main(command: Command, argv: list[str] | None = None) -> int:
    """Parse ``argv``, run ``command`` and return its exit code."""
    parser = argparse.ArgumentParser(
        prog=command.prog, description=command.description
    )
    _add_shared(parser, command)
    command.add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        _check_verify_flags(args)
        _check_paths(args)
        with tracing(args.trace):
            spec = command.build_spec(args)
            before = cache_counts(spec.workload)
            run = _verify if args.verify else _report
            return run(command, args, spec, before)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _check_verify_flags(args: argparse.Namespace) -> None:
    """Refuse report flags ``--verify`` would silently drop: it prints
    only its verdict line."""
    if not args.verify:
        return
    for flag, given in (("--output", args.output != "-"),
                        ("--summary", args.summary)):
        if given:
            raise ConfigurationError(
                f"--verify prints only its verdict; drop {flag}"
            )


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an ``--output``/``--trace`` path that cannot be a file
    before any work starts, not after the run."""
    for flag, path in (("--output", args.output), ("--trace", args.trace)):
        if path in (None, "-"):
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigurationError(f"{flag} {path}: is a directory")
        if not target.parent.is_dir():
            raise ConfigurationError(
                f"{flag} {path}: {target.parent} is not a directory"
            )


def _report(command: Command, args, spec, before) -> int:
    """One run of the selected engine: the report, then the exit code."""
    report = command.run(args, spec, args.engine, True)
    extra = command.extra_lines(args, *_cache_delta(before, spec.workload))
    if args.summary:
        print(report.summary())
        print(_cache_line(before, spec.workload), *extra, sep="\n")
    elif args.output == "-":
        _write_stdout(_render(report, args))
    else:
        Path(args.output).write_text(_render(report, args))
        print(f"wrote {args.output}")
    if args.metrics:
        _print_metrics(before, spec.workload, extra)
    if not report.partial:
        return 0
    print(f"warning: partial report — {command.lost(report)} under "
          f"--on-error {spec.on_error}", file=sys.stderr)
    return 3


def _verify(command: Command, args, spec, before) -> int:
    """Time both engines on ``spec`` and require byte-identical reports."""
    fast, oracle = command.engines
    # Warm the model/numpy import paths so the timed runs compare the
    # engines, not first-call costs.
    warm = command.warm_spec(spec)
    for engine in command.engines:
        command.run(args, warm, engine, False)
    fast_report, t_fast = _timed(command.run, args, spec, fast, True)
    oracle_report, t_oracle = _timed(command.run, args, spec, oracle, False)
    text = _render(fast_report, args)
    if text != _render(oracle_report, args):
        print(f"VERIFY FAILED: {fast} and {oracle} reports differ", file=sys.stderr)
        return 1
    detail = command.verify_detail(spec, fast_report, oracle_report)
    print(f"verify OK: {len(text.encode())} bytes identical across engines "
          f"({detail})")
    # wall times vary run to run: keep them off stdout so it can be cmp'd
    print(f"  {fast} {t_fast * 1e3:.2f} ms, {oracle} {t_oracle * 1e3:.2f} ms, "
          f"speedup {t_oracle / t_fast:.1f}x", file=sys.stderr)
    if args.metrics:
        _print_metrics(before, spec.workload, [])
    return 0


def _write_stdout(text: str) -> None:
    """All of ``text`` on stdout, or an :class:`OSError`.

    An unbuffered stdout (``PYTHONUNBUFFERED``) hands one write straight
    to the raw file, which takes only part of it once a pipe's reader
    has left; the text layer would drop the rest unreported.  Looping
    on the byte layer turns that into the same ``BrokenPipeError`` a
    buffered stdout raises, and stdout then points at devnull so the
    flush at interpreter exit does not hit the closed pipe again.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # an in-memory text stream takes every write whole
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    try:
        while data:
            data = data[out.write(data):]
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _timed(fn: Callable[..., Any], *args) -> tuple[Any, float]:
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _render(report, args: argparse.Namespace) -> str:
    fmt = getattr(args, "format", None)
    return report.render(fmt) if fmt else report.render()


# ------------------------------------------------------------ argument helpers
def value_axis(text: str, flag: str = "--axis") -> tuple[str, tuple]:
    """``name=v1,v2,...`` with int-then-float value coercion: the grammar
    of the sweep's ``--axis`` and the explorer's ``--discrete-axis``
    (``flag`` names the option in error messages)."""
    name, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ConfigurationError(
            f"{flag} expects name=v1,v2,... got {text!r}"
        )

    def coerce(token: str):
        for kind in (int, float):
            try:
                return kind(token)
            except ValueError:
                pass
        raise ConfigurationError(f"axis {name!r}: {token!r} is not a number")

    return name.strip(), tuple(coerce(t) for t in raw.split(",") if t)


def names(text: str) -> tuple[str, ...]:
    """``A,B,...`` as a tuple of stripped, non-empty names."""
    return tuple(n.strip() for n in text.split(",") if n.strip())


# ------------------------------------------------------------------- metrics
def cache_counts(workload: str) -> tuple[int, int]:
    """``(hits, misses)`` of the workload's shared per-process cache."""
    cache = get(workload).shared_evaluator().cache
    return cache.hits, cache.misses


def _cache_delta(before, workload: str) -> tuple[int, int]:
    hits, misses = cache_counts(workload)
    return hits - before[0], misses - before[1]


def _cache_line(before, workload: str) -> str:
    """Shared-cache behaviour since ``before``; the scalar oracles run
    uncached by design, so a zero-lookup run is stated, not divided by."""
    hits, misses = _cache_delta(before, workload)
    if not hits + misses:
        return (
            "report-cache: no shared-cache lookups in this run "
            "(scalar paths run uncached by design)"
        )
    return (
        f"report-cache: {hits} hit(s), {misses} miss(es) — "
        f"{hits / (hits + misses):.1%} hit rate over {hits + misses} "
        "lookup(s)"
    )


def _print_metrics(before, workload: str, extra: list[str]) -> None:
    """The ``--metrics`` epilogue: cache behaviour on stderr."""
    print(_cache_line(before, workload), *extra, sep="\n", file=sys.stderr)

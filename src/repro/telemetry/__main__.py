"""CLI: summarise a trace produced by the ``--trace`` flags.

``python -m repro.telemetry TRACE`` reads the trace file a ``--trace
PATH`` run wrote and prints per-span-name duration stats, counter
totals, report-cache hit rates, worker utilisation and the top-N
slowest spans.  ``--json`` emits the summary
document instead, for machine consumers (CI artifacts).

Exit codes: 0 summary rendered; 1 stdout closed before the whole
summary was written (a reader such as ``| head`` stopped early; no
traceback is printed); 2 unreadable or empty trace.
"""

from __future__ import annotations

import argparse
import os
import sys

from .._json import dumps_report
from . import load_trace
from .summary import render, summarize


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarise a repro execution trace (JSONL).",
    )
    parser.add_argument(
        "trace",
        help="trace file written by --trace PATH",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest spans to list (default %(default)s)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of text",
    )
    args = parser.parse_args(argv)

    try:
        records = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"error: no trace records in {args.trace!r}", file=sys.stderr)
        return 2

    doc = summarize(records)
    if args.json:
        text = dumps_report(doc)[:-1]  # print adds the newline
    else:
        text = render(doc, top=args.top)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does
        # not hit the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

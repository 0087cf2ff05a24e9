"""Trace summarisation: duration stats, cache rates, worker utilisation.

:func:`summarize` reduces a record list (from
:func:`repro.telemetry.load_trace`) to a plain JSON-able dict;
:func:`render` formats that dict as the text report the
``python -m repro.telemetry`` CLI prints:

- per-span-name duration stats (count / total / mean / max);
- counter totals, with a per-``(primitive, engine)`` breakdown for
  ``kernel.dispatch`` so the resolved kernel tier is visible per trace;
- histogram stats (batch sizes);
- report-cache hit rate from the ``cache.hit`` / ``cache.miss``
  counters;
- worker utilisation: for every thread (keyed ``pid/tid``) that
  executed ``parallel.task`` spans, busy seconds over its active
  wall-clock window;
- the top-N slowest individual spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

#: Span name emitted by ``repro.parallel`` around every task execution.
TASK_SPAN = "parallel.task"

#: Counter emitted by :func:`repro.kernels.dispatch`.
DISPATCH_COUNTER = "kernel.dispatch"


def _span_stats(durs: list[float]) -> dict[str, Any]:
    total = sum(durs)
    return {
        "count": len(durs),
        "total_s": total,
        "mean_s": total / len(durs),
        "max_s": max(durs),
    }


def summarize(records: list[dict]) -> dict[str, Any]:
    """Reduce trace records to the summary document (see module doc)."""
    span_durs: dict[str, list[float]] = defaultdict(list)
    spans: list[dict] = []
    counters: dict[str, int] = defaultdict(int)
    dispatch: dict[str, int] = defaultdict(int)
    hist: dict[str, list[float]] = defaultdict(list)
    tasks: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)

    for rec in records:
        kind = rec.get("kind")
        name = rec.get("name", "?")
        if kind == "span":
            dur = float(rec.get("dur", 0.0))
            span_durs[name].append(dur)
            spans.append(rec)
            if name == TASK_SPAN:
                key = (int(rec.get("pid", 0)), int(rec.get("tid", 0)))
                tasks[key].append((float(rec.get("t0", 0.0)), dur))
        elif kind == "counter":
            value = int(rec.get("value", 1))
            counters[name] += value
            if name == DISPATCH_COUNTER:
                attrs = rec.get("attrs", {})
                tier = f"{attrs.get('primitive', '?')}={attrs.get('engine', '?')}"
                dispatch[tier] += value
        elif kind == "histogram":
            hist[name].append(float(rec.get("value", 0.0)))

    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    lookups = hits + misses

    workers = {}
    for (pid, tid), intervals in sorted(tasks.items()):
        busy = sum(d for _, d in intervals)
        start = min(t0 for t0, _ in intervals)
        end = max(t0 + d for t0, d in intervals)
        wall = end - start
        workers[f"{pid}/{tid}"] = {
            "tasks": len(intervals),
            "busy_s": busy,
            "wall_s": wall,
            "utilisation": busy / wall if wall > 0 else 1.0,
        }

    slowest = sorted(
        spans, key=lambda r: float(r.get("dur", 0.0)), reverse=True
    )
    return {
        "records": len(records),
        "spans": {
            name: _span_stats(durs)
            for name, durs in sorted(span_durs.items())
        },
        "counters": dict(sorted(counters.items())),
        "kernel_dispatch": dict(sorted(dispatch.items())),
        "histograms": {
            name: {
                "count": len(vals),
                "total": sum(vals),
                "mean": sum(vals) / len(vals),
                "min": min(vals),
                "max": max(vals),
            }
            for name, vals in sorted(hist.items())
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else None,
        },
        "workers": workers,
        "slowest": [
            {
                "name": r.get("name", "?"),
                "dur_s": float(r.get("dur", 0.0)),
                "pid": r.get("pid"),
                "attrs": r.get("attrs", {}),
            }
            for r in slowest
        ],
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f}ms"
    return f"{seconds * 1e6:7.1f}us"


def render(summary: dict[str, Any], top: int = 10) -> str:
    """The text report for one summary document."""
    lines = [f"trace: {summary['records']} record(s)"]

    if summary["spans"]:
        lines.append("")
        lines.append("spans (per name):")
        lines.append(
            f"  {'name':<24} {'count':>7} {'total':>10} "
            f"{'mean':>10} {'max':>10}"
        )
        for name, st in summary["spans"].items():
            lines.append(
                f"  {name:<24} {st['count']:>7} {_fmt_s(st['total_s']):>10} "
                f"{_fmt_s(st['mean_s']):>10} {_fmt_s(st['max_s']):>10}"
            )

    cache = summary["cache"]
    if cache["hits"] or cache["misses"]:
        rate = cache["hit_rate"]
        lines.append("")
        lines.append(
            f"report-cache: {cache['hits']} hit(s), "
            f"{cache['misses']} miss(es)"
            + (f" — {rate:.1%} hit rate" if rate is not None else "")
        )

    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in summary["counters"].items():
            lines.append(f"  {name:<24} {value:>10}")

    if summary["kernel_dispatch"]:
        lines.append("")
        lines.append("kernel dispatch (primitive=engine):")
        for tier, value in summary["kernel_dispatch"].items():
            lines.append(f"  {tier:<24} {value:>10}")

    if summary["histograms"]:
        lines.append("")
        lines.append("histograms:")
        for name, st in summary["histograms"].items():
            lines.append(
                f"  {name:<24} n={st['count']} mean={st['mean']:.1f} "
                f"min={st['min']:g} max={st['max']:g}"
            )

    if summary["workers"]:
        lines.append("")
        lines.append("worker utilisation (pid/tid over parallel.task spans):")
        lines.append(
            f"  {'worker':<24} {'tasks':>7} {'busy':>10} "
            f"{'wall':>10} {'util':>7}"
        )
        for worker, st in summary["workers"].items():
            lines.append(
                f"  {worker:<24} {st['tasks']:>7} {_fmt_s(st['busy_s']):>10} "
                f"{_fmt_s(st['wall_s']):>10} {st['utilisation']:>6.1%}"
            )

    slowest = summary["slowest"][:top]
    if slowest:
        lines.append("")
        lines.append(f"slowest {len(slowest)} span(s):")
        for rec in slowest:
            attrs = ", ".join(
                f"{k}={v!r}" for k, v in sorted(rec["attrs"].items())
            )
            lines.append(
                f"  {_fmt_s(rec['dur_s']):>10}  {rec['name']}"
                + (f"  [{attrs}]" if attrs else "")
            )

    return "\n".join(lines)

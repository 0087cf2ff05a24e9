"""JSON reporting and regression checking for the benchmark harness.

``BENCH_dsp.json`` schema (``repro-bench-dsp/v1``)::

    {
      "schema": "repro-bench-dsp/v1",
      "quick": false,
      "n_samples": 86016,
      "benches": {
        "<name>": {
          "samples_per_sec": <after: the fast path measured now>,
          "seconds": ..., "repeats": ..., "n_samples": ...,
          "baseline_samples_per_sec": <before: seed-equivalent path,
                                       when one still exists in-tree>,
          "baseline_seconds": ..., "speedup": ..., "notes": "..."
        }, ...
      }
    }

The committed file is the perf trajectory's baseline: regenerating it and
diffing shows the before/after of any perf PR, and
:func:`check_regression` lets CI fail when a hot path gets slower.
"""

from __future__ import annotations

import json
from pathlib import Path

from .._json import dumps_report
from ..errors import ConfigurationError
from .runner import GUARDED_BENCHES, BenchResult

SCHEMA = "repro-bench-dsp/v1"


def write_report(
    path: str | Path, results: dict[str, BenchResult], quick: bool
) -> dict:
    """Serialise bench results to ``path``; returns the written document."""
    doc = {
        "schema": SCHEMA,
        "quick": quick,
        "n_samples": max((r.n_samples for r in results.values()), default=0),
        "benches": {name: r.to_json() for name, r in results.items()},
    }
    Path(path).write_text(dumps_report(doc))
    return doc


def load_report(path: str | Path) -> dict:
    """Load and validate a previously written report."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path}: unknown bench schema {doc.get('schema')!r}"
        )
    return doc


def check_regression(
    results: dict[str, BenchResult],
    committed: dict,
    names: tuple[str, ...] = GUARDED_BENCHES,
    max_regression: float = 0.30,
) -> list[str]:
    """Compare current throughput against the committed baseline file.

    Returns a list of human-readable failure strings (empty = pass).  A
    bench fails when its current throughput falls more than
    ``max_regression`` below the committed value; missing benches on
    either side are reported as failures too, so the guard cannot rot
    silently.

    Absolute samples/sec depends on the machine; the committed file may
    come from different hardware than a CI runner.  When both sides also
    carry a measured ``speedup`` (fast path vs the seed baseline timed in
    the *same* run, which cancels machine speed), a bench whose absolute
    number regressed but whose speedup held is treated as a slow machine,
    not a code regression.
    """
    failures: list[str] = []
    benches = committed.get("benches", {})
    for name in names:
        if name not in results:
            failures.append(f"{name}: not measured by this run")
            continue
        if name not in benches:
            failures.append(f"{name}: missing from committed baseline")
            continue
        ref = float(benches[name]["samples_per_sec"])
        cur, unit = results[name].samples_per_sec, results[name].unit
        floor = (1.0 - max_regression) * ref
        if cur >= floor:
            continue
        ref_speedup = benches[name].get("speedup")
        cur_speedup = results[name].speedup
        if ref_speedup and cur_speedup:
            if cur_speedup >= (1.0 - max_regression) * float(ref_speedup):
                continue  # machine-normalised ratio held: not a regression
        failures.append(
            f"{name}: {cur:,.0f} {unit} is >{max_regression:.0%} below the "
            f"committed {ref:,.0f} {unit}"
        )
    return failures

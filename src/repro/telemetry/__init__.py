"""Process-wide tracing and metrics for the evaluation stack.

The stack (batched models, adaptive explore, the thread pool, the
Monte-Carlo population engine) is a black box at runtime without this
package: counters such as ``ReportCache.hits`` are tallied but reported
nowhere.  It makes per-phase cost, cache efficacy and worker behaviour
visible — and provably free when disabled.

Two primitives:

- :func:`span` — a context manager timing one phase.  Span names reuse
  the :mod:`repro.faults` site vocabulary (``sweep.point``,
  ``explore.cell``, ``explore.round``, ``montecarlo.chunk``) so chaos
  tests and traces describe the same places, plus seam-level names
  (``parallel.task``, ``store.load``, ``bench.run``).
- :func:`counter` / :func:`histogram` — point metrics (cache hits,
  batch sizes, kernel dispatches).

**Disabled is the default and costs (almost) nothing.**  A module-level
flag is checked once per call; :func:`span` returns a shared no-op
singleton and the metric functions return immediately — no allocation,
no locking, no buffering.  ``tests/test_telemetry.py`` pins both the
structure (nothing reaches the emit path when disabled) and a generous
wall-clock bound on the ``parallel_map`` hot path.

**Collection.**  :func:`tracing` (what the ``--trace PATH`` CLI flags
use) arms tracing for a block; records from every thread buffer in
memory, stamped ``(pid, tid, seq)``, and on exit the trace is written to
``PATH`` once: a ``repro-trace/v1`` header line, then one record per
line in emission order.  The write is atomic (temp file +
``os.replace``), through the same helper as
:class:`repro.explore.store.ReportStore`.
:func:`load_trace` reads such a file back.

**Telemetry never perturbs results.**  Timestamps and durations live
only in trace records, never in reports; the three ``--verify`` CLIs
stay byte-identical with ``--trace`` active (pinned by tests).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .._atomic import write_atomic

#: Schema tag written into trace headers.
SCHEMA = "repro-trace/v1"

# ----------------------------------------------------------------- state
#: The one flag the hot path checks.  Everything else lives behind it.
_enabled = False

_LOCK = threading.Lock()
_seq = 0
_records: list[dict] = []


class _NullSpan:
    """The shared no-op returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timed span; emits one record on exit."""

    __slots__ = ("name", "attrs", "_t0", "_p0")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = time.time()
        self._p0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._p0
        attrs = self.attrs
        if exc_type is not None:
            attrs = dict(attrs)
            attrs["error"] = exc_type.__name__
        _emit(
            {
                "kind": "span",
                "name": self.name,
                "t0": self._t0,
                "dur": dur,
                "attrs": attrs,
            }
        )
        return False


# ------------------------------------------------------------- emit path
def _emit(record: dict) -> None:
    """Stamp ``pid``/``tid``/``seq`` and buffer one record (thread-safe)."""
    global _seq
    with _LOCK:
        if not _enabled:
            return
        record["pid"] = os.getpid()
        record["tid"] = threading.get_ident()
        record["seq"] = _seq
        _seq += 1
        _records.append(record)


# ------------------------------------------------------------ public API
def enabled() -> bool:
    """True when tracing is active in this process."""
    return _enabled


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """``with span("explore.round", round=3): ...`` — time one phase.

    Disabled: returns the shared no-op singleton (no allocation).
    Attribute values should be JSON-serialisable primitives; anything
    else is stored as its ``repr``.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, attrs)


def counter(name: str, value: int = 1, **attrs: Any) -> None:
    """Add ``value`` to the named monotonic counter."""
    if not _enabled:
        return
    _emit(
        {
            "kind": "counter",
            "name": name,
            "t": time.time(),
            "value": value,
            "attrs": attrs,
        }
    )


def histogram(name: str, value: float, **attrs: Any) -> None:
    """Record one observation of a distribution (batch sizes, ...)."""
    if not _enabled:
        return
    _emit(
        {
            "kind": "histogram",
            "name": name,
            "t": time.time(),
            "value": value,
            "attrs": attrs,
        }
    )


@contextmanager
def tracing(trace_path: str | os.PathLike | None) -> Iterator[None]:
    """Trace a block and write the records to ``trace_path`` on exit.

    The CLI ``--trace PATH`` implementation (see the module docstring
    for the file format).  ``trace_path=None`` is a no-op so callers can
    wrap unconditionally.
    """
    global _enabled, _seq
    if trace_path is None:
        yield
        return
    with _LOCK:
        _records.clear()
        _seq = 0
        _enabled = True
    try:
        yield
    finally:
        with _LOCK:
            _enabled = False
            records = _records[:]
            _records.clear()
        _write_trace(records, Path(trace_path))


def _write_trace(records: list[dict], out: Path) -> None:
    """Write the header and ``records`` to ``out`` atomically."""
    out.parent.mkdir(parents=True, exist_ok=True)
    header = {"schema": SCHEMA, "records": len(records)}
    write_atomic(
        out,
        (
            json.dumps(rec, sort_keys=True, default=repr) + "\n"
            for rec in (header, *records)
        ),
    )


def load_trace(path: str | os.PathLike) -> list[dict]:
    """The records of a trace file written by :func:`tracing`, in
    emission order (the header line is dropped)."""
    with open(path, encoding="utf-8") as fh:
        return [rec for rec in map(json.loads, fh) if "schema" not in rec]

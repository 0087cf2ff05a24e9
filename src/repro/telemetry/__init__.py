"""Process-wide tracing and metrics for the evaluation stack.

The stack built in PRs 1-9 (batched models, adaptive explore,
fault-tolerant pools, the Monte-Carlo population engine) is a black box
at runtime: the only timing instrumentation was ad-hoc ``perf_counter``
pairs in the CLI ``--verify`` branches, and counters such as
``ReportCache.hits`` were tallied but reported nowhere.  This package is
the substrate that makes per-phase cost, cache efficacy and worker
behaviour visible — and provably free when disabled.

Two primitives:

- :func:`span` — a context manager timing one phase.  Span names reuse
  the :mod:`repro.faults` site vocabulary (``sweep.point``,
  ``explore.cell``, ``explore.round``, ``montecarlo.chunk``) so chaos
  tests and traces describe the same places, plus seam-level names
  (``parallel.task``, ``store.load``, ``bench.run``).
- :func:`counter` / :func:`histogram` — point metrics (cache hits,
  broken pools, batch sizes, kernel dispatches).

**Disabled is the default and costs (almost) nothing.**  A module-level
flag is checked once per call; :func:`span` returns a shared no-op
singleton and the metric functions return immediately — no allocation,
no locking, no buffering.  ``tests/test_telemetry.py`` pins both the
structure (nothing reaches the emit path when disabled) and a generous
wall-clock bound on the ``parallel_map`` hot path.

**Cross-process collection** copies the :mod:`repro.faults` pattern:
:func:`enable` writes the trace directory to :data:`ENV_VAR`
(``REPRO_TRACE_DIR``); pool workers inherit the environment at spawn and
initialise themselves from it at import, each appending to its own
``shard-<pid>.jsonl`` under that directory.  Shards are merged (sorted
on ``(pid, seq)``, torn tails from killed workers salvaged) into one
trace file by :func:`repro.telemetry.collect.merge_trace` — the
:func:`tracing` context manager used by the ``--trace`` CLI flags does
enable/run/merge in one step.  Like fault plans, tracing must be enabled
*before* a persistent pool spawns its workers
(``repro.parallel.shutdown()`` forces fresh pools).

**Telemetry never perturbs results.**  Timestamps and durations live
only in trace records, never in reports; trace I/O failures are
swallowed; the three ``--verify`` CLIs stay byte-identical with
``--trace`` active (pinned by tests).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Environment variable carrying the shard directory to child processes
#: (the same propagation path ``REPRO_FAULTS`` uses).
ENV_VAR = "REPRO_TRACE_DIR"

#: Schema tag written into merged trace headers.
SCHEMA = "repro-trace/v1"

#: Shard filename pattern inside a trace directory.
SHARD_PREFIX = "shard-"

#: Buffered records per process before an automatic shard append.
FLUSH_EVERY = 512

# ----------------------------------------------------------------- state
#: The one flag the hot path checks.  Everything else lives behind it.
_enabled = False

_LOCK = threading.Lock()
_trace_dir: str | None = None
_pid: int | None = None
_seq = 0
_buffer: list[dict] = []


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
    """Stamp ``pid``/``tid``/``seq`` and buffer one record (thread-safe).

    A pid change since the last emit means this process was forked from
    an enabled parent: the inherited buffer belongs to the parent (which
    still holds its own copy), so it is dropped and the sequence counter
    restarts — each process owns exactly its own shard.
    """
    global _pid, _seq
    pid = os.getpid()
    with _LOCK:
        if not _enabled:
            return
        if pid != _pid:
            _pid = pid
            _seq = 0
            _buffer.clear()
        record["pid"] = pid
        record["tid"] = threading.get_ident()
        record["seq"] = _seq
        _seq += 1
        _buffer.append(record)
        if len(_buffer) >= FLUSH_EVERY:
            _flush_locked()


def _flush_locked() -> None:
    """Append the buffer to this process's shard file (lock held).

    Trace I/O must never take the run down: an unwritable shard (the
    trace directory was merged and removed while a persistent pool
    worker outlived it) drops the records silently.
    """
    if not _buffer or _trace_dir is None:
        return
    lines = "".join(
        json.dumps(rec, sort_keys=True, default=repr) + "\n"
        for rec in _buffer
    )
    _buffer.clear()
    shard = os.path.join(_trace_dir, f"{SHARD_PREFIX}{_pid}.jsonl")
    try:
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write(lines)
    except OSError:
        pass


def flush() -> None:
    """Write buffered records to this process's shard file."""
    if not _enabled:
        return
    with _LOCK:
        _flush_locked()


# ------------------------------------------------------------ public API
def enabled() -> bool:
    """True when tracing is active in this process."""
    return _enabled


def enable(trace_dir: str | os.PathLike) -> None:
    """Arm tracing here and (via the environment) in child processes.

    ``trace_dir`` is created if missing; every participating process
    appends records to its own ``shard-<pid>.jsonl`` inside it.  Pool
    workers inherit the environment at spawn — enable *before* the pool
    exists (``repro.parallel.shutdown()`` forces fresh pools), exactly
    as with ``repro.faults.activate``.
    """
    global _enabled, _trace_dir, _pid, _seq
    path = os.fspath(trace_dir)
    os.makedirs(path, exist_ok=True)
    with _LOCK:
        if _enabled and _trace_dir == path:
            return
        _flush_locked()
        _trace_dir = path
        _pid = os.getpid()
        _seq = 0
        _buffer.clear()
        _enabled = True
    os.environ[ENV_VAR] = path


def disable() -> None:
    """Flush and disarm tracing here and for future child processes."""
    global _enabled, _trace_dir
    with _LOCK:
        _flush_locked()
        _enabled = False
        _trace_dir = None
    os.environ.pop(ENV_VAR, None)


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """``with span("explore.round", round=3): ...`` — time one phase.

    Disabled: returns the shared no-op singleton (no allocation).
    Attribute values should be JSON-serialisable primitives; anything
    else is stored as its ``repr``.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit a point-in-time marker (``pool.drain``, ...)."""
    if not _enabled:
        return
    _emit({"kind": "event", "name": name, "t": time.time(), "attrs": attrs})


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
def tracing(trace_path: str | os.PathLike | None) -> Iterator[str | None]:
    """Enable tracing for a block and merge shards to ``trace_path``.

    The CLI ``--trace PATH`` implementation: shards collect in a private
    temporary directory while the block runs (workers included, via the
    environment), then :func:`repro.telemetry.collect.merge_trace`
    writes the single merged JSONL trace to ``trace_path`` and the shard
    directory is removed.  ``trace_path=None`` is a no-op so callers can
    wrap unconditionally.
    """
    if trace_path is None:
        yield None
        return
    shard_dir = tempfile.mkdtemp(prefix="repro-trace-")
    enable(shard_dir)
    try:
        yield shard_dir
    finally:
        disable()
        from .collect import merge_trace

        merge_trace(shard_dir, trace_path)
        shutil.rmtree(shard_dir, ignore_errors=True)


def _init_from_env() -> None:
    """Self-arm in processes spawned with :data:`ENV_VAR` set (workers)."""
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            enable(raw)
        except OSError:  # unwritable inherited dir: stay disabled
            pass


_init_from_env()

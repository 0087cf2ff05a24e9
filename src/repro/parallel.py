"""Deterministic thread-pool mapping for the study engines.

The scenario sweeps of :mod:`repro.sweep` and the population chunks of
:mod:`repro.montecarlo` are embarrassingly parallel: independent
evaluations of a pure function over a parameter grid.  :func:`parallel_map`
gives them one ``workers=`` knob over a
:class:`concurrent.futures.ThreadPoolExecutor`.  Their bodies are numpy
dominated (numpy releases the GIL) and may close over live model
objects, so the whole run stays in one process.

Guarantees:

- **Deterministic ordering** — results come back in input order
  (``Executor.map`` semantics), so a pooled run is byte-identical to
  the serial one regardless of completion order;
- ``workers=None``, ``0`` or ``1`` runs serially in the caller's thread
  (no pool) — the default everywhere, so parallelism is opt-in;
  negative worker counts are a configuration error, not a silent serial
  fallback;
- **a thread ceiling** — a pool never holds more than ``os.cpu_count()``
  threads, however large ``workers`` is;
- exceptions propagate exactly as in the serial case (the first failing
  item raises when its result is consumed, in input order) and leave the
  pool reusable.  Tasks are never retried here: per-item retries belong
  to :func:`repro.resilience.run_guarded`, which the engines run inside
  every task.

One pool per thread count is built on first use and reused by every
later call, so repeated runs do not pay thread start-up per call; a
pool starts its threads lazily, so a wide pool serving a short list
costs nothing extra.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Iterable, TypeVar

from . import telemetry
from .errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


@functools.lru_cache(maxsize=None)
def _pool(threads: int):
    """The shared pool of ``threads`` threads, created on first use."""
    from concurrent.futures import ThreadPoolExecutor  # not on serial runs
    return ThreadPoolExecutor(max_workers=threads)


def _traced_task(fn: Callable[[T], R], item: T) -> R:
    """Task wrapper applied only when tracing is enabled: one
    ``parallel.task`` span per execution."""
    with telemetry.span("parallel.task"):
        return fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, fanned out over at most ``workers``
    threads (capped at ``os.cpu_count()``).

    ``workers`` values of ``None``, ``0`` or ``1`` run serially and
    negative values raise :class:`~repro.errors.ConfigurationError`.
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (or None for serial), got {workers}"
        )
    seq = list(items)
    if not seq:
        return []
    if telemetry.enabled():
        fn = functools.partial(_traced_task, fn)
    threads = min(workers, os.cpu_count() or 1) if workers else 1
    if threads == 1 or len(seq) == 1:
        return [fn(x) for x in seq]
    telemetry.counter("parallel.submit", len(seq))
    with telemetry.span("parallel.map", workers=threads, items=len(seq)):
        return list(_pool(threads).map(fn, seq))

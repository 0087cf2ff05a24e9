"""Deterministic parallel mapping for sweep workloads.

The Table 5 power sweep, the scenario sweeps of :mod:`repro.sweep` and
the population chunks of :mod:`repro.montecarlo` are embarrassingly
parallel: independent evaluations
of a pure function over a parameter grid.  :func:`parallel_map` gives
them a shared ``workers=`` knob with two backends:

- ``backend="thread"`` (default) — a
  :class:`concurrent.futures.ThreadPoolExecutor`.  Right when the sweep
  bodies are numpy/closed-form dominated (they release the GIL) or when
  the work items close over live model objects that are not picklable.
- ``backend="process"`` — a
  :class:`concurrent.futures.ProcessPoolExecutor` for sweeps whose bodies
  are pure-Python dominated and outgrow the GIL.  The **picklability
  contract**: ``fn`` must be a module-level callable (or a
  :func:`functools.partial` of one) and every item and result must
  pickle.  Callers pass *task descriptors* (frozen dataclasses, tuples of
  primitives) instead of live-model closures and rebuild models inside
  the worker — see :func:`repro.sweep.engine.evaluate_point` for the
  idiom.

**Persistent pools**: executors are kept alive in a per-process registry
keyed on ``(backend, workers)`` and reused by every subsequent
:func:`parallel_map` with the same knobs, so repeated ``run_sweep`` /
``run_explore`` rounds pay process spawn-up (and each worker's lazily
rebuilt models and per-process report cache) once instead of per call.
:func:`shutdown` tears every pool down explicitly; an ``atexit`` hook
does the same at interpreter exit.

Guarantees, identical for both backends and unchanged by pool reuse:

- **Deterministic ordering** — results come back in input order
  (``Executor.map`` semantics), so a parallel sweep is byte-identical to
  the serial one regardless of completion order;
- ``workers=None``, ``0`` or ``1`` runs serially in the caller's thread
  (no executor, no pool) — the default everywhere, so parallelism is
  opt-in; negative worker counts are a configuration error, not a silent
  serial fallback;
- exceptions propagate exactly as in the serial case (the first failing
  item raises when its result is consumed, in input order); a plain task
  exception leaves the pool alive and reusable.  Tasks are never
  retried here: per-item retries belong to
  :func:`repro.resilience.run_guarded`, which the engines run inside
  every task.

**Dead workers.**  A pool whose worker died (``BrokenExecutor``) is
evicted, so the next call starts a fresh one.  With ``attempts=1``
(the default) the map then raises
:class:`~repro.errors.TaskFailedError` chained from the break.  With
``attempts > 1`` every item is its own future (a chunk would couple
innocent items to a poison neighbour's fate): a fresh pool is built and
only the items that never finished are re-submitted, so completed work
survives a worker kill and results stay input-ordered and
serial-identical.  A worker death loses track of *which* in-flight item
killed it, so every unfinished item is charged one attempt per rebuild;
the lowest-indexed item that runs out raises ``TaskFailedError``.
"""

from __future__ import annotations

import atexit
import functools
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Iterable, Sequence, TypeVar

from . import telemetry
from .errors import ConfigurationError, TaskFailedError

T = TypeVar("T")
R = TypeVar("R")

#: Executor backends accepted by :func:`parallel_map`.
BACKENDS = ("thread", "process")

#: Live executors, keyed on ``(backend, workers)`` — the persistent pool
#: registry :func:`get_pool` serves and :func:`shutdown` clears.
_POOLS: dict[tuple[str, int], Executor] = {}

#: Guards registry mutation: without it two threads racing the first
#: call for one key would each build an executor and leak the loser
#: beyond :func:`shutdown`'s reach.
_POOLS_LOCK = threading.Lock()


def get_pool(backend: str, workers: int) -> Executor:
    """The shared executor for ``(backend, workers)``, created on first use.

    Pools are sized to the *requested* worker count (executors spawn
    workers lazily, so asking a wide pool to serve a narrow batch costs
    nothing) and live until :func:`shutdown` or interpreter exit.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"a pool needs workers >= 1, got {workers}"
        )
    key = (backend, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if backend == "process":
                pool = ProcessPoolExecutor(max_workers=workers)
            else:
                pool = ThreadPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
        return pool


def shutdown(wait: bool = True) -> int:
    """Tear down every persistent pool; returns how many were closed.

    Safe to call at any time — the next :func:`parallel_map` that needs a
    pool simply builds a fresh one.  Explicit calls default to
    ``wait=True``; the :mod:`atexit` hook uses ``wait=False`` so a
    wedged worker cannot hang interpreter exit.
    """
    closed = 0
    while True:
        with _POOLS_LOCK:
            if not _POOLS:
                return closed
            _, pool = _POOLS.popitem()
        pool.shutdown(wait=wait)
        closed += 1


def _shutdown_at_exit() -> None:
    """Interpreter-exit teardown: never wait on (possibly wedged) workers."""
    shutdown(wait=False)


atexit.register(_shutdown_at_exit)


def _evict_pool(backend: str, workers: int) -> None:
    """Drop a broken pool from the registry and shut its carcass down."""
    telemetry.counter("parallel.broken_pool", backend=backend)
    with _POOLS_LOCK:
        evicted = _POOLS.pop((backend, workers), None)
    if evicted is not None:
        evicted.shutdown(wait=False)


def _traced_task(fn: Callable[[T], R], item: T) -> R:
    """Task wrapper applied only when tracing is enabled.

    Emits one ``parallel.task`` span per execution and flushes the
    worker's shard afterwards, so a worker killed between tasks loses at
    most the task it was running (whose torn shard tail the merge
    salvages).  Module-level so it survives the process backend's
    pickling contract; the disabled hot path never sees this wrapper.
    """
    try:
        with telemetry.span("parallel.task"):
            return fn(item)
    finally:
        telemetry.flush()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    backend: str = "thread",
    attempts: int = 1,
) -> list[R]:
    """``[fn(x) for x in items]`` with an optional persistent executor pool.

    ``workers`` values of ``None``, ``0`` or ``1`` run serially and
    negative values raise :class:`~repro.errors.ConfigurationError`.
    ``backend`` selects the pool type (``"thread"`` or ``"process"``);
    with ``"process"`` both ``fn`` and the items must be picklable (see
    the module docstring).  The executor comes from the per-process
    registry (:func:`get_pool`) and stays alive for the next call with
    the same knobs.

    ``attempts`` bounds the runs of an item whose worker keeps dying:
    one that lost its worker on every attempt raises
    :class:`~repro.errors.TaskFailedError`.  Above ``1`` it arms the
    broken-pool recovery of the module docstring.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
        )
    if workers is not None and workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (or None for serial), got {workers}"
        )
    if attempts < 1:
        raise ConfigurationError(f"attempts must be >= 1, got {attempts}")
    seq: Sequence[T] = list(items)
    if not seq:
        return []
    if telemetry.enabled():
        # A partial of the module-level wrapper keeps the process
        # backend's picklability contract; the disabled hot path never
        # allocates it.
        fn = functools.partial(_traced_task, fn)
    if not workers or workers <= 1 or len(seq) == 1:
        return [fn(x) for x in seq]
    telemetry.counter("parallel.submit", len(seq), backend=backend)
    with telemetry.span(
        "parallel.map", backend=backend, workers=workers, items=len(seq)
    ):
        try:
            if attempts > 1:
                return _map_recovering(fn, seq, workers, backend, attempts)
            pool = get_pool(backend, workers)
            if backend == "process":
                # Chunking amortises the per-task pickle round-trip; the
                # chunk size is a pure function of the request (not of
                # pool state), and Executor.map reassembles chunk
                # results in input order so determinism holds.
                n_workers = min(workers, len(seq))
                chunksize = max(1, len(seq) // (n_workers * 4))
                return list(pool.map(fn, seq, chunksize=chunksize))
            return list(pool.map(fn, seq))
        except BrokenExecutor as exc:
            # Evict the carcass so the next call rebuilds a healthy pool.
            _evict_pool(backend, workers)
            raise TaskFailedError(
                f"a {backend} pool worker died mapping {len(seq)} item(s): "
                f"{exc}"
            ) from exc
        finally:
            # Pool drain: the parent's merge point.  Flushing here means
            # every record emitted during the map is on disk before the
            # caller (e.g. the --trace CLI exit path) merges shards.
            telemetry.event("pool.drain", backend=backend, workers=workers)
            telemetry.flush()


def _lost(future: Future | None) -> bool:
    """Whether an item's run died with its pool (or never started)."""
    return (
        future is None
        or not future.done()
        or isinstance(future.exception(), BrokenExecutor)
    )


def _map_recovering(
    fn: Callable[[T], R],
    seq: Sequence[T],
    workers: int,
    backend: str,
    attempts: int,
) -> list[R]:
    """The broken-pool-recovering map of :func:`parallel_map`.

    Results are consumed strictly in input order.  Each round submits
    the items still to run to a (fresh) pool; an item is charged one
    attempt when it is handed to a pool.  On ``BrokenExecutor`` the pool
    is evicted and every unfinished item goes into the next round, unless
    one has already used all ``attempts`` — then the lowest such index
    raises :class:`~repro.errors.TaskFailedError` from the break.
    """
    n = len(seq)
    runs = [0] * n
    futures: list[Future | None] = [None] * n
    results: list[R] = []
    todo: Sequence[int] = range(n)
    while True:
        try:
            pool = get_pool(backend, workers)
            for i in todo:
                futures[i] = pool.submit(fn, seq[i])
                runs[i] += 1
            while len(results) < n:
                results.append(futures[len(results)].result())
            return results
        except BrokenExecutor as exc:
            _evict_pool(backend, workers)
            todo = [i for i in range(len(results), n) if _lost(futures[i])]
            spent = [i for i in todo if runs[i] == attempts]
            if spent:
                raise TaskFailedError(
                    f"item {spent[0]} lost its worker on every one of "
                    f"{attempts} attempt(s): {exc}",
                    attempts=attempts,
                ) from exc

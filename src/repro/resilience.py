"""Retry policies and the error-policy contract of the execution layer.

PRs 3-5 made the design-space stack fast; this module makes it survive
production-scale operation: flaky tasks, wedged workers and dying
processes must degrade or recover instead of throwing away a whole run.
The primitives here are shared by :func:`repro.parallel.parallel_map`
and the sweep, explore and montecarlo engines:

- :class:`RetryPolicy` — a frozen, picklable description of *how* to
  retry: attempt budget, deterministic exponential backoff and an
  optional per-task timeout.  The policy never sleeps or reads a clock
  itself; callers pass an injectable ``sleep`` so tests (and the chaos
  suite) run wall-clock free.  **Determinism rule**: retrying must not
  change results — a task that succeeds on attempt 3 returns exactly
  what it would have returned on attempt 1, and nothing derived from
  attempt counts, timestamps or backoff delays may enter a report's
  serialised output.
- :data:`ON_ERROR_POLICIES` / :func:`check_on_error` — the shared
  ``on_error`` vocabulary of :class:`~repro.sweep.spec.SweepSpec` and
  :class:`~repro.explore.spec.ExploreSpec`:

  - ``"raise"`` (default) — the strict mode: the first failing cell
    aborts the run, exactly the pre-resilience behaviour;
  - ``"skip"`` — a failing cell is recorded on the run's error channel
    and the report is marked partial; the run survives;
  - ``"retry"`` — like ``"skip"``, but each failing cell is first
    retried under :data:`DEFAULT_RETRY`; only a cell that fails every
    attempt is recorded.
- :func:`run_guarded` — the one runner that applies a policy to one
  item (a sweep point, an explore cell, a montecarlo chunk), plus the
  two decisions around it: :func:`pool_retry` (the pool-level policy)
  and :func:`check_not_all_failed` (a run that kept nothing raises).

Transient faults (injected or real) therefore leave ``"retry"`` runs
byte-identical to fault-free runs — the chaos suite in
``tests/test_faults.py`` asserts exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import ConfigurationError, PartialResultError, TaskFailedError

R = TypeVar("R")

#: Cell-failure policies accepted by the sweep/explore specs.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


def check_on_error(policy: str) -> str:
    """Validate an ``on_error`` policy name (shared by both specs)."""
    if policy not in ON_ERROR_POLICIES:
        raise ConfigurationError(
            f"unknown on_error policy {policy!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a failing task (frozen, picklable, clock-free).

    Parameters
    ----------
    max_attempts:
        Total times a task may run (>= 1; ``1`` disables retrying).
    backoff_s:
        Delay before the first retry.  Subsequent retries wait
        ``backoff_s * backoff_factor**(k-1)`` after the ``k``-th failure
        — a pure function of the attempt number, never of the clock.
    backoff_factor:
        Exponential growth of the backoff (>= 1).
    timeout_s:
        Optional per-task timeout, enforced through the futures API by
        the pooled path of :func:`repro.parallel.parallel_map`
        (``Future.result(timeout=...)``).  A timed-out attempt counts as
        a failure and is retried like any other; the serial path cannot
        preempt a running call and ignores it.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0.0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ConfigurationError(
                f"timeout_s must be None or > 0, got {self.timeout_s}"
            )

    def delay_s(self, failures: int) -> float:
        """Backoff before the retry that follows the ``failures``-th
        failure (1-based) — deterministic exponential schedule."""
        if failures < 1:
            raise ConfigurationError(
                f"delay_s counts failures from 1, got {failures}"
            )
        return self.backoff_s * self.backoff_factor ** (failures - 1)

    def delays(self) -> tuple[float, ...]:
        """Every backoff delay the policy can produce, in order."""
        return tuple(
            self.delay_s(k) for k in range(1, self.max_attempts)
        )


#: The policy ``on_error="retry"`` runs cells under: three attempts,
#: no backoff (cell evaluation is CPU-bound and deterministic — waiting
#: cannot help it, and benches must not sleep).
DEFAULT_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def call_with_retry(
    fn: Callable[[], R],
    policy: RetryPolicy = DEFAULT_RETRY,
    sleep: Callable[[float], None] = time.sleep,
    label: str = "task",
) -> R:
    """Run ``fn()`` under ``policy``; the serial retry primitive.

    Returns the first successful result.  After ``max_attempts``
    failures raises :class:`~repro.errors.TaskFailedError` with the last
    exception as ``__cause__``.  ``sleep`` is injectable so tests assert
    the deterministic backoff schedule without waiting it out.  (The
    policy's ``timeout_s`` is not enforced here — a serial caller cannot
    preempt its own call; see :func:`repro.parallel.parallel_map` for
    the pooled enforcement.)
    """
    last: Exception | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except Exception as exc:
            last = exc
            if attempt == policy.max_attempts:
                raise TaskFailedError(
                    f"{label} failed on every one of {attempt} attempt(s): "
                    f"{exc}",
                    attempts=attempt,
                ) from exc
            sleep(policy.delay_s(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


#: The per-item retry policy of each tolerant ``on_error`` mode.
_ITEM_POLICY = {"skip": RetryPolicy(max_attempts=1), "retry": DEFAULT_RETRY}


def run_guarded(
    thunk: Callable[[], R], on_error: str, label: str = "task"
) -> tuple[R | None, Exception | None, int]:
    """Run ``thunk()`` under an ``on_error`` policy.

    The one per-item runner of the sweep, explore and montecarlo engines.
    ``"raise"`` lets any error propagate; ``"skip"`` records it;
    ``"retry"`` records it only after every :data:`DEFAULT_RETRY` attempt
    failed.  Returns ``(result, None, attempts)`` on success and
    ``(None, cause, attempts)`` on a recorded failure.  ``cause`` is the
    underlying error, never the retry wrapper, because error channels
    record what went wrong; ``attempts`` counts the runs of ``thunk``.
    """
    if on_error == "raise":
        return thunk(), None, 1
    attempts = 0

    def counted() -> R:
        nonlocal attempts
        attempts += 1
        return thunk()

    try:
        result = call_with_retry(counted, _ITEM_POLICY[on_error], label=label)
    except TaskFailedError as exc:
        return None, exc.__cause__, attempts
    return result, None, attempts


def pool_retry(on_error: str) -> RetryPolicy | None:
    """The pool-level policy of ``on_error``: ``"retry"`` also arms
    :func:`~repro.parallel.parallel_map`'s broken-pool recovery."""
    return DEFAULT_RETRY if on_error == "retry" else None


def check_not_all_failed(
    n_ok: int,
    n_items: int,
    errors: Sequence[tuple[str, str]],
    on_error: str,
    what: str,
) -> None:
    """Refuse a tolerant run that kept nothing.

    Raises :class:`~repro.errors.PartialResultError` when none of the
    ``n_items`` items (named ``what``) succeeded: an all-failure report
    helps nobody.  ``errors`` are the recorded ``(type name, message)``
    pairs; the first is quoted.
    """
    if n_ok == 0 and errors:
        kind, message = errors[0]
        raise PartialResultError(
            f"all {n_items} {what} failed under on_error={on_error!r}; "
            f"first error: {kind}: {message}"
        )

"""The error-policy contract of the execution layer.

The sweep, explore and montecarlo engines share one ``on_error``
vocabulary and one per-item runner, so a failing cell is handled the
same way whichever engine or worker count ran it:

- :data:`ON_ERROR_POLICIES` / :func:`check_on_error` — the shared
  ``on_error`` vocabulary of :class:`~repro.sweep.spec.SweepSpec`,
  :class:`~repro.explore.spec.ExploreSpec` and the population spec:

  - ``"raise"`` (default) — the strict mode: the first failing cell
    aborts the run;
  - ``"skip"`` — a failing cell is recorded on the run's error channel
    and the report is marked partial; the run survives;
  - ``"retry"`` — like ``"skip"``, but a failing cell runs up to
    ``ATTEMPTS["retry"]`` times; only a cell that fails every attempt
    is recorded.
- :data:`ATTEMPTS` — how many times each mode runs one item.
- :func:`run_guarded` — the one runner that applies a policy to one
  item (a sweep point, an explore cell, a montecarlo chunk), and
  :func:`check_not_all_failed` (a run that kept nothing raises).

**Determinism rule**: retrying must not change results — an item that
succeeds on attempt 3 returns exactly what it would have returned on
attempt 1, and attempt counts never enter a report's serialised output.
Transient faults (injected or real) therefore leave ``"retry"`` runs
byte-identical to fault-free runs — the chaos suite in
``tests/test_faults.py`` asserts exactly that.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .errors import ConfigurationError, PartialResultError

R = TypeVar("R")

#: Cell-failure policies accepted by the sweep/explore specs.
ON_ERROR_POLICIES = ("raise", "skip", "retry")

#: Runs each ``on_error`` mode allows one item.  Cell evaluation is
#: CPU-bound and deterministic, so retries run back to back.
ATTEMPTS = {"raise": 1, "skip": 1, "retry": 3}


def check_on_error(policy: str) -> str:
    """Validate an ``on_error`` policy name (shared by both specs)."""
    if policy not in ON_ERROR_POLICIES:
        raise ConfigurationError(
            f"unknown on_error policy {policy!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    return policy


def run_guarded(
    thunk: Callable[[], R], on_error: str
) -> tuple[R | None, Exception | None, int]:
    """Run ``thunk()`` under an ``on_error`` policy.

    ``"raise"`` lets any error propagate; ``"skip"`` and ``"retry"`` run
    ``thunk`` up to ``ATTEMPTS[on_error]`` times.  Returns
    ``(result, None, attempts)`` on success and ``(None, cause,
    attempts)`` once every attempt failed, where ``cause`` is the last
    run's own exception and ``attempts`` counts the runs of ``thunk``.
    """
    if on_error == "raise":
        return thunk(), None, 1
    for attempt in range(1, ATTEMPTS[on_error] + 1):
        try:
            return thunk(), None, attempt
        except Exception as exc:
            cause = exc
    return None, cause, attempt


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

"""Kernel registry and engine dispatch for the hot DSP primitives.

The streaming front end (NCO, CIC, FIR, the fused ``FixedDDC`` chain and
the ``Simulator`` latch loop) ships two implementations per primitive:

``python``
    The original, line-for-line oracle — the bit-true reference every
    other tier is pinned against.
``fused``
    A restructured single-pass numpy kernel: no per-call staging copies,
    no dtype churn, wrapping hoisted out of the per-stage loop.  Always
    available.

Selection:

- explicitly, via the ``engine=`` keyword every hot ``process``/
  ``generate``/``compile`` method grew (``None`` means "use the
  environment default");
- globally, via the ``REPRO_KERNELS`` environment variable.  The value
  is either one engine name (``REPRO_KERNELS=python``) or a
  comma-separated list of ``primitive=engine`` overrides with an
  optional bare default, e.g. ``REPRO_KERNELS=python,cic=fused``;
- by default (``auto``): ``fused`` where registered, else ``python``.

Every tier of one primitive is bit-identical by contract (pinned by the
Hypothesis suites in ``tests/test_kernels.py``), so dispatch is a pure
performance decision.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable

from .. import telemetry
from ..errors import ConfigurationError

#: Environment variable consulted when no explicit ``engine=`` is given.
ENV_VAR = "REPRO_KERNELS"

#: Engine tiers, slowest to fastest.
ENGINES = ("python", "fused")

#: Recognised selector values (``auto`` resolves to the fastest tier).
SELECTORS = ENGINES + ("auto",)

# primitive -> engine -> callable.  ``python`` entries are optional: the
# oracle usually lives on the class itself and dispatch only returns the
# tier *name* for it.
_REGISTRY: dict[str, dict[str, Callable]] = {}

# (primitive, engine) -> resolve() calls in this process.
_DISPATCHED: Counter[tuple[str, str]] = Counter()


def register(primitive: str, engine: str, fn: Callable) -> Callable:
    """Register ``fn`` as the ``engine`` tier of ``primitive``.

    Returns ``fn`` so it can be used as a decorator.  Re-registering
    replaces the previous entry.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown kernel engine {engine!r}")
    _REGISTRY.setdefault(primitive, {})[engine] = fn
    return fn


def registered(primitive: str) -> tuple[str, ...]:
    """Engine tiers registered for ``primitive`` (always incl. python)."""
    tiers = {"python", *_REGISTRY.get(primitive, ())}
    return tuple(e for e in ENGINES if e in tiers)


def _env_selector(primitive: str) -> str:
    """Parse ``REPRO_KERNELS`` for this primitive (default ``auto``)."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return "auto"
    selected = "auto"
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            key, _, value = item.partition("=")
            if key.strip() == primitive:
                selected = value.strip()
        else:
            selected = item
    if selected not in SELECTORS:
        raise ConfigurationError(
            f"{ENV_VAR}: unknown engine {selected!r} "
            f"(expected one of {', '.join(SELECTORS)})"
        )
    return selected


def select(primitive: str, engine: str | None = None) -> str:
    """The engine tier ``primitive`` would run on; no side effects.

    ``engine=None`` consults :data:`ENV_VAR`; ``auto`` picks the fastest
    registered tier, and ``fused`` degrades to ``python`` for a primitive
    without a fused kernel.
    """
    if engine is None:
        engine = _env_selector(primitive)
    if engine not in SELECTORS:
        raise ConfigurationError(
            f"unknown kernel engine {engine!r} for {primitive!r} "
            f"(expected one of {', '.join(SELECTORS)})"
        )
    if engine != "python" and "fused" not in _REGISTRY.get(primitive, {}):
        return "python"
    return "fused" if engine == "auto" else engine


def resolve(primitive: str, engine: str | None = None) -> str:
    """:func:`select`, counted as one dispatch: the call a hot kernel
    makes right before it runs (see :func:`dispatch_counts`)."""
    engine = select(primitive, engine)
    _DISPATCHED[primitive, engine] += 1
    telemetry.counter("kernel.dispatch", primitive=primitive, engine=engine)
    return engine


def dispatch_counts() -> dict[tuple[str, str], int]:
    """``(primitive, engine) -> dispatches`` in this process so far."""
    return dict(_DISPATCHED)


def active_engines(engine: str | None = None) -> dict[str, str]:
    """The tier :func:`select` picks per registered primitive.

    ``engine`` follows the same selector semantics (``None`` =
    environment).  Reading it dispatches nothing.
    """
    return {primitive: select(primitive, engine) for primitive in sorted(_REGISTRY)}


def kernel(primitive: str, engine: str) -> Callable:
    """Return the registered callable for an exact ``(primitive, engine)``."""
    try:
        return _REGISTRY[primitive][engine]
    except KeyError:
        raise ConfigurationError(
            f"no {engine!r} kernel registered for {primitive!r}"
        ) from None

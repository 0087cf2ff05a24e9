"""Workload registry: pluggable kernels over one evaluation stack.

A :class:`~repro.workloads.base.Workload` bundles a configuration
dataclass, architecture models, scenario axes and per-architecture
mappings; the registry resolves them by name so the sweep/explore CLIs
(``--workload``), the bench harness and library callers all share one
namespace.

Built-ins (imported lazily — listing costs nothing, instantiating a
workload imports only its own models):

- ``ddc`` — the paper's DRM channel-selection DDC (the default);
- ``drm`` — the end-to-end multi-channel DRM receiver front end
  (n parallel DDC rails, the ``examples/drm_receiver.py`` scenario);
- ``ofdm`` — an FFT/OFDM demodulator front end (DRM/DAB-style symbol
  demodulation behind the DDC).

``REPRO_WORKLOAD`` selects the process-wide default (CLIs also take
``--workload``); unset means ``ddc``.  :func:`register` adds third-party
workloads to the same namespace.
"""

from __future__ import annotations

import os

from ..errors import ConfigurationError
from .base import Workload, WorkloadMapping

#: Environment variable naming the default workload.
ENV_VAR = "REPRO_WORKLOAD"

#: The fallback default (the paper's kernel).
DEFAULT_WORKLOAD = "ddc"


def _builtin_factories():
    """Name -> zero-arg constructor for the in-tree workloads (lazy)."""

    def ddc():
        from .ddc import DDCWorkload

        return DDCWorkload()

    def drm():
        from .drm import DRMReceiverWorkload

        return DRMReceiverWorkload()

    def ofdm():
        from .ofdm import OFDMDemodWorkload

        return OFDMDemodWorkload()

    return {"ddc": ddc, "drm": drm, "ofdm": ofdm}


_FACTORIES = _builtin_factories()
_INSTANCES: dict[str, Workload] = {}


def register(workload: Workload, replace: bool = False) -> Workload:
    """Add a workload instance to the registry under ``workload.name``.

    Registering over an existing name is an error unless
    ``replace=True`` — silent shadowing of a built-in would make
    ``--workload`` mean different things in different processes.
    """
    name = workload.name
    if not name or name == "abstract":
        raise ConfigurationError(
            "a workload must declare a non-default name to register"
        )
    if not replace and (name in _FACTORIES or name in _INSTANCES):
        raise ConfigurationError(
            f"workload {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _INSTANCES[name] = workload
    return workload


def available() -> tuple[str, ...]:
    """Every registered workload name, sorted (built-ins included)."""
    return tuple(sorted(set(_FACTORIES) | set(_INSTANCES)))


def default_name() -> str:
    """The process default: ``$REPRO_WORKLOAD`` or ``"ddc"``."""
    return os.environ.get(ENV_VAR, DEFAULT_WORKLOAD) or DEFAULT_WORKLOAD


def get(name: str | None = None) -> Workload:
    """Resolve a workload by name (``None`` = the process default).

    Instances are cached per process, so repeated resolution — every
    sweep point, every explore round — shares one workload object and
    hence one :meth:`~repro.workloads.base.Workload.shared_evaluator`.
    """
    if name is None:
        name = default_name()
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(available())} (set {ENV_VAR} or pass --workload)"
        )
    instance = factory()
    if instance.name != name:
        raise ConfigurationError(
            f"workload factory for {name!r} built {instance.name!r}"
        )
    _INSTANCES[name] = instance
    return instance


def check_study_spec(spec) -> Workload:
    """Check the ``workload``, ``base_config``, ``on_error`` and
    ``standby_fraction`` fields every study spec has, filling in the
    workload's default configuration; returns the workload."""
    from ..resilience import check_on_error

    wl = get(spec.workload)
    object.__setattr__(spec, "workload", wl.name)
    if spec.base_config is None:
        object.__setattr__(spec, "base_config", wl.default_config)
    wl.check_config(spec.base_config)
    check_on_error(spec.on_error)
    if not 0.0 <= spec.standby_fraction <= 1.0:
        raise ConfigurationError(
            f"standby_fraction {spec.standby_fraction!r} is outside [0, 1]"
        )
    return wl


__all__ = [
    "Workload",
    "WorkloadMapping",
    "ENV_VAR",
    "DEFAULT_WORKLOAD",
    "register",
    "available",
    "default_name",
    "get",
    "check_study_spec",
]

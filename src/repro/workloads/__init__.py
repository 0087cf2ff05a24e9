"""Workload registry: the kernels the evaluation stack studies, by name.

A :class:`~repro.workloads.base.Workload` bundles a configuration
dataclass, architecture models and scenario axes; :func:`get` resolves
one by name so the study CLIs (``--workload``), the bench harness and
library callers share one namespace.

Built-ins (imported lazily — listing costs nothing, instantiating a
workload imports only its own models):

- ``ddc`` — the paper's DRM channel-selection DDC (the default);
- ``drm`` — the end-to-end multi-channel DRM receiver front end
  (n parallel DDC rails, the ``examples/drm_receiver.py`` scenario);
- ``ofdm`` — an FFT/OFDM demodulator front end (DRM/DAB-style symbol
  demodulation behind the DDC).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .base import Workload

#: The workload the CLIs study unless ``--workload`` says otherwise.
DEFAULT_WORKLOAD = "ddc"


def _ddc() -> Workload:
    from .ddc import DDCWorkload

    return DDCWorkload()


def _drm() -> Workload:
    from .drm import DRMReceiverWorkload

    return DRMReceiverWorkload()


def _ofdm() -> Workload:
    from .ofdm import OFDMDemodWorkload

    return OFDMDemodWorkload()


_FACTORIES = {"ddc": _ddc, "drm": _drm, "ofdm": _ofdm}
_INSTANCES: dict[str, Workload] = {}


def available() -> tuple[str, ...]:
    """Every workload name, sorted."""
    return tuple(sorted(_FACTORIES))


def get(name: str = DEFAULT_WORKLOAD) -> Workload:
    """Resolve a workload by name.

    Instances are cached per process, so repeated resolution — every
    sweep point, every explore round — shares one workload object and
    hence one :meth:`~repro.workloads.base.Workload.shared_evaluator`.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown workload {name!r}; available: "
                f"{', '.join(available())}"
            )
        instance = _INSTANCES[name] = factory()
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
    "DEFAULT_WORKLOAD",
    "available",
    "get",
    "check_study_spec",
]

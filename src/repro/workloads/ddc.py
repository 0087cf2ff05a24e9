"""The paper's kernel as a workload: the DRM channel-selection DDC,
unchanged.

This is a *wrapper*, not a reimplementation: the configuration comes
from :mod:`repro.config` and the models from
:func:`repro.core.evaluator.default_models`, so a ``workload="ddc"``
study evaluates exactly the paper's Table 7 architectures.  Its
:meth:`~repro.workloads.base.Workload.shared_evaluator` is the one
cached evaluator the sweep, explore and montecarlo engines and the
paper artifacts share.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..config import DDCConfig, REFERENCE_DDC
from .base import Workload


class DDCWorkload(Workload):
    """The reference digital down converter (paper Sections 2-7)."""

    name = "ddc"
    title = "DRM channel-selection DDC (the paper's reference kernel)"
    config_cls = DDCConfig

    @property
    def default_config(self) -> DDCConfig:
        return REFERENCE_DDC

    def models(self):
        from ..core.evaluator import default_models

        return default_models()

    def default_explore_axis(self) -> tuple[str, float, float]:
        # The reference explore space: the input-rate span crossing both
        # Cyclone f_max thresholds (ExploreSpec's historical default).
        return ("input_rate_hz", 24_192_000.0, 96_768_000.0)

    def scenario_axes(self) -> Mapping[str, tuple[Any, ...]]:
        # The sweep-subsystem's canonical FIR-length neighbourhood (the
        # sweep_faulty bench grid): every value keeps several
        # architectures feasible while moving the FPGA/GPP numbers.
        return {"fir_taps": (63, 125, 255)}

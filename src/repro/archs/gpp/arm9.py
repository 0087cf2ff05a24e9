"""ARM922T device model and the GPP energy arithmetic of Section 4.2.2.

The paper's chain of reasoning:

1. profile the in-phase DDC -> 4.870e9 cycles/s at the 64.512 MHz input;
2. double for the quadrature rail -> a 9740 MHz clock requirement;
3. the ARM922T core + caches draw 0.25 mW/MHz, so the (hypothetical)
   real-time DDC costs 9740 * 0.25 = 2435 mW;
4. note that one ARM9 (<= 250 MHz) cannot actually sustain the task.

:class:`ARM9Model` reproduces those steps on top of our own profiler run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

from ...config import DDCConfig, REFERENCE_DDC
from ..base import (
    ArchitectureModel,
    BatchImplementationReport,
    Flexibility,
    ImplementationReport,
)
from ...energy.technology import TECH_130NM, TechnologyNode
from ...errors import ConfigurationError, MappingError
from .profiler import RegionProfile, check_stimulus_width, profile_ddc
from .profiler import profile_ddc_analytic

#: The fields :func:`profile_ddc_analytic` reads bar ``input_rate_hz``,
#: which each configuration applies itself (pinned by
#: ``tests/test_memo_keys.py``).
_analytic_key = attrgetter(
    "cic2_order", "cic5_order", "cic2_decimation", "cic5_decimation",
    "fir_decimation", "fir_taps",
)


@dataclass(frozen=True)
class ARM9Spec:
    """Datasheet constants of the ARM922T as quoted in Section 4.1/4.2.2."""

    name: str = "ARM922T"
    technology: TechnologyNode = TECH_130NM
    max_clock_hz: float = 250e6          # "can perform up to 250 MIPS"
    power_mw_per_mhz: float = 0.25       # core + caches, memory excluded
    cache_kb: int = 8                    # two small caches of 8 KB
    area_mm2: float = 3.2                # Table 7


#: The device the paper uses.
ARM922T = ARM9Spec()


class ARM9Model(ArchitectureModel):
    """GPP architecture model: profile-driven clock and power estimation."""

    flexibility = Flexibility.PROGRAMMABLE

    def __init__(
        self,
        spec: ARM9Spec = ARM922T,
        spill_slots: bool = True,
        n_samples: int | None = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.spill_slots = spill_slots
        self.n_samples = n_samples
        self._profiled: tuple[DDCConfig, RegionProfile] | None = None

    def profile(self, config: DDCConfig = REFERENCE_DDC) -> RegionProfile:
        """Run (and memoise) the instruction-level profile for ``config``.

        The memo is config-keyed: asking for a different configuration
        always re-profiles (a bare last-run cache would hand back another
        configuration's answer).
        """
        if self._profiled is not None and self._profiled[0] == config:
            return self._profiled[1]
        prof = profile_ddc(
            config, n_samples=self.n_samples, spill_slots=self.spill_slots
        )
        self._profiled = (config, prof)
        return prof

    def _report(self, prof: RegionProfile) -> ImplementationReport:
        """Section 4.2's arithmetic on a profile's cycle counts.

        Shared by the scalar and batched paths so their reports agree bit
        for bit by construction.
        """
        required_hz = prof.required_clock_hz
        power_w = required_hz / 1e6 * self.spec.power_mw_per_mhz * 1e-3
        feasible = required_hz <= self.spec.max_clock_hz
        return ImplementationReport(
            architecture=self.name,
            technology=self.spec.technology,
            clock_hz=required_hz,
            power_w=power_w,
            area_mm2=self.spec.area_mm2,
            flexibility=self.flexibility,
            feasible=feasible,
            notes=(
                f"{prof.instructions_per_second / 1e6:.0f} MIPS, "
                f"{prof.cycles_per_second / 1e9:.3f} Gcycles/s for the I rail; "
                "x2 for I+Q; 0.25 mW/MHz core+caches, memory access excluded"
            ),
        )

    def implement(self, config: DDCConfig = REFERENCE_DDC) -> ImplementationReport:
        """Section 4.2's arithmetic on our own profiled cycle counts."""
        return self._report(self.profile(config))

    def implement_batch(
        self, configs: Sequence[DDCConfig]
    ) -> BatchImplementationReport:
        """Batched :meth:`implement` over a configuration axis.

        Rides the closed-form analytic profile
        (:func:`~repro.archs.gpp.profiler.profile_ddc_analytic`): the
        generated program's statistics follow from counter algebra, so no
        per-configuration instruction-set simulation runs on the batch
        path.  Configurations the analytic profile cannot serve
        (non-reference CIC orders, budget-exceeding runs) fall back to
        the scalar :meth:`implement`, so every report — and every mapping
        error — is bit-identical to the scalar loop.  One call memoises
        the analytic profiles on :data:`_analytic_key`.
        """
        analytic: dict[tuple, RegionProfile | None] = {}
        reports: list[ImplementationReport | None] = []
        errors: list[Exception | None] = []
        for config in configs:
            key = _analytic_key(config)
            if key not in analytic:
                analytic[key] = profile_ddc_analytic(
                    config, n_samples=self.n_samples,
                    spill_slots=self.spill_slots,
                )
            prof = analytic[key]
            try:
                check_stimulus_width(config)
                report = (
                    self._report(replace(prof, input_rate_hz=config.input_rate_hz))
                    if prof is not None else self.implement(config)
                )
                reports.append(report)
                errors.append(None)
            except (ConfigurationError, MappingError) as exc:
                reports.append(None)
                errors.append(exc)
        return BatchImplementationReport.from_reports(
            self.name, reports, errors
        )

    def cache_key(self) -> tuple:
        return (
            type(self).__qualname__, self.spec, self.spill_slots,
            self.n_samples,
        )

"""Decimation-plan search.

The paper picks 16 (CIC2) x 21 (CIC5) x 8 (FIR) = 2688 by hand.  The
planner generalises: enumerate integer factorisations of the required
total decimation into the three stages, filter out plans that violate the
chain's engineering constraints, and rank them by estimated hardware cost
(the gate-count x activity model of the low-power ASIC — the same signal
the paper's designers optimised).

Constraints encoded:

- the FIR stage needs a modest decimation (2..16): it provides the sharp
  transition band, and its workload grows linearly with its input rate;
- the CIC5 needs decimation >= 4 for its alias rejection to matter;
- the CIC2 runs at the full input rate, so *some* first-stage decimation
  (>= 2) is strongly preferred — plans without it are admitted but rank
  poorly through the cost model;
- aliasing: each CIC stage must keep its worst-case alias rejection over
  the protected bandwidth above a floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..config import DDCConfig
from ..dsp.response import alias_rejection
from ..errors import ConfigurationError
from .spec import DDCSpec


@dataclass(frozen=True)
class DecimationPlan:
    """One candidate split of the total decimation."""

    cic2: int
    cic5: int
    fir: int
    cost: float
    alias_rejection_db: float

    @property
    def total(self) -> int:
        """Plan product."""
        return self.cic2 * self.cic5 * self.fir

    def as_tuple(self) -> tuple[int, int, int]:
        """(cic2, cic5, fir)."""
        return (self.cic2, self.cic5, self.fir)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@functools.lru_cache(maxsize=1)
def _planner_cost_model():
    """One stateless cost model per process."""
    from ..archs.asic.lowpower import LowPowerDDCModel

    return LowPowerDDCModel()


def enumerate_plans(
    spec: DDCSpec,
    fir_range: tuple[int, int] = (2, 16),
    min_rejection_db: float = 50.0,
    fir_taps: int = 125,
) -> list[DecimationPlan]:
    """All valid plans for ``spec``, best (lowest cost) first.

    The valid candidate splits are costed in one
    ``LowPowerDDCModel.estimate_power_batch`` pass — struct-of-arrays end
    to end: the planner only reads the power column, so no
    :class:`~repro.archs.base.ImplementationReport` is materialised just
    to be thrown away (the batch powers are bit-identical to the
    reports' ``power_w``, pinned by ``tests/test_core.py``), and splits
    the model cannot map are dropped exactly like the seed's per-split
    scalar loop.  Candidates are generated in deterministic order and
    the final sort is stable.
    """
    total = spec.total_decimation
    prepared: list[tuple[tuple[int, int, int], DDCConfig, float]] = []
    for fir in _divisors(total):
        if not fir_range[0] <= fir <= fir_range[1]:
            continue
        rest = total // fir
        for cic2 in _divisors(rest):
            cic5 = rest // cic2
            if cic5 < 4:
                continue
            if cic2 > 64 or cic5 > 512:
                continue
            try:
                config = spec.to_config(cic2, cic5, fir, fir_taps)
            except ConfigurationError:
                continue
            rejection = _chain_rejection(config, spec.bandwidth_hz)
            if rejection < min_rejection_db:
                continue
            prepared.append(((cic2, cic5, fir), config, rejection))
    if not prepared:
        return []
    powers, errors = _planner_cost_model().estimate_power_batch(
        [config for _, config, _ in prepared]
    )
    plans = [
        DecimationPlan(*split, float(power), rejection)
        for (split, _, rejection), power, error in zip(
            prepared, powers, errors
        )
        if error is None  # else out of the supported decimation range
    ]
    plans.sort(key=lambda p: p.cost)
    return plans


def _chain_rejection(config: DDCConfig, bandwidth_hz: float) -> float:
    """Worst per-stage alias rejection of the CIC stages, in dB."""
    edge = bandwidth_hz / 2
    worst = float("inf")
    rate = config.input_rate_hz
    for order, decim in (
        (config.cic2_order, config.cic2_decimation),
        (config.cic5_order, config.cic5_decimation),
    ):
        if order == 0 or decim == 1:
            continue
        if edge >= rate / (2 * decim):
            return -float("inf")
        worst = min(worst, alias_rejection(order, decim, rate, edge))
        rate /= decim
    return worst


def plan_decimation(
    spec: DDCSpec,
    min_rejection_db: float = 50.0,
    fir_taps: int = 125,
) -> DecimationPlan:
    """The lowest-cost valid plan (raises if none exists)."""
    plans = enumerate_plans(
        spec, min_rejection_db=min_rejection_db, fir_taps=fir_taps
    )
    if not plans:
        raise ConfigurationError(
            f"no valid decimation plan for total {spec.total_decimation} "
            f"at >= {min_rejection_db} dB rejection"
        )
    return plans[0]

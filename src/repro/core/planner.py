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

    Each valid candidate split is costed with
    ``LowPowerDDCModel.estimate_power_w``; splits outside the model's
    supported decimation range are dropped, as the seed's per-split
    loop did.  Candidates are generated in deterministic order and the
    final sort is stable.
    """
    total = spec.total_decimation
    model = _planner_cost_model()
    plans: list[DecimationPlan] = []
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
            if rejection < min_rejection_db or not model.supports(config):
                continue
            cost = model.estimate_power_w(config)
            plans.append(DecimationPlan(cic2, cic5, fir, cost, rejection))
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

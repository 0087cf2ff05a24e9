"""Section 7: the static and reconfigurable deployment scenarios."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DDCConfig, REFERENCE_DDC
from ..core.evaluator import DDCEvaluator
from ..energy.scenarios import ScenarioAnalysis


@dataclass
class Section7Result:
    """The conclusion's two recommendations plus the duty-cycle map."""

    static_winner: str
    reconfigurable_winner: str
    winning_regions: list[tuple[float, float, str]]

    def render(self) -> str:
        lines = [
            "Section 7 scenarios",
            f"  static (full-time DDC):        {self.static_winner}",
            f"  reconfigurable (part-time):    {self.reconfigurable_winner}",
            "  duty-cycle winners:",
        ]
        for lo, hi, name in self.winning_regions:
            lines.append(f"    {lo:5.1%} .. {hi:5.1%}: {name}")
        return "\n".join(lines)


def section7_scenarios(
    config: DDCConfig = REFERENCE_DDC,
    evaluator: DDCEvaluator | None = None,
    steps: int = 501,
) -> Section7Result:
    """Recompute the paper's conclusion.

    The architecture models run through the shared evaluator's
    ``evaluate``/``scenario_candidates`` (each model's ``implement_batch``,
    cached per process) and the duty-cycle map rides the batched sweep
    engine (:func:`repro.sweep.duty_cycle_grid` — one numpy pass over the
    whole grid) rather than 501 scalar evaluations; the output is
    bit-identical to the scalar paths either way.
    """
    from ..sweep import duty_cycle_grid
    from ..workloads import get

    ev = evaluator or get("ddc").shared_evaluator()
    result = ev.evaluate(config)
    analysis = ScenarioAnalysis(ev.scenario_candidates(config))
    grid = duty_cycle_grid(analysis, steps)
    return Section7Result(
        static_winner=result.static_winner,
        reconfigurable_winner=result.reconfigurable_winner,
        winning_regions=grid.winning_regions(),
    )

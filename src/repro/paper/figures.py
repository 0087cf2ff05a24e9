"""Figures 1-9: structural figures rendered + executable demonstrations.

The paper's figures are block diagrams (1-8) and one schedule plot (9).
For each we provide a text rendering *and* the executable artefact the
figure describes, so "reproducing the figure" means both drawing it and
running it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DDCConfig, REFERENCE_DDC


@dataclass
class FigureResult:
    """A regenerated figure: text art plus a machine-checkable payload."""

    name: str
    text: str
    payload: object = None

    def render(self) -> str:
        return f"{self.name}\n{self.text}"


def figure1(config: DDCConfig = REFERENCE_DDC) -> FigureResult:
    """Fig. 1: the DDC chain topology (executable: repro.dsp.ddc.DDC)."""
    stages = config.stages()
    parts = [f"Input ({config.input_rate_hz / 1e6:.3f} MHz)"]
    for s in stages[1:]:
        parts.append(f"{s.name} (D={s.decimation})")
    parts.append(f"Output ({config.output_rate_hz / 1e3:.0f} kHz)")
    art = (
        "          +-> [x cos] -> " + " -> ".join(parts[1:]) + "  (I)\n"
        f"{parts[0]} -+   NCO sin/cos\n"
        "          +-> [x -sin] -> " + " -> ".join(parts[1:]) + "  (Q)"
    )
    return FigureResult("Figure 1: DDC algorithm", art, config)


def figure2() -> FigureResult:
    """Fig. 2: CIC2 structure (executable: repro.dsp.cic.CICDecimator)."""
    art = (
        "x[n] ->(+)->(+)-> [decimate R] ->(-)->(-)--> y[m]\n"
        "        ^    ^                    |z-M |z-M\n"
        "        |z-1 |z-1   (2 integrators, 2 combs)"
    )
    from ..dsp.cic import CICDecimator

    return FigureResult("Figure 2: CIC2", art, CICDecimator(2, 16))


def figure3() -> FigureResult:
    """Fig. 3: polyphase FIR (executable: PolyphaseDecimator, D=5, 5 taps)."""
    from ..dsp.fir import PolyphaseDecimator, polyphase_decompose

    taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    phases = polyphase_decompose(taps, 5)
    art = (
        "decimator/control writes x[n] to register n mod 5;\n"
        "every 5th cycle: y = sum_m h[m] * reg[m]\n"
        f"phase rows (h split mod 5): {phases.tolist()}"
    )
    return FigureResult(
        "Figure 3: Polyphase FIR filter with 5 taps and a decimation of 5",
        art,
        PolyphaseDecimator(taps, 5),
    )


def figure4() -> FigureResult:
    """Fig. 4: one GC4016 channel (executable: GC4016Channel)."""
    from ..archs.asic.gc4016 import GC4016Channel

    art = (
        "in -> [NCO mix] -> [CIC5, D=8..4096] -> [CFIR 21 taps, D=2]"
        " -> [PFIR 63 taps, D=2] -> out"
    )
    channel = GC4016Channel(
        input_rate_hz=69.333e6, nco_frequency_hz=10e6, cic_decimation=64
    )
    return FigureResult("Figure 4: Channel of the TI GC4016", art, channel)


def figure8() -> FigureResult:
    """Fig. 8: the NCO+CIC2 configuration of one Montium ALU."""
    from ..archs.montium.ddc_mapping import build_ddc_schedule

    art = (
        "inputs: A=x, B=cos (from LUT memory), C=Reg1, D=Reg2\n"
        "level 2: MAC  Reg1' = x*cos + Reg1   (mix + 1st integration)\n"
        "level 1: ADD  Reg2' = Reg1 + Reg2    (2nd integration)"
    )
    program = build_ddc_schedule()
    op = program.cycles[0][0]  # ALU0's steady-state op
    return FigureResult(
        "Figure 8: NCO and CIC2 on a Montium TP ALU", art, op
    )


def figure_duty_cycle(
    config: DDCConfig = REFERENCE_DDC, steps: int = 101
) -> FigureResult:
    """Duty-cycle winner map of Section 7 (executable: repro.sweep).

    Not a numbered figure in the paper — the conclusion argues it in
    prose — but the natural plot of its scenario analysis: which
    architecture is cheapest at each DDC duty cycle.  Rendered from one
    batched pass of the sweep engine over candidates produced by the
    batched model layer (the per-process shared evaluator); the payload
    is the full :class:`~repro.energy.scenarios.ScenarioGrid`.
    """
    from ..energy.scenarios import ScenarioAnalysis
    from ..sweep import duty_cycle_grid
    from ..workloads import get

    ev = get("ddc").shared_evaluator()
    analysis = ScenarioAnalysis(ev.scenario_candidates(config))
    grid = duty_cycle_grid(analysis, steps)
    regions = grid.winning_regions()
    keys = {name: str(j) for j, name in enumerate(grid.names)}
    strip = "".join(keys[w] for w in grid.winners())
    lines = ["duty cycle 0% " + strip + " 100%"]
    for lo, hi, name in regions:
        lines.append(f"  {lo:6.1%} .. {hi:6.1%}  {name}")
    lines.append(
        "  (" + ", ".join(f"{keys[n]}={n}" for n in grid.names) + ")"
    )
    return FigureResult(
        "Figure S7: duty-cycle winner map (Section 7 scenarios)",
        "\n".join(lines),
        grid,
    )


def figure_pareto(
    config: DDCConfig = REFERENCE_DDC, steps: int = 101
) -> FigureResult:
    """Duty-cycle/energy frontier per architecture (executable: repro.explore).

    Not a numbered figure in the paper — its conclusion weighs power
    against reconfigurable-area reuse in prose — but the natural Pareto
    view of that argument: per architecture, the energy attributable to
    one output sample across DDC duty cycles, with the Section 7 winner
    regions and the (power, area) Pareto frontier of the implementation
    reports.  Rendered from one batched pass of the model layer through
    the per-process shared evaluator; the payload is the
    ``(candidates, frontier mask, scenario grid)`` triple.
    """
    from ..explore.pareto import frontier_from_batches
    from ..sweep import duty_cycle_grid
    from ..workloads import get

    evaluator = get("ddc").shared_evaluator()
    batches = evaluator.report_batches([config])
    candidates = evaluator.scenario_candidates_from_batches(
        batches, [config], strict=False
    )[0]
    mask = frontier_from_batches(batches, ("power_w", "area_mm2"))[0]
    frontier = {
        batches[j].architecture for j in range(len(batches)) if mask[j]
    }
    from ..energy.scenarios import ScenarioAnalysis

    analysis = ScenarioAnalysis(candidates)
    grid = duty_cycle_grid(analysis, steps)
    lines = ["energy per 24 kHz output sample (nJ) by DDC duty cycle:"]
    marks = (0.05, 0.25, 0.50, 1.00)
    header = "  architecture" + " " * 16 + "".join(
        f"{m:>9.0%}" for m in marks
    )
    lines.append(header)
    for j, name in enumerate(grid.names):
        cells = []
        for m in marks:
            k = round(m * (steps - 1))
            cells.append(f"{grid.powers_w[k, j] / 24_000.0 * 1e9:9.2f}")
        tag = " *" if name in frontier else ""
        lines.append(f"  {name:<28}" + "".join(cells) + tag)
    lines.append("  (* = on the (power, area) Pareto frontier)")
    lines.append("cheapest architecture by duty cycle:")
    for lo, hi, name in grid.winning_regions():
        lines.append(f"  {lo:6.1%} .. {hi:6.1%}  {name}")
    return FigureResult(
        "Figure S8: duty-cycle/energy Pareto frontier per architecture",
        "\n".join(lines),
        (candidates, mask, grid),
    )


def figure_population(
    n_samples: int = 200_000, seed: int = 0
) -> FigureResult:
    """Population energy distributions (executable: repro.montecarlo).

    Not a numbered figure in the paper — its conclusion weighs the
    architectures for a *single* operating point — but the population
    view of that argument: a seeded Monte-Carlo population of users
    (the workload's declared duty-cycle and configuration-axis
    distributions) pushed through the vectorised scenario engine in one
    pass.  Shown per architecture: p50/p95/p99 effective power and
    battery life, the overall winner probability, and the
    winner-probability map over duty-cycle bins.  The payload is the
    full :class:`~repro.montecarlo.PopulationReport`.
    """
    from ..montecarlo import PopulationSpec, run_population

    spec = PopulationSpec(workload="ddc", n_samples=n_samples, seed=seed)
    report = run_population(spec)
    lines = [report.summary()]
    lines.append("winner probability by duty-cycle bin:")
    bins = spec.duty_bins
    for b in range(bins):
        cells = {
            a.name: a.win_probability_by_duty[b]
            for a in report.architectures
        }
        if all(p is None for p in cells.values()):
            continue
        top = max(cells, key=lambda k: cells[k] or 0.0)
        share = cells[top] or 0.0
        bar = "#" * round(20 * share)
        lines.append(
            f"  {b / bins:5.0%} .. {(b + 1) / bins:5.0%}  "
            f"{top:<28} {share:6.1%} {bar}"
        )
    return FigureResult(
        "Figure S9: population energy distributions (Monte-Carlo)",
        "\n".join(lines),
        report,
    )


def figure9(cycles: int = 40) -> FigureResult:
    """Fig. 9: the first 40 clock cycles of the Montium DDC schedule."""
    from ..archs.montium.ddc_mapping import build_ddc_schedule
    from ..archs.montium.schedule import render_figure9

    program = build_ddc_schedule()
    art = render_figure9(program, cycles)
    return FigureResult(
        "Figure 9: First 40 clock cycles of the DDC", art, program
    )

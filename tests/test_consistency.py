"""The three study engines agree on who wins where.

Sweep, explore and montecarlo answer the paper's question at three input
shapes through one candidate builder, so for one configuration their
duty-cycle winners must coincide:

- the sweep's per-duty winners;
- the winners of the explore cell at that configuration;
- the winner of every duty bin of a montecarlo population whose axes are
  ``point(...)`` distributions and whose users sit at the bin centres;
- at duty 1.0, Table 7's static winner.

Checked for the reference configuration and one off-reference
``fir_taps``/``data_width`` combination.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import REFERENCE_DDC
from repro.explore import ExploreSpec
from repro.explore.refine import run_explore
from repro.montecarlo import PopulationSpec, run_population
from repro.montecarlo.spec import Choice, parse_distribution
from repro.paper import table7
from repro.sweep import SweepSpec, run_sweep
from repro.workloads import get as get_workload

#: Ten duty bins; the sweep's 21-step grid i/20 holds every bin centre
#: (the odd i), bit for bit.
BINS = 10
STEPS = 2 * BINS + 1
CENTRES = tuple(i / (STEPS - 1) for i in range(1, STEPS, 2))

CONFIGS = {
    "reference": {
        "fir_taps": REFERENCE_DDC.fir_taps,
        "data_width": REFERENCE_DDC.data_width,
    },
    "off_reference": {"fir_taps": 63, "data_width": 14},
}


@pytest.fixture(params=sorted(CONFIGS))
def overrides(request) -> dict:
    return CONFIGS[request.param]


def sweep_winners(overrides: dict) -> tuple[str, ...]:
    spec = SweepSpec.from_axes(
        {field: (value,) for field, value in overrides.items()},
        duty_cycle_steps=STEPS,
    )
    (point,) = run_sweep(spec).points
    return point.winners


def test_explore_cell_winners_equal_the_sweep(overrides):
    rate = REFERENCE_DDC.input_rate_hz
    spec = ExploreSpec(
        axis=("input_rate_hz", rate, 1.5 * rate),
        coarse_steps=2,
        target_steps=2,
        discrete_axes=tuple(
            (field, (value,)) for field, value in overrides.items()
        ),
        duty_cycle_steps=STEPS,
        on_error="skip",  # only the cell at the reference rate matters
    )
    cell = run_explore(spec).points[0].cells[0]
    assert cell.value == rate and not cell.failed
    assert cell.winners == sweep_winners(overrides)


def test_population_bin_winners_equal_the_sweep(overrides):
    spec = PopulationSpec(
        n_samples=2_000,
        duty_cycle=Choice(values=CENTRES),
        axes=tuple(
            (field, parse_distribution(f"point({value})"))
            for field, value in overrides.items()
        ),
        duty_bins=BINS,
    )
    report = run_population(spec)
    assert report.n_distinct_configs == 1
    bin_winners = []
    for b in range(BINS):
        (winner,) = [
            a.name for a in report.architectures
            if a.win_probability_by_duty[b] == 1.0
        ]
        bin_winners.append(winner)
    assert tuple(bin_winners) == sweep_winners(overrides)[1::2]


def test_table7_static_winner_is_the_sweep_winner_at_full_duty(overrides):
    config = dataclasses.replace(REFERENCE_DDC, **overrides)
    result = get_workload("ddc").shared_evaluator().evaluate_batch([config])[0]
    assert result.static_winner in [row[0] for row in table7(config).rows]
    assert sweep_winners(overrides)[-1] == result.static_winner

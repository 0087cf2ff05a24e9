"""The fast-execution engine's hot paths, run once and checked.

The compiled ``Simulator.step`` loop and the RTL DDC in cycle and block
mode are the paths ``repro.bench`` times against their oracles (see
``benchmarks/README.md``); here each runs untimed and its result is
checked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import REFERENCE_DDC
from repro.archs.fpga import RTLDDC
from repro.bench.runner import _build_step_sim
from repro.dsp.signals import quantize_to_adc, tone

N_BLOCK = 2688 * 32   # the 86k-sample reference bench input
N_CYCLE = 2688 * 2    # cycle-accurate oracle is ~70x slower: keep it short


@pytest.fixture(scope="module")
def adc_block():
    cfg = REFERENCE_DDC
    x = tone(N_BLOCK, cfg.nco_frequency_hz + 5e3, cfg.input_rate_hz, 0.8)
    return quantize_to_adc(x, 12)


def _total_toggles(sim):
    return sum(w.toggles for w in sim._wires.values())


def test_bench_sim_step_compiled():
    sim = _build_step_sim()
    sim.compile()
    sim.step(1000)
    assert sim.cycle == 1000
    assert _total_toggles(sim) > 0


def test_bench_sim_step_no_activity():
    counted = _build_step_sim()
    counted.compile()
    counted.step(1000)
    sim = _build_step_sim()
    sim.activity = False
    sim.compile()
    sim.step(1000)
    assert sim.cycle == 1000
    assert _total_toggles(sim) == 0
    assert [w.value for w in sim._wires.values()] == [
        w.value for w in counted._wires.values()
    ]


def test_bench_rtl_ddc_cycle(adc_block):
    rtl = RTLDDC()
    rtl.reset()
    res = rtl.run(adc_block[:N_CYCLE])
    assert len(res.i) == len(res.q) == N_CYCLE // REFERENCE_DDC.total_decimation
    assert res.cycles > N_CYCLE
    assert res.activity.cycles == res.cycles


def test_bench_rtl_ddc_block(adc_block):
    rtl = RTLDDC()
    rtl.reset()
    res = rtl.run(adc_block, engine="block")
    assert len(res.i) == len(res.q) == N_BLOCK // REFERENCE_DDC.total_decimation
    assert sum(w.toggles for w in res.activity.wires) > 0


def test_bench_rtl_ddc_block_no_activity(adc_block):
    rtl = RTLDDC()
    rtl.reset()
    counted = rtl.run(adc_block, engine="block")
    rtl.reset()
    res = rtl.run(adc_block, engine="block", activity=False)
    np.testing.assert_array_equal(res.i, counted.i)
    np.testing.assert_array_equal(res.q, counted.q)
    assert sum(w.toggles for w in res.activity.wires) == 0

"""Ablations of the design choices the paper makes without measuring them.

- decimation plan: is the paper's 16 x 21 x 8 split near-optimal under
  the gate-activity cost model?
- NCO LUT size vs SFDR;
- GPP optimisation level (spill slots on/off);
- the Section 7 winners at both ends of the duty-cycle axis, from one
  batched ``repro.sweep`` pass;
- FPGA measured toggle rate vs the paper's assumed 10 %;
- data-path width vs output fidelity.
"""

from __future__ import annotations

import numpy as np

from repro import DDC, REFERENCE_DDC, DDCConfig, FixedDDC
from repro.core import DDCSpec, enumerate_plans
from repro.dsp.metrics import sfdr_db
from repro.dsp.nco import NCO
from repro.dsp.signals import drm_like_ofdm, quantize_to_adc, tone


def test_decimation_plan_ablation():
    """Sweep decimation splits of 2688 and rank by estimated ASIC power."""
    plans = enumerate_plans(DDCSpec(), min_rejection_db=50.0)
    assert plans, "no valid plans found"
    tuples = [p.as_tuple() for p in plans]
    assert (16, 21, 8) in tuples, "the paper's plan must be valid"
    ref = next(p for p in plans if p.as_tuple() == (16, 21, 8))
    # The paper's hand-picked plan is within 2x of our model's optimum.
    assert ref.cost <= 2.0 * plans[0].cost


def test_nco_lut_size_ablation():
    """SFDR vs LUT depth: ~6 dB per address bit until amplitude-limited."""
    sfdr = {}
    for bits in (6, 8, 10, 12):
        nco = NCO(64.512e6, 1.234e6, lut_addr_bits=bits)
        sfdr[bits] = sfdr_db(nco.generate(1 << 14)[0])
    assert sfdr[8] > sfdr[6]
    assert sfdr[10] > sfdr[8]
    assert sfdr[10] >= 50.0


def test_gpp_spill_slot_ablation():
    """Spill-slot (unoptimised-compiler) cost on the ARM cycle count.

    Section 4.2.2: "It should be possible to speed up the algorithm when
    it is completely optimized" — quantified here over the full
    2688-sample steady state, the two profiles run as a two-item
    parallel sweep.
    """
    from repro.archs.gpp.profiler import profile_ddc
    from repro.parallel import parallel_map

    slow, fast = parallel_map(
        lambda spill: profile_ddc(n_samples=2688, spill_slots=spill),
        (True, False),
        workers=2,
    )
    slow_c = slow.cycles_per_input_sample
    fast_c = fast.cycles_per_input_sample
    assert fast_c < slow_c
    assert slow_c / fast_c < 2.0  # optimisation helps but is no panacea


def test_sweep_winner_ablation():
    """One batched pass over the Table 7 duty-cycle grid reproduces the
    paper's conclusion at both ends of the duty-cycle axis."""
    from repro.sweep import SweepSpec, run_sweep

    point = run_sweep(SweepSpec(duty_cycle_steps=1001)).points[0]
    assert point.static_winner == "Customised Low Power DDC"
    regions = point.winning_regions
    assert regions[-1][2] == "Customised Low Power DDC"
    reusable = dict(zip(point.names, point.reusable))
    assert reusable[regions[0][2]]  # low duty cycle -> reusable fabric


def test_measured_toggle_ablation():
    """Measured RTL toggle activity vs the paper's assumed 10 %.

    Runs the bit-true RTL DDC on a DRM-like stimulus, measures the mean
    internal toggle rate, and prices the design at both the measured and
    the assumed rate.
    """
    from repro.archs.fpga import (
        CYCLONE_I_EP1C3,
        RTLDDC,
        FPGAPowerModel,
        estimate_ddc_resources,
    )

    x = quantize_to_adc(
        drm_like_ofdm(2688 * 3, REFERENCE_DDC.input_rate_hz, 10e6, seed=7), 12
    )
    measured = RTLDDC().run(x).activity.mean_toggle_rate
    usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
    model = FPGAPowerModel(CYCLONE_I_EP1C3)
    p_assumed = model.estimate(usage, internal_toggle=0.10).total_mw
    p_measured = model.estimate(usage, internal_toggle=measured).total_mw
    assert 0.0 < measured < 0.6
    # Both estimates within the published sweep's envelope.
    assert 100.0 < p_assumed < 470.0
    assert 100.0 < p_measured < 470.0


def _fidelity_db(width: int, n_out: int = 32) -> float:
    """Fixed-point DDC output SNR against the gold model, in dB."""
    cfg = DDCConfig(data_width=width)
    n = cfg.total_decimation * n_out
    xf = tone(n, cfg.nco_frequency_hz + 3_000.0, cfg.input_rate_hz, amplitude=0.8)
    x = quantize_to_adc(xf, width)
    gold = DDC(cfg, lut_addr_bits=10)
    want = gold.process(x.astype(float) * 2.0 ** -(width - 1)).baseband
    got = FixedDDC(cfg, lut_addr_bits=10).process_to_float(x)
    m = min(len(want), len(got))
    err = got[8:m] - want[8:m]
    p_sig = np.mean(np.abs(want[8:m]) ** 2)
    p_err = np.mean(np.abs(err) ** 2)
    return float(10 * np.log10(p_sig / p_err))


def test_data_width_ablation():
    """Data-path width vs output fidelity.

    The paper fixes 12-bit buses ("the bus size is chosen in such a way
    that overflow cannot occur") without justifying the width against
    signal quality; this sweep shows why 12 bits suits a 12-bit ADC.
    """
    fidelity = {w: _fidelity_db(w) for w in (8, 10, 12, 14, 16)}
    # Fidelity improves sharply from 8 to 10 bits (~4 dB/bit) ...
    assert fidelity[10] > fidelity[8] + 3.0
    # ... then plateaus: beyond ~10 bits the fixed-vs-gold gap is
    # dominated by a shared, width-independent error floor, so wider
    # buses buy nothing — the empirical case for the paper's 12 bits.
    for w in (12, 14, 16):
        assert abs(fidelity[w] - fidelity[10]) < 2.0
    # The paper's 12-bit path achieves a usable budget.
    assert fidelity[12] > 25.0

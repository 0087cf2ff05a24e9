#!/usr/bin/env python
"""Quickstart: down-convert a DRM-like broadcast band with the reference DDC.

Runs the paper's reference chain (NCO + CIC2/16 + CIC5/21 + FIR125/8,
64.512 MHz -> 24 kHz) on a synthetic DRM-like OFDM signal, in both the
floating-point gold model and the bit-true 12-bit model, and reports the
recovered band power and fixed-vs-gold fidelity.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import DDC, FixedDDC, REFERENCE_DDC
from repro.dsp.signals import drm_like_ofdm, quantize_to_adc


def main() -> None:
    cfg = REFERENCE_DDC
    print("Reference DDC configuration (paper Table 1):")
    for name, rate, decim in cfg.table1_rows():
        rate_s = f"{rate / 1e6:.3f} MHz" if rate >= 1e6 else f"{rate / 1e3:.0f} kHz"
        print(f"  {name:14s} {rate_s:>12s}   D={decim if decim else '-'}")

    # One second would be 64.5M samples; 64 output samples suffice here.
    n = cfg.total_decimation * 64
    x = drm_like_ofdm(n, cfg.input_rate_hz, carrier_hz=cfg.nco_frequency_hz,
                      seed=2026)
    print(f"\nInput: {n} samples of a DRM-like OFDM band at "
          f"{cfg.nco_frequency_hz / 1e6:.1f} MHz")

    # Gold model (float64).
    ddc = DDC()
    out = ddc.process(x, keep_intermediates=True)
    print(f"Gold model: {len(out.baseband)} complex samples at "
          f"{cfg.output_rate_hz / 1e3:.0f} kHz, "
          f"band power {np.mean(np.abs(out.baseband[8:])**2):.4f}")
    assert out.cic2_out is not None
    print(f"  intermediate rates: CIC2 out {len(out.cic2_out)} samples, "
          f"CIC5 out {len(out.cic5_out)} samples")

    # Bit-true model (the FPGA's 12-bit data path).
    fixed = FixedDDC()
    z = fixed.process_to_float(quantize_to_adc(x, cfg.data_width))
    m = min(len(z), len(out.baseband))
    err = z[8:m] - out.baseband[8:m]
    p_sig = np.mean(np.abs(out.baseband[8:m]) ** 2)
    p_err = np.mean(np.abs(err) ** 2)
    print(f"Bit-true 12-bit model: {10 * np.log10(p_sig / p_err):.1f} dB "
          "agreement with the gold model")

    # The DDC is one entry in the workload registry; the whole
    # comparative stack (sweeps, exploration, benches) is selected the
    # same way: python -m repro.sweep --workload <name>.
    from repro.workloads import DEFAULT_WORKLOAD, available

    print(f"\nRegistered workloads: {', '.join(available())} "
          f"(default: {DEFAULT_WORKLOAD})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""DRM receiver front end: channel selection out of a crowded band.

The paper motivates the DDC with Digital Radio Mondiale reception on a
multimedia device.  This example synthesises a shortwave-like spectrum with
*three* DRM-like broadcasts plus an interfering carrier, tunes the DDC's
NCO to each station in turn (the retuning the Montium mapping keeps an ALU
free for), and verifies that the selected channel dominates the 24 kHz
output while its neighbours are rejected.

The tune-each-station-in-turn scenario is what the ``drm`` entry of the
workload registry (``repro.workloads``) generalises: a
``DRMReceiverConfig`` carries ``n_channels`` parallel DDC rails, its
architecture models price the whole receiver, and
``python -m repro.sweep --workload drm`` sweeps the channel count.  The
closing section below down-converts every rail bit-true with
``repro.workloads.drm.drm_receive`` and asks the workload's evaluator
which architectures can carry the receiver.

Run:  python examples/drm_receiver.py
"""

from __future__ import annotations

import numpy as np

from repro import DDC, REFERENCE_DDC, DDCConfig
from repro.dsp.signals import drm_like_ofdm, tone, white_noise

STATIONS_HZ = (6.10e6, 9.50e6, 15.20e6)   # shortwave-ish carriers
INTERFERER_HZ = 9.70e6                     # strong adjacent carrier


def build_band(n: int, fs: float, seed: int = 7) -> np.ndarray:
    """Three DRM-like stations + a CW interferer + noise floor."""
    rng = np.random.default_rng(seed)
    band = white_noise(n, rms=0.01, seed=rng)
    for i, carrier in enumerate(STATIONS_HZ):
        band = band + drm_like_ofdm(
            n, fs, carrier, rms=0.12 + 0.03 * i, seed=rng
        )
    band = band + tone(n, INTERFERER_HZ, fs, amplitude=0.3)
    return band


def main() -> None:
    fs = REFERENCE_DDC.input_rate_hz
    n = REFERENCE_DDC.total_decimation * 48
    x = build_band(n, fs)
    print(f"Band: {len(STATIONS_HZ)} DRM-like stations at "
          f"{[f'{f/1e6:.2f} MHz' for f in STATIONS_HZ]}, interferer at "
          f"{INTERFERER_HZ / 1e6:.2f} MHz")

    powers = {}
    for carrier in STATIONS_HZ:
        cfg = DDCConfig(nco_frequency_hz=carrier)
        ddc = DDC(cfg)
        out = ddc.process(x).baseband[8:]
        in_band = float(np.mean(np.abs(out) ** 2))
        powers[carrier] = in_band
        print(f"  tuned to {carrier / 1e6:5.2f} MHz: "
              f"output power {10 * np.log10(in_band):6.1f} dBFS")

    # Tune midway between stations: output should drop sharply.
    dead_carrier = 12.0e6
    ddc = DDC(DDCConfig(nco_frequency_hz=dead_carrier))
    dead = float(np.mean(np.abs(ddc.process(x).baseband[8:]) ** 2))
    print(f"  tuned to {dead_carrier / 1e6:5.2f} MHz (no station): "
          f"{10 * np.log10(dead):6.1f} dBFS")

    worst_station = min(powers.values())
    rejection_db = 10 * np.log10(worst_station / dead)
    print(f"\nChannel selectivity (weakest station vs empty channel): "
          f"{rejection_db:.1f} dB")
    assert rejection_db > 15, "DDC failed to select the DRM channels"
    print("OK: the DDC selects each DRM channel and rejects empty spectrum.")

    workload_demo()


def workload_demo() -> None:
    """The same receiver through the registered ``drm`` workload."""
    from repro.workloads import get
    from repro.workloads.drm import drm_receive

    wl = get("drm")
    cfg = wl.default_config
    print(f"\nWorkload registry: {wl.title!r}")
    print(f"  {cfg.n_channels} parallel rails, stations at "
          f"{[f'{f / 1e6:.3f} MHz' for f in cfg.station_frequencies()]}")

    # Bit-true receive: every rail down-converted in one call.
    x = build_band(cfg.total_decimation * 8, cfg.input_rate_hz)
    adc = np.clip(np.round(x * (2 ** (cfg.data_width - 1) - 1)),
                  -(2 ** (cfg.data_width - 1)),
                  2 ** (cfg.data_width - 1) - 1).astype(np.int64)
    channels = drm_receive(adc, cfg)
    print(f"  bit-true receive: {channels.shape[0]} channels x "
          f"{channels.shape[1]} samples at {cfg.output_rate_hz / 1e3:.0f} kHz")

    # Which architectures can carry the whole receiver?
    for cand in wl.evaluator().scenario_candidates(cfg, strict=False):
        print(f"  {cand.name:28s} {cand.active_power_w * 1e3:7.2f} mW active"
              f"{' (reusable when idle)' if cand.reusable else ''}")


if __name__ == "__main__":
    main()

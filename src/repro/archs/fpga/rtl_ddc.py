"""Full-DDC FPGA top level on the simulation kernel.

Wires the RTL components into the paper's Fig. 1 structure (both I and Q
rails), feeds ADC samples one per clock at 64.512 MHz, collects the 24 kHz
outputs, and exposes the toggle-activity report that drives the power
model.

The top level is verified bit-for-bit against
:class:`repro.dsp.ddc.FixedDDC` in ``tests/test_fpga_rtl.py`` — the same
words must appear on the output buses in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DDCConfig, REFERENCE_DDC
from ...dsp.firdesign import quantize_taps, reference_fir_taps
from ...errors import ConfigurationError
from ...simkernel import ClockDomain, Component, Simulator, Wire
from ...simkernel.trace import ActivityReport
from .block import (
    build_activity_report,
    stream_toggles,
    streaming_valid_toggles,
    strobe_toggles,
)
from .rtl_cic import RTLCIC
from .rtl_fir import RTLPolyphaseFIR
from .rtl_nco import RTLNCOMixer


class _InputSource(Component):
    """Drives one ADC sample per clock from a preloaded array."""

    def __init__(self, name: str, data: Wire, valid: Wire) -> None:
        super().__init__(name)
        self.add_output("x", data)
        self.add_output("x_valid", valid)
        self._samples: list[int] = []
        self._pos = 0

    def load(self, samples: np.ndarray) -> None:
        self._samples = [int(v) for v in samples]
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._samples)

    def tick(self, cycle: int) -> None:
        if self._pos < len(self._samples):
            self.write("x", self._samples[self._pos])
            self.write("x_valid", 1)
            self._pos += 1
        else:
            self.write("x_valid", 0)


class _OutputSink(Component):
    """Collects (i, q) words whenever both rails' valids assert."""

    def __init__(
        self, name: str, i: Wire, iv: Wire, q: Wire, qv: Wire
    ) -> None:
        super().__init__(name)
        self.add_input("i", i)
        self.add_input("i_valid", iv)
        self.add_input("q", q)
        self.add_input("q_valid", qv)
        self.i_samples: list[int] = []
        self.q_samples: list[int] = []

    def reset(self) -> None:
        self.i_samples.clear()
        self.q_samples.clear()

    def tick(self, cycle: int) -> None:
        if self.read("i_valid"):
            self.i_samples.append(self.read("i"))
        if self.read("q_valid"):
            self.q_samples.append(self.read("q"))


@dataclass
class RTLRunResult:
    """Outputs and activity of one RTL simulation run."""

    i: np.ndarray
    q: np.ndarray
    cycles: int
    activity: ActivityReport


class RTLDDC:
    """The complete FPGA DDC: NCO/mixer + 2x(CIC2, CIC5, FIR)."""

    def __init__(
        self,
        config: DDCConfig = REFERENCE_DDC,
        lut_bits: int = 10,
        fir_taps: np.ndarray | None = None,
    ) -> None:
        if config.cic2_order < 1 or config.cic2_decimation < 2:
            raise ConfigurationError(
                "the RTL top level implements the reference two-CIC chain"
            )
        self.config = config
        w = config.data_width
        if fir_taps is None:
            fir_rate = config.input_rate_hz / (
                config.cic2_decimation * config.cic5_decimation
            )
            fir_taps = reference_fir_taps(
                config.fir_taps, fir_rate, config.output_rate_hz
            )
        taps_raw, tap_fmt = quantize_taps(np.asarray(fir_taps), w)
        self.taps_raw = taps_raw

        sim = Simulator(ClockDomain("clk", config.input_rate_hz))
        self.sim = sim

        from ...fixedpoint import cic_bit_growth, fir_accumulator_bits

        g2 = w + cic_bit_growth(config.cic2_order, config.cic2_decimation)
        g5 = w + cic_bit_growth(config.cic5_order, config.cic5_decimation)
        acc_w = fir_accumulator_bits(w, w, len(taps_raw))
        addr_w = max(2, (len(taps_raw) - 1).bit_length() + 1)

        x = sim.wire("adc", w)
        xv = sim.wire("adc_valid", 1)
        self.source = sim.add(_InputSource("source", x, xv))

        i_mix = sim.wire("i_mix", w)
        q_mix = sim.wire("q_mix", w)
        mix_v = sim.wire("mix_valid", 1)
        self.nco = sim.add(
            RTLNCOMixer(
                "nco_mixer", x, xv, i_mix, q_mix, mix_v,
                sim.wire("nco_phase", 32),
                sim.wire("nco_cos", w), sim.wire("nco_sin", w),
                frequency_hz=config.nco_frequency_hz,
                sample_rate_hz=config.input_rate_hz,
                data_width=w, lut_bits=lut_bits,
            )
        )

        def rail(tag: str, mixed: Wire) -> tuple[Wire, Wire]:
            c2_y = sim.wire(f"{tag}_cic2", w)
            c2_v = sim.wire(f"{tag}_cic2_valid", 1)
            cic2 = sim.add(
                RTLCIC(
                    f"cic2_{tag}", mixed, mix_v, c2_y, c2_v,
                    sim.wire(f"{tag}_cic2_int", g2),
                    sim.wire(f"{tag}_cic2_comb", g2),
                    config.cic2_order, config.cic2_decimation, w,
                )
            )
            c5_y = sim.wire(f"{tag}_cic5", w)
            c5_v = sim.wire(f"{tag}_cic5_valid", 1)
            cic5 = sim.add(
                RTLCIC(
                    f"cic5_{tag}", c2_y, c2_v, c5_y, c5_v,
                    sim.wire(f"{tag}_cic5_int", g5),
                    sim.wire(f"{tag}_cic5_comb", g5),
                    config.cic5_order, config.cic5_decimation, w,
                )
            )
            out = sim.wire(f"{tag}_out", w)
            out_v = sim.wire(f"{tag}_out_valid", 1)
            fir = sim.add(
                RTLPolyphaseFIR(
                    f"fir_{tag}", c5_y, c5_v, out, out_v,
                    sim.wire(f"{tag}_fir_acc", acc_w),
                    sim.wire(f"{tag}_fir_addr", addr_w),
                    taps_raw, config.fir_decimation, w,
                    output_shift=max(0, tap_fmt.frac),
                )
            )
            self._rails[tag] = (cic2, cic5, fir)
            return out, out_v

        self._rails: dict[str, tuple[RTLCIC, RTLCIC, RTLPolyphaseFIR]] = {}
        i_out, i_v = rail("i", i_mix)
        q_out, q_v = rail("q", q_mix)
        self.sink = sim.add(_OutputSink("sink", i_out, i_v, q_out, q_v))

    def run(
        self,
        samples: np.ndarray,
        drain_cycles: int | None = None,
        *,
        activity: bool = True,
        engine: str = "cycle",
    ) -> RTLRunResult:
        """Feed ``samples`` (one per clock) and collect outputs.

        ``drain_cycles`` extra cycles flush the pipeline after the last
        input (default: enough for the FIR latency).

        ``engine`` selects the execution engine (default ``"cycle"``):

        - ``"cycle"`` — the cycle-accurate simulation kernel, one clock
          edge per Python iteration.  This is the oracle.
        - ``"block"`` — the vectorised fast path: each RTL component's
          ``process_block`` runs the bit-true numpy models over the whole
          burst, cycle counts are derived analytically (one input per
          clock plus the drain), and the activity report is reconstructed
          from the driven-value streams.  Outputs are bit-identical to the
          cycle path run with a sufficient drain (the default); block mode
          always returns every triggered output, whereas a too-small
          ``drain_cycles`` truncates the cycle path's pipeline.  Component
          state advances identically, but the kernel wires themselves are
          not exercised (``reset`` still clears everything).  Block-mode
          activity assumes the run started from a freshly reset design.

        ``activity=False`` skips toggle accounting in either mode — the
        returned report then carries zero toggles — which is the right
        setting for functional and throughput runs.
        """
        samples = np.asarray(samples)
        if not np.issubdtype(samples.dtype, np.integer):
            raise ConfigurationError("RTL DDC input must be raw integers")
        if drain_cycles is None:
            drain_cycles = len(self.taps_raw) + 16
        if engine == "cycle":
            self.sim.activity = activity
            self.source.load(samples)
            self.sim.step(len(samples) + drain_cycles)
            report = (
                self.sim.activity_report()
                if activity
                # The wires may hold stale counters from earlier activity
                # runs; honour the opt-out with an explicitly zeroed report.
                else build_activity_report(self.sim._wires, {}, self.sim.cycle)
            )
            return RTLRunResult(
                i=np.array(self.sink.i_samples, dtype=np.int64),
                q=np.array(self.sink.q_samples, dtype=np.int64),
                cycles=self.sim.cycle,
                activity=report,
            )
        if engine == "block":
            return self._run_block(samples, drain_cycles, activity)
        raise ConfigurationError(f"unknown RTL run engine {engine!r}")

    def _run_block(
        self, samples: np.ndarray, drain_cycles: int, activity: bool
    ) -> RTLRunResult:
        """The vectorised execution engine behind ``run(engine="block")``."""
        x = samples.astype(np.int64, copy=False)
        n = x.size
        if n:
            # Cycle mode rejects out-of-range samples at the adc wire;
            # keep the fast path equally strict.
            w = self.config.data_width
            lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
            if int(x.min()) < lo or int(x.max()) > hi:
                raise ConfigurationError(
                    f"RTL DDC input sample out of the {w}-bit adc range"
                )
        cycles = n + drain_cycles
        internals: dict[str, dict[str, np.ndarray]] | None = (
            {} if activity else None
        )

        def probes(name: str) -> dict[str, np.ndarray] | None:
            if internals is None:
                return None
            return internals.setdefault(name, {})

        i_mix, q_mix = self.nco.process_block(x, internals=probes("nco"))
        rail_out: dict[str, np.ndarray] = {}
        rail_streams: dict[str, tuple[np.ndarray, ...]] = {}
        for tag, mixed in (("i", i_mix), ("q", q_mix)):
            cic2, cic5, fir = self._rails[tag]
            c2 = cic2.process_block(mixed, internals=probes(f"cic2_{tag}"))
            c5 = cic5.process_block(c2, internals=probes(f"cic5_{tag}"))
            out = fir.process_block(c5, internals=probes(f"fir_{tag}"))
            rail_out[tag] = out
            rail_streams[tag] = (mixed, c2, c5, out)

        report = (
            self._block_activity(x, rail_streams, internals, cycles)
            if internals is not None
            else build_activity_report(self.sim._wires, {}, cycles)
        )
        return RTLRunResult(
            i=rail_out["i"], q=rail_out["q"], cycles=cycles, activity=report,
        )

    def _block_activity(
        self,
        x: np.ndarray,
        rail_streams: dict[str, tuple[np.ndarray, ...]],
        internals: dict[str, dict[str, np.ndarray]],
        cycles: int,
    ) -> ActivityReport:
        """Reconstruct the cycle-accurate toggle counts from block streams.

        Every data bus's committed-value sequence is known exactly (wires
        hold between valid strobes), so the reconstruction matches the
        cycle-accurate simulation bit for bit; only the 1-bit valid lines
        use the closed-form strobe count.
        """
        wires = self.sim._wires
        n = x.size
        toggles: dict[str, int] = {}

        def add_stream(name: str, values: np.ndarray) -> None:
            toggles[name] = stream_toggles(values, wires[name].width)

        add_stream("adc", x)
        toggles["adc_valid"] = streaming_valid_toggles(n)
        toggles["mix_valid"] = streaming_valid_toggles(n)
        nco = internals["nco"]
        add_stream("nco_phase", nco["phase"])
        add_stream("nco_cos", nco["cos"])
        add_stream("nco_sin", nco["sin"])
        for tag in ("i", "q"):
            mixed, c2, c5, out = rail_streams[tag]
            add_stream(f"{tag}_mix", mixed)
            add_stream(f"{tag}_cic2", c2)
            add_stream(f"{tag}_cic5", c5)
            add_stream(f"{tag}_out", out)
            toggles[f"{tag}_cic2_valid"] = strobe_toggles(len(c2))
            toggles[f"{tag}_cic5_valid"] = strobe_toggles(len(c5))
            toggles[f"{tag}_out_valid"] = strobe_toggles(len(out))
            cic2_p = internals[f"cic2_{tag}"]
            add_stream(f"{tag}_cic2_int", cic2_p["int_top"])
            add_stream(f"{tag}_cic2_comb", cic2_p["comb_out"])
            cic5_p = internals[f"cic5_{tag}"]
            add_stream(f"{tag}_cic5_int", cic5_p["int_top"])
            add_stream(f"{tag}_cic5_comb", cic5_p["comb_out"])
            fir_p = internals[f"fir_{tag}"]
            add_stream(f"{tag}_fir_acc", fir_p["acc"])
            add_stream(f"{tag}_fir_addr", fir_p["mac_addr"])
        return build_activity_report(wires, toggles, cycles)

    def reset(self) -> None:
        """Reset the whole design (wires, components, statistics)."""
        self.sim.reset()


def ddc_workload_mapping():
    """The DDC workload's FPGA mapping descriptor (see
    :mod:`repro.workloads`): the structural RTL design run through the
    block engine, bit-identical to the cycle-accurate oracle."""
    from ...config import REFERENCE_DDC
    from ...workloads.base import WorkloadMapping

    def run(samples, config=REFERENCE_DDC, engine="block"):
        return RTLDDC(config).run(samples, engine=engine)

    return WorkloadMapping(
        architecture="Altera Cyclone",
        description=(
            "structural RTL DDC (NCO ROM + CIC rails + sequential "
            "polyphase FIR); engine='block' is the vectorised fast path, "
            "engine='cycle' the cycle-accurate oracle"
        ),
        run=run,
    )

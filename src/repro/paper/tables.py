"""Tables 1-7, recomputed from the models.

Every function returns a :class:`TableResult`: named rows (list of tuples)
plus a ``render()``-able text form and, where the paper published numbers
we can compare against, the published values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import DDCConfig, REFERENCE_DDC
from ..core.evaluator import DDCEvaluator


@dataclass
class TableResult:
    """A regenerated table."""

    name: str
    header: tuple[str, ...]
    rows: list[tuple[Any, ...]]
    published: list[tuple[Any, ...]] = field(default_factory=list)

    def render(self) -> str:
        """Fixed-width text rendering."""
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in self.rows)) + 2
            for i, h in enumerate(self.header)
        ]
        lines = [self.name]
        lines.append(
            "".join(str(h).ljust(w) for h, w in zip(self.header, widths))
        )
        lines.append("-" * sum(widths))
        for r in self.rows:
            lines.append(
                "".join(str(v).ljust(w) for v, w in zip(r, widths))
            )
        return "\n".join(lines)


def table1(config: DDCConfig = REFERENCE_DDC) -> TableResult:
    """Table 1: clock/sample rate and decimation per component."""
    rows = []
    for name, rate_hz, decim in config.table1_rows():
        rate = (
            f"{rate_hz / 1e6:.3f} MHz" if rate_hz >= 1e6
            else f"{rate_hz / 1e3:.0f} kHz"
        )
        rows.append((name, rate, "-" if decim is None else decim))
    published = [
        ("NCO", "64.512 MHz", "-"),
        ("CIC2", "64.512 MHz", 16),
        ("CIC5", "4.032 MHz", 21),
        ("125 taps FIR", "192 kHz", 8),
        ("Output", "24 kHz", "-"),
    ]
    return TableResult(
        "Table 1: Clock speed and decimation in a DDC",
        ("Component", "Clock/sample rate", "Decimation (D)"),
        rows,
        published,
    )


def table2() -> TableResult:
    """Table 2: GC4016 configuration limits (datasheet model constants)."""
    from ..archs.asic.gc4016 import GC4016_SPEC as s

    rows = [
        ("Input speed of filter", f"Up to {s.max_input_msps:.0f} MSPS"),
        ("Input size of filter",
         f"{s.input_bits_4ch} (4ch.) or {s.input_bits_3ch}-bit (3ch.)"),
        ("Decimation of a channel",
         f"{s.min_decimation} to {s.max_decimation}"),
        ("Output size of filter",
         ",".join(str(b) for b in s.output_bits) + "-Bit"),
        ("Energy consumption for a GSM channel",
         f"{s.example_power_w * 1e3:.0f}mW "
         f"({s.example_clock_hz / 1e6:.0f} MHz & {s.technology.vdd} V)"),
    ]
    return TableResult(
        "Table 2: Configuration of a TI Quad DDC",
        ("Parameter", "Value"),
        rows,
    )


def table3(n_samples: int | None = None) -> TableResult:
    """Table 3: division of the DDC cycles on the ARM (profiled)."""
    from ..archs.gpp.profiler import profile_ddc

    prof = profile_ddc(n_samples=n_samples)
    display = {
        "nco": ("NCO", "64.512 MHz"),
        "cic2_int": ("CIC2-integrating", ""),
        "cic2_comb": ("CIC2-cascading", "4.032 MHz"),
        "cic5_int": ("CIC5-integrating", ""),
        "cic5_comb": ("CIC5-cascading", "192 kHz"),
        "fir_poly": ("FIR125-poly-phase", ""),
        "fir_sum": ("FIR125-summation", "24 kHz"),
    }
    rows = [
        (display[region][0], display[region][1], f"{pct:.1f} %")
        for region, pct in prof.table3_rows()
    ]
    published = [
        ("NCO", "64.512 MHz", "50 %"),
        ("CIC2-integrating", "", "40 %"),
        ("CIC2-cascading", "4.032 MHz", "3.2 %"),
        ("CIC5-integrating", "", "4.4 %"),
        ("CIC5-cascading", "192 kHz", "< 0.5 %"),
        ("FIR125-poly-phase", "", "< 0.5 %"),
        ("FIR125-summation", "24 kHz", "1.6 %"),
    ]
    return TableResult(
        "Table 3: Division of the DDC code for an ARM",
        ("Part of filter", "Clock speed", "Percentage of clock cycles"),
        rows,
        published,
    )


def table4() -> TableResult:
    """Table 4: synthesis results for Cyclone I and II."""
    from ..archs.fpga.devices import CYCLONE_I_EP1C3, CYCLONE_II_EP2C5
    from ..archs.fpga.resources import estimate_ddc_resources

    rows = []
    for dev in (CYCLONE_I_EP1C3, CYCLONE_II_EP2C5):
        u = estimate_ddc_resources(dev)
        util = u.utilisation(dev)
        rows.append(
            (
                dev.name,
                f"{u.logic_elements} / {dev.logic_elements}"
                f" ({util['logic_elements']:.0%})",
                f"{u.pins} / {dev.user_pins} ({util['pins']:.0%})",
                f"{u.memory_bits} / {dev.memory_bits}"
                f" ({util['memory_bits']:.0%})",
                f"{u.multipliers_9bit} / {dev.multipliers_9bit}",
            )
        )
    published = [
        ("EP1C3T100C6", "1,656 / 2,910 (56 %)", "41 / 65 (63 %)",
         "6,780 / 59,904 (12 %)", "0 / 0"),
        ("EP2C5T144C6", "906 / 4,608 (20 %)", "41 / 89 (46 %)",
         "7,686 / 119,808 (6 %)", "8 / 26"),
    ]
    return TableResult(
        "Table 4: Synthesis results for Cyclone I and II",
        ("Device", "Logic elements", "Pins", "Memory bits",
         "9-bit multipliers"),
        rows,
        published,
    )


def table5() -> TableResult:
    """Table 5: Cyclone I power vs internal toggle rate
    (:meth:`FPGAPowerModel.table5_sweep`)."""
    from ..archs.fpga.devices import CYCLONE_I_EP1C3
    from ..archs.fpga.power import FPGAPowerModel
    from ..archs.fpga.resources import estimate_ddc_resources

    usage = estimate_ddc_resources(CYCLONE_I_EP1C3)
    model = FPGAPowerModel(CYCLONE_I_EP1C3)
    sweep = model.table5_sweep(usage)
    rows = [
        ("Total Thermal Power Dissipation",
         *(f"{b.total_mw:.1f} mW" for _, b in sweep)),
        ("Dynamic Thermal Power Dissipation",
         *(f"{b.dynamic_w * 1e3:.1f} mW" for _, b in sweep)),
        ("Static Thermal Power Dissipation",
         *(f"{b.static_w * 1e3:.1f} mW" for _, b in sweep)),
    ]
    published = [
        ("Total", "120.9 mW", "141.4 mW", "305.3 mW", "458.9 mW"),
        ("Dynamic", "72.9 mW", "93.4 mW", "257.2 mW", "410.8 mW"),
        ("Static", "48.0 mW", "48.0 mW", "48.0 mW", "48.0 mW"),
    ]
    return TableResult(
        "Table 5: Power consumption of Cyclone I (input toggle rate 50%)",
        ("Internal toggle rate", "5%", "10%", "50%", "87.5%"),
        rows,
        published,
    )


def table6() -> TableResult:
    """Table 6: the DDC algorithm on a Montium (ALUs + occupancy)."""
    from ..archs.montium.ddc_mapping import build_ddc_schedule
    from ..archs.montium.schedule import analyze_schedule

    report = analyze_schedule(build_ddc_schedule())
    rows = [
        (name, n_alus, f"{pct:.1f}%")
        for name, n_alus, pct in report.table6_rows()
    ]
    published = [
        ("NCO + CIC2 integrating", 3, "100%"),
        ("CIC2 cascading", 2, "6.3%"),
        ("CIC5 integrating", 2, "25%"),
        ("CIC5 cascading", 2, "0.9%"),
        ("FIR125", 2, "0.5%"),
    ]
    return TableResult(
        "Table 6: DDC algorithm on a Montium",
        ("Algorithm part", "#ALUs", "Percentage of time on ALUs"),
        rows,
        published,
    )


def table7(
    config: DDCConfig = REFERENCE_DDC,
    evaluator: DDCEvaluator | None = None,
) -> TableResult:
    """Table 7: summary of results across all architectures.

    Rides the batched model layer — the default evaluator is the ``ddc``
    workload's per-process
    :meth:`~repro.workloads.base.Workload.shared_evaluator` (cached
    ``implement_batch`` reports, bit-identical to the scalar path);
    ``evaluator`` lets callers bring their own instance.
    """
    from ..workloads import get

    ev = evaluator or get("ddc").shared_evaluator()
    result = ev.evaluate(config)
    rows = []
    for r in result.comparison.rows:
        area = f"{r.area_mm2:.1f}mm2" if r.area_mm2 is not None else "n.a."
        rows.append(
            (
                r.architecture,
                str(r.technology),
                f"{r.clock_hz / 1e6:.1f}",
                f"{r.power_mw:.1f} mW",
                f"{r.power_scaled_mw:.1f} mW",
                area,
            )
        )
    published = [
        ("TI GC4016", "0.25um", "80.0", "115.0 mW", "13.8 mW", "n.a."),
        ("Customised Low Power DDC", "0.18um", "64.512", "27.0 mW",
         "8.7 mW", "1.7mm2 (printed as 17mm2)"),
        ("ARM922T", "0.13um", "6697.0", "2435 mW", "2435 mW", "3.2mm2"),
        ("Altera Cyclone I", "0.13um", "64.512", "93.4 mW (dynamic)",
         "-", "n.a."),
        ("Altera Cyclone II", "0.09um", "64.512", "31.11 mW (dynamic)",
         "44.94 mW", "n.a."),
        ("Montium TP", "0.13um", "64.512", "38.7 mW", "38.7 mW", "2.2mm2"),
    ]
    return TableResult(
        "Table 7: Summary of results",
        ("Solution", "Size", "Freq[MHz]", "Power", "Power @0.13um", "Area"),
        rows,
        published,
    )

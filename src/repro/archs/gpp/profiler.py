"""Region profiling of the generated DDC program (paper Table 3).

:func:`profile_ddc` assembles the generated DDC, runs it on the CPU
simulator over a block of input samples, and attributes cycles to the
paper's seven regions.  The result carries everything Section 4.2 derives:

- the per-region cycle shares (Table 3's right column);
- instructions and cycles per second at the 64.512 MHz input rate;
- the clock an ARM would need for the I-rail and for the full I+Q DDC;
- whether a single ARM9 can sustain it (it cannot).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ...config import DDCConfig, REFERENCE_DDC
from ...errors import ConfigurationError
from .codegen import (
    DDC_REGIONS,
    build_memory_image,
    generate_ddc_program,
)
from .cpu import CPU, ExecutionStats, check_engine


@dataclass(frozen=True)
class RegionProfile:
    """Profiling result over one simulated input block."""

    n_samples: int
    input_rate_hz: float
    stats: ExecutionStats
    region_fractions: dict[str, float]
    out_samples: np.ndarray

    @property
    def cycles_per_input_sample(self) -> float:
        """Average cycles the CPU spends per input sample (one rail)."""
        return self.stats.cycles / self.n_samples

    @property
    def instructions_per_second(self) -> float:
        """MIPS * 1e6 needed to keep up with the input rate (one rail).

        The paper's figure: 2865 Mega instructions per second.
        """
        return self.stats.instructions / self.n_samples * self.input_rate_hz

    @property
    def cycles_per_second(self) -> float:
        """Clock rate needed for the in-phase rail (paper: 4.870e9)."""
        return self.cycles_per_input_sample * self.input_rate_hz

    @property
    def required_clock_hz(self) -> float:
        """Clock for the full DDC: the Q rail doubles the work
        (paper: 4870 MHz * 2 = 9740 MHz)."""
        return 2.0 * self.cycles_per_second

    def table3_rows(self) -> list[tuple[str, float]]:
        """(region, percent-of-cycles) rows in Table 3 order."""
        return [(r, 100.0 * self.region_fractions.get(r, 0.0))
                for r in DDC_REGIONS]


#: The widest ``data_width`` whose stimulus :func:`profile_ddc` can draw
#: (its samples are int64).
MAX_STIMULUS_WIDTH = 64


def check_stimulus_width(config: DDCConfig) -> None:
    """Refuse a ``data_width`` the profiler's int64 stimulus cannot hold."""
    if config.data_width > MAX_STIMULUS_WIDTH:
        raise ConfigurationError(
            f"data_width {config.data_width} exceeds the "
            f"{MAX_STIMULUS_WIDTH}-bit stimulus the GPP profiler can draw"
        )


#: Instruction budget :func:`profile_ddc` grants a run of ``n`` samples.
def _instruction_budget(n_samples: int) -> int:
    return 400 * n_samples + 10_000


@functools.lru_cache(maxsize=None)
def _ddc_skeleton(spill_slots: bool, lut_bits: int):
    """The generated program's basic-block skeleton and cost tables.

    The codegen emits the *same instruction sequence shape* for every
    configuration — decimations, taps, widths and frequencies only change
    immediates, never instruction counts or cost classes — so one
    reference build provides the static per-block cost tables for the
    whole configuration space (pinned against real execution by
    ``tests/test_evaluator_batch.py``).
    """
    from .ddc_kernel import _match_skeleton

    program, _ = generate_ddc_program(REFERENCE_DDC, 1, lut_bits, spill_slots)
    sk = _match_skeleton(program)
    if sk is None:  # pragma: no cover - codegen and kernel move together
        raise ConfigurationError(
            "generated DDC no longer matches the kernel skeleton"
        )
    return sk


def profile_ddc_analytic(
    config: DDCConfig = REFERENCE_DDC,
    n_samples: int | None = None,
    spill_slots: bool = True,
    lut_bits: int = 10,
) -> RegionProfile | None:
    """Closed-form :func:`profile_ddc` twin: statistics without execution.

    The generated DDC's control flow depends only on counters, so its
    per-region instruction/cycle statistics — everything
    :class:`~repro.archs.gpp.arm9.ARM9Model` needs — follow in closed
    form from the decimation structure and the static block cost tables
    (:func:`~repro.archs.gpp.ddc_kernel.ddc_block_plan`).  The resulting
    :class:`RegionProfile` carries statistics bit-identical to running
    the program; ``out_samples`` is empty (nothing was executed).

    Returns ``None`` when the analytic path does not apply — non-reference
    CIC orders (codegen rejects them) or a run that would exceed
    :func:`profile_ddc`'s instruction budget (the interpreter truncates there)
    — and the caller must fall back to :func:`profile_ddc`, which
    reproduces the scalar behaviour exactly, errors included.
    """
    from .ddc_kernel import (
        accumulate_block_stats,
        ddc_block_plan,
        plan_instructions,
    )

    if config.cic2_order != 2 or config.cic5_order != 5:
        return None
    if n_samples is None:
        n_samples = config.total_decimation
    if n_samples < 1:
        return None
    sk = _ddc_skeleton(spill_slots, lut_bits)
    plan = ddc_block_plan(
        sk,
        n_samples,
        config.cic2_decimation,
        config.cic5_decimation,
        config.fir_decimation,
        config.fir_taps,
        0,  # a fresh run starts with FIR write index 0
    )
    if plan_instructions(plan) > _instruction_budget(n_samples):
        return None
    stats = ExecutionStats()
    accumulate_block_stats(
        stats,
        [blk for blk, _, _ in plan],
        [count for _, count, _ in plan],
        [taken for _, _, taken in plan],
    )
    steady = {r: stats.region_cycles.get(r, 0) for r in DDC_REGIONS}
    total = sum(steady.values())
    fractions = {r: (c / total if total else 0.0) for r, c in steady.items()}
    return RegionProfile(
        n_samples=n_samples,
        input_rate_hz=config.input_rate_hz,
        stats=stats,
        region_fractions=fractions,
        out_samples=np.empty(0, dtype=np.int64),
    )


def profile_ddc(
    config: DDCConfig = REFERENCE_DDC,
    n_samples: int | None = None,
    input_samples: np.ndarray | None = None,
    spill_slots: bool = True,
    lut_bits: int = 10,
    engine: str = "auto",
) -> RegionProfile:
    """Generate, assemble and execute the DDC; return the region profile.

    ``n_samples`` defaults to one full output period (2688 inputs) so every
    region, including the FIR summation, executes at its steady-state rate.

    ``engine`` selects the execution strategy (see
    :meth:`~repro.archs.gpp.cpu.CPU.run`); the default ``"auto"`` runs the
    vectorised DDC kernel, which is >100x faster than the seed interpreter
    (``engine="interp"``) with bit-identical statistics and outputs.
    """
    check_engine(engine)
    check_stimulus_width(config)
    if n_samples is None:
        n_samples = (
            config.total_decimation if input_samples is None
            else len(input_samples)
        )
    # The code generator validates the configuration before any stimulus
    # is drawn.
    program, layout = generate_ddc_program(
        config, n_samples, lut_bits, spill_slots
    )
    if input_samples is None:
        rng = np.random.default_rng(0xA2)
        input_samples = rng.integers(
            -(2 ** (config.data_width - 1)),
            2 ** (config.data_width - 1),
            size=n_samples,
        ).astype(np.int64)
    input_samples = np.asarray(input_samples)
    if len(input_samples) != n_samples:
        raise ConfigurationError("input_samples length must equal n_samples")

    cpu = CPU(program)
    for base, words in build_memory_image(layout, input_samples).items():
        cpu.load_memory(base, words)
    stats = cpu.run(
        max_instructions=_instruction_budget(n_samples), engine=engine
    )

    steady = {r: stats.region_cycles.get(r, 0) for r in DDC_REGIONS}
    total = sum(steady.values())
    fractions = {r: (c / total if total else 0.0) for r, c in steady.items()}

    n_out = n_samples // config.total_decimation
    out = np.array(
        [cpu.read_memory(layout.out_base + i) for i in range(n_out)],
        dtype=np.int64,
    )
    return RegionProfile(
        n_samples=n_samples,
        input_rate_hz=config.input_rate_hz,
        stats=stats,
        region_fractions=fractions,
        out_samples=out,
    )

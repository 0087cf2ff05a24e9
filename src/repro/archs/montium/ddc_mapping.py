"""The paper's DDC mapping on the Montium (Section 6.2, Fig. 8/9, Table 6).

Schedule structure (steady state, one 336-cycle macro period = one CIC5
output; 21 sub-periods of 16 cycles = one CIC2 output each):

- **every cycle**: ALU0 and ALU1 run the Fig. 8 configuration — the mixer
  multiply plus both CIC2 integrations for the I and Q rails — and ALU2
  performs the LUT address generation / input fetch ("three ALUs ... at
  64.512 MSPS", Table 6 row 1: 3 ALUs, 100 %);
- **cycle 0 of each sub-period**: ALU3/ALU4 execute the CIC2 comb for the
  I/Q rails (1 cycle per complex sample every 16 -> 6.3 %);
- **cycles 1-4 of each sub-period**: ALU3/ALU4 run the five CIC5
  integrations as double-word adds (4 cycles per 16 -> 25 %);
- **cycles 5-7 of sub-period 0**: ALU3/ALU4 run the five CIC5 comb stages
  (3 cycles per 336 -> 0.9 %);
- **cycles 8 of sub-period 0**: ALU3/ALU4 run the polyphase FIR
  bookkeeping (the 16 multiplications ride on idle multiplier slots of
  the cycles above; the residual charge is ~0.5 %).

Fixed-point plan (the tile is a 16-bit machine):

- mixer product is scaled so the CIC2 internal word (growth 8 bits) fits
  16 bits;
- the CIC2 comb output is scaled to 10 bits so the CIC5's 22-bit growth
  fits the 32-bit double-word arithmetic;
- the CIC5 comb output is scaled back to a 16-bit word for the FIR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DDCConfig, REFERENCE_DDC
from ...dsp.firdesign import quantize_taps, reference_fir_taps
from ...errors import ConfigurationError
from ...fixedpoint import QFormat, to_fixed
from .alu import ALUOp, Level1Fn, Level2Fn
from .program import TileProgram
from .tile import MontiumTile

#: Schedule labels in Table 6 order.
TABLE6_LABELS = (
    "nco_cic2_int",
    "cic2_comb",
    "cic5_int",
    "cic5_comb",
    "fir125",
)

#: LUT length: one macro period's worth of distinct phases fits a 512-word
#: local memory ("the values for the sine and cosine are stored in the
#: local memories").
LUT_WORDS = 512

#: Scaling shifts of the fixed-point plan.
MIX_SHIFT = 19        # Q15 product >> 19: 12-bit sample -> 8-bit mixed
CIC2_OUT_SHIFT = 6    # 16-bit comb word -> 10-bit CIC5 input
CIC5_OUT_SHIFT = 16   # 32-bit comb word -> 16-bit FIR input


@dataclass(frozen=True)
class DDCScheduleMeta:
    """Shape of the DDC schedule, for the block engine.

    Attached to the :class:`~repro.archs.montium.program.TileProgram` by
    :func:`build_ddc_schedule`; :func:`~repro.archs.montium.block.
    process_ddc_block` uses it to vectorise execution.  The contract is
    pinned bit-for-bit by the stepped-vs-block Hypothesis suite in
    ``tests/test_fast_engine.py``.
    """

    d2: int                 # sub-period (CIC2 comb every d2 cycles)
    macro: int              # macro period (CIC5 comb + FIR every macro)
    mix_shift: int
    cic2_out_shift: int
    cic5_out_shift: int


def build_ddc_schedule(config: DDCConfig = REFERENCE_DDC) -> TileProgram:
    """Construct the 336-cycle steady-state schedule."""
    if config.cic2_decimation != 16 or config.cic5_decimation != 21:
        raise ConfigurationError(
            "the Montium mapping implements the paper's 16/21/8 reference"
        )
    d2 = config.cic2_decimation
    macro = d2 * config.cic5_decimation  # 336

    nco_i = ALUOp(
        label="nco_cic2_int",
        level1=(Level1Fn.ADD,),
        level1_pairs=((2, 3),),                  # i1 + i2 (old values)
        level2=Level2Fn.MAC,                     # x*cos + i1
        mul_shift=MIX_SHIFT,
        sources=("env:x", "mem:mem0_1:agu+", "env:i1_I", "env:i2_I"),
        dests=("env:i2_I", "env:i1_I"),
    )
    nco_q = ALUOp(
        label="nco_cic2_int",
        level1=(Level1Fn.ADD,),
        level1_pairs=((2, 3),),
        level2=Level2Fn.MAC,
        mul_shift=MIX_SHIFT,
        sources=("env:x_neg", "mem:mem1_1:agu+", "env:i1_Q", "env:i2_Q"),
        dests=("env:i2_Q", "env:i1_Q"),
    )
    # ALU2: input fetch + address generation.  x_neg = 0 - x feeds the Q
    # rail's -sin convention.
    agu = ALUOp(
        label="nco_cic2_int",
        level1=(Level1Fn.PASS_A, Level1Fn.SUB),
        level1_pairs=((0, 1), (1, 0)),           # x, 0 - x
        level2=Level2Fn.NONE,
        sources=("ext:in", "const:0"),
        dests=("env:x", "env:x_neg"),
    )

    def comb2(rail: str) -> ALUOp:
        # CIC2 comb: both stages plus both delay updates in one cycle,
        # all at the 16-bit integrator modulus (CIC2_COMB compound).
        return ALUOp(
            label="cic2_comb",
            level2=Level2Fn.CIC2_COMB,
            post_shift=CIC2_OUT_SHIFT,
            sources=(f"env:i2_{rail}", f"env:c2d0_{rail}", f"env:c2d1_{rail}"),
            dests=(f"env:c2d0_{rail}", f"env:c2d1_{rail}",
                   f"env:c2out_{rail}"),
        )

    def cic5_int_op(rail: str, stage: int) -> ALUOp:
        # stage 0: s0 += x (input from the CIC2 comb); stages 1..3 chain.
        if stage == 0:
            return ALUOp(
                label="cic5_int",
                level2=Level2Fn.CIC_INT2,        # s0 += x; s1 += s0
                sources=(f"env:c2out_{rail}", f"env32:s0_{rail}",
                         f"env32:s1_{rail}"),
                dests=(f"env32:s0_{rail}", f"env32:s1_{rail}"),
            )
        if stage == 1:
            return ALUOp(
                label="cic5_int",
                level2=Level2Fn.CIC_INT1,        # s2 += s1
                sources=(f"env32:s1_{rail}", f"env32:s2_{rail}"),
                dests=(f"env32:s2_{rail}",),
            )
        if stage == 2:
            return ALUOp(
                label="cic5_int",
                level2=Level2Fn.CIC_INT1,        # s3 += s2
                sources=(f"env32:s2_{rail}", f"env32:s3_{rail}"),
                dests=(f"env32:s3_{rail}",),
            )
        return ALUOp(
            label="cic5_int",
            level2=Level2Fn.CIC_INT1,            # s4 += s3
            sources=(f"env32:s3_{rail}", f"env32:s4_{rail}"),
            dests=(f"env32:s4_{rail}",),
        )

    def cic5_comb_op(rail: str, part: int) -> ALUOp:
        if part == 0:
            return ALUOp(
                label="cic5_comb",
                level2=Level2Fn.CIC_COMB2,       # stages 0 and 1
                sources=(f"env32:s4_{rail}", f"env32:d0_{rail}",
                         f"env32:d1_{rail}"),
                dests=(f"env32:d0_{rail}", f"env32:d1_{rail}",
                       f"env32:t0_{rail}"),
            )
        if part == 1:
            return ALUOp(
                label="cic5_comb",
                level2=Level2Fn.CIC_COMB2,       # stages 2 and 3
                sources=(f"env32:t0_{rail}", f"env32:d2_{rail}",
                         f"env32:d3_{rail}"),
                dests=(f"env32:d2_{rail}", f"env32:d3_{rail}",
                       f"env32:t1_{rail}"),
            )
        return ALUOp(
            label="cic5_comb",
            level2=Level2Fn.CIC_COMB1,           # stage 4 + output scaling
            post_shift=CIC5_OUT_SHIFT,
            sources=(f"env32:t1_{rail}", f"env32:d4_{rail}"),
            dests=(f"env32:d4_{rail}", f"env:c5out_{rail}"),
        )

    def fir_op(rail: str, alu: int) -> ALUOp:
        return ALUOp(
            label="fir125",
            level2=Level2Fn.FIR_STEP,
            sources=(f"env:c5out_{rail}",),
            dests=(f"ext:out",),
            meta=(f"mem{alu}_1", f"mem{alu}_2", f"fir_{rail}"),
        )

    cycles: list[dict[int, ALUOp]] = []
    for c in range(macro):
        ops: dict[int, ALUOp] = {2: agu, 0: nco_i, 1: nco_q}
        sub = c % d2
        if sub == 0:
            ops[3] = comb2("I")
            ops[4] = comb2("Q")
        elif 1 <= sub <= 4:
            ops[3] = cic5_int_op("I", sub - 1)
            ops[4] = cic5_int_op("Q", sub - 1)
        if c in (5, 6, 7):  # sub-period 0 only (c < 16 here)
            ops[3] = cic5_comb_op("I", c - 5)
            ops[4] = cic5_comb_op("Q", c - 5)
        if c == 8:
            ops[3] = fir_op("I", 3)
            ops[4] = fir_op("Q", 4)
        cycles.append(ops)
    program = TileProgram(cycles, name="ddc")
    # Metadata for the vectorised block engine (see montium.block): the
    # schedule positions of every event class, so process_block() can
    # replay an arbitrary cycle window without stepping.
    program.ddc_meta = DDCScheduleMeta(
        d2=d2,
        macro=macro,
        mix_shift=MIX_SHIFT,
        cic2_out_shift=CIC2_OUT_SHIFT,
        cic5_out_shift=CIC5_OUT_SHIFT,
    )
    return program


@dataclass
class DDCMappingResult:
    """Outputs of a functional DDC run on the tile."""

    i: np.ndarray
    q: np.ndarray
    cycles: int
    tile: MontiumTile
    program: TileProgram


def _load_tile(tile: MontiumTile, config: DDCConfig, taps: np.ndarray) -> None:
    """Configuration-time loading of LUTs, coefficients and FIR state."""
    q15 = QFormat(16, 15)
    n = LUT_WORDS
    grid = (np.arange(n) + 0.5) / n
    # ALU0's memory holds cos, ALU1's holds sin; the AGU strides through
    # them at the FCW rate (frequencies are quantised to fs/LUT_WORDS).
    tile.memories["mem0_1"].load([int(v) for v in to_fixed(np.cos(2 * np.pi * grid), q15)])
    tile.memories["mem1_1"].load([int(v) for v in to_fixed(np.sin(2 * np.pi * grid), q15)])
    raw_taps, _ = quantize_taps(taps, 16, frac_bits=15)
    for alu, rail in ((3, "I"), (4, "Q")):
        tile.memories[f"mem{alu}_1"].load([int(v) for v in raw_taps])
        tile.env[f"fir_{rail}.taps"] = len(raw_taps)
        tile.env[f"fir_{rail}.decim"] = config.fir_decimation
        tile.env[f"fir_{rail}.n"] = 0


def run_ddc_on_tile(
    samples: np.ndarray,
    config: DDCConfig = REFERENCE_DDC,
    fir_taps: np.ndarray | None = None,
    *,
    engine: str = "block",
) -> DDCMappingResult:
    """Execute the DDC mapping functionally over raw 12-bit input samples.

    The NCO frequency is quantised to a multiple of fs / LUT_WORDS (the
    AGU steps an integer stride per cycle); outputs interleave I and Q in
    ``tile.outputs`` and are returned separated.

    ``engine="block"`` (default) runs the vectorised block engine —
    bit-identical to ``engine="step"`` (the per-cycle oracle, the seed
    path), including cycle counts, ALU utilisation and all tile state.
    """
    samples = np.asarray(samples)
    if not np.issubdtype(samples.dtype, np.integer):
        raise ConfigurationError("tile input must be raw integers")
    if fir_taps is None:
        fir_rate = config.input_rate_hz / (16 * 21)
        fir_taps = reference_fir_taps(
            config.fir_taps, fir_rate, config.output_rate_hz
        )
    program = build_ddc_schedule(config)
    tile = MontiumTile()
    _load_tile(tile, config, np.asarray(fir_taps))
    # AGU stride = quantised FCW.
    stride = round(config.nco_frequency_hz / config.input_rate_hz * LUT_WORDS)
    for m in ("mem0_1", "mem1_1"):
        tile.memories[m].addr = 0
    # re-wire the stride by monkey-free means: token "agu+" steps by 1, so
    # replicate the table at stride resolution instead.
    if stride != 1:
        q15 = QFormat(16, 15)
        n = LUT_WORDS
        grid = ((np.arange(n) * stride) % n + 0.5) / n
        tile.memories["mem0_1"].load(
            [int(v) for v in to_fixed(np.cos(2 * np.pi * grid), q15)]
        )
        tile.memories["mem1_1"].load(
            [int(v) for v in to_fixed(np.sin(2 * np.pi * grid), q15)]
        )
    tile.load_inputs([int(v) for v in samples])
    if engine == "block":
        tile.process_block(program, len(samples))
    elif engine == "step":
        tile.run(program, len(samples))
    else:
        raise ConfigurationError(f"unknown tile engine {engine!r}")
    out = np.array(tile.outputs, dtype=np.int64)
    return DDCMappingResult(
        i=out[0::2].copy() if out.size else out,
        q=out[1::2].copy() if out.size else out,
        cycles=tile.cycle,
        program=program,
        tile=tile,
    )


def ddc_workload_mapping():
    """The DDC workload's Montium mapping descriptor (see
    :mod:`repro.workloads`): the paper's hand schedule executed on the
    5-ALU tile, block engine bit-identical to the stepped oracle."""
    from ...workloads.base import WorkloadMapping

    return WorkloadMapping(
        architecture="Montium TP",
        description=(
            "hand-mapped 5-ALU tile schedule (Fig. 8 / Table 6): NCO + "
            "CIC2 integrators at the sample rate, comb/CIC5/FIR "
            "time-multiplexed; engine='block' vectorised, engine='step' "
            "the per-cycle oracle"
        ),
        run=run_ddc_on_tile,
    )

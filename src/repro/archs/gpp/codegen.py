"""DDC code generator: the "C compiled for ARM" of Section 4.2.1.

The paper wrote the DDC in C ("for simplicity reasons, the code only
performs the in-phase transformation"), compiled it unoptimised, and
profiled the result.  This module emits the equivalent straight-line
assembly for our ARM-like ISA:

- one *sample loop* running at the 64.512 MHz input rate containing the
  NCO/mixer work and the CIC2 integrators;
- nested decimation epilogues for the CIC2 comb (every 16 samples), CIC5
  integrators (every 16), CIC5 comb + polyphase FIR store (every 336) and
  the 125-tap FIR summation (every 2688);
- filter state held in memory with load/op/store sequences and explicit
  stack-slot spills around the per-sample work, the code shape an
  unoptimised compiler produces (the paper stresses "the code was not
  optimized").

Regions are annotated with ``.region`` so the profiler can regenerate the
cycle-share breakdown of Table 3.

Memory map (word addressed)::

    LUT_BASE    0x1000   sine/cosine look-up table (2**lut_bits words)
    IN_BASE     0x10000  input samples
    STATE_BASE  0x8000   filter state (combs, CIC5 integrators, indices)
    FIR_RAM     0x9000   polyphase FIR sample ring
    COEF_BASE   0xA000   FIR coefficients
    OUT_BASE    0xB000   output samples
    STACK_BASE  0xF000   stack slots for the spill traffic
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DDCConfig, REFERENCE_DDC
from ...errors import ConfigurationError
from ...fixedpoint import QFormat, to_fixed
from ..gpp.assembler import Program, assemble
from ...dsp.firdesign import quantize_taps, reference_fir_taps

#: Profiling regions in Table 3 order.
DDC_REGIONS = (
    "nco",
    "cic2_int",
    "cic2_comb",
    "cic5_int",
    "cic5_comb",
    "fir_poly",
    "fir_sum",
)

LUT_BASE = 0x1000
IN_BASE = 0x10000
STATE_BASE = 0x8000
FIR_RAM = 0x9000
COEF_BASE = 0xA000
OUT_BASE = 0xB000
STACK_BASE = 0xF000

# STATE_BASE layout (word offsets)
_ST_CIC2_COMB = 0      # 2 words: comb delays of CIC2
_ST_CIC5_INT = 2       # 5 words: CIC5 integrator registers
_ST_CIC5_COMB = 7      # 5 words: CIC5 comb delays
_ST_FIR_WIDX = 12      # 1 word: FIR ring write index
_ST_OUT_PTR = 13       # 1 word: output write pointer
_ST_CIC2_INT = 14      # 2 words: CIC2 integrator registers (struct state)


@dataclass(frozen=True)
class DDCProgramLayout:
    """Addresses and sizes the harness needs to run a generated program."""

    lut_bits: int
    n_samples: int
    fir_taps: int
    in_base: int = IN_BASE
    out_base: int = OUT_BASE
    lut_base: int = LUT_BASE
    coef_base: int = COEF_BASE


@dataclass(frozen=True)
class DDCKernelMeta:
    """Everything the vectorised fast engine needs to replay a generated
    program without interpreting it.

    Attached to the :class:`~repro.archs.gpp.assembler.Program` by
    :func:`generate_ddc_program` as ``program.ddc_meta``.  The contract:
    the metadata describes *exactly* the assembly this module emitted, and
    :mod:`~repro.archs.gpp.ddc_kernel` verifies the control-flow skeleton
    before trusting it; the Hypothesis suite in
    ``tests/test_fast_engine.py`` pins the data path bit-for-bit against
    the interpreter.  If you change the emitted code shape, update the
    kernel (or drop the metadata and fall back to the interpreter).
    """

    n_samples: int
    d2: int
    d5: int
    d8: int
    taps: int
    lut_bits: int
    fcw: int
    phase_bias: int
    mix_shift: int
    cic2_shift: int
    cic5_pre_shift: int
    cic5_shift: int
    fir_out_shift: int
    spill_slots: bool
    lut_base: int = LUT_BASE
    in_base: int = IN_BASE
    state_base: int = STATE_BASE
    fir_ram: int = FIR_RAM
    coef_base: int = COEF_BASE
    out_base: int = OUT_BASE
    stack_base: int = STACK_BASE
    st_cic2_comb: int = _ST_CIC2_COMB
    st_cic5_int: int = _ST_CIC5_INT
    st_cic5_comb: int = _ST_CIC5_COMB
    st_fir_widx: int = _ST_FIR_WIDX
    st_out_ptr: int = _ST_OUT_PTR
    st_cic2_int: int = _ST_CIC2_INT


def generate_ddc_source(
    config: DDCConfig = REFERENCE_DDC,
    n_samples: int = 2688,
    lut_bits: int = 10,
    spill_slots: bool = True,
) -> tuple[str, DDCProgramLayout]:
    """Emit assembly source for the in-phase DDC over ``n_samples`` inputs.

    ``spill_slots`` adds the stack load/store traffic of unoptimised
    compiler output around the per-sample regions; disabling it models a
    hand-optimised register-resident loop (used by the optimisation
    ablation bench).
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if config.cic2_order != 2 or config.cic5_order != 5:
        raise ConfigurationError(
            "the GPP code generator implements the reference CIC2+CIC5 chain"
        )
    d2, d5, d8 = (
        config.cic2_decimation,
        config.cic5_decimation,
        config.fir_decimation,
    )
    taps = config.fir_taps
    lut_mask = (1 << lut_bits) - 1
    idx_shift = 32 - lut_bits
    # Fixed-point shifts along the chain (see module docstring of dsp.ddc):
    mix_shift = config.data_width - 1            # 12x12 -> keep top 12
    cic2_shift = 8                               # gain 256
    # CIC5 runs in 32-bit registers; pre-drop 2 bits so 10 + 22 = 32 fits.
    cic5_pre_shift = 2
    cic5_shift = 20                              # 22-bit gain minus pre-shift

    L: list[str] = []
    a = L.append
    a("; generated DDC (in-phase rail), unoptimised-compiler shape")
    a(".region init")
    # FCW for the configured NCO frequency at 32-bit phase.
    fcw = round(config.nco_frequency_hz / config.input_rate_hz * 2**32) % 2**32
    # Pre-bias the accumulator so the first sample is mixed with phase 0,
    # matching the gold-model NCO (phase *before* the step).
    a(f"  mov r1, #{(-fcw) % 2**32} ; phase accumulator (biased -fcw)")
    # Immediates are arbitrary-size ints in this ISA.
    a(f"  mov r2, #{fcw}        ; frequency control word")
    a(f"  mov r8, #{IN_BASE}    ; input pointer")
    a(f"  mov r9, #{IN_BASE + n_samples} ; input end")
    a(f"  mov r10, #{LUT_BASE}  ; LUT base")
    a(f"  mov r11, #{d2}        ; CIC2 decimation counter")
    a(f"  mov r12, #{STATE_BASE}; state base")
    a(f"  mov r14, #{d5}        ; CIC5 decimation counter")
    a(f"  mov r15, #{d8}        ; FIR decimation counter")
    a(f"  mov r3, #{OUT_BASE}")
    a(f"  str r3, [r12, #{_ST_OUT_PTR}]")
    a("sample_loop:")

    # ------------------------------------------------------------- NCO/mixer
    a(".region nco")
    a("  cmp r8, r9")
    a("  beq done")
    if spill_slots:
        a(f"  str r5, [r12, #{_ST_OUT_PTR}]  ; (spill slot reuse: compiler")
        # Use a dedicated stack slot instead of clobbering state:
        L.pop()
        a(f"  mov r13, #{STACK_BASE}")
        a("  str r5, [r13, #0]     ; spill of previous mixed value")
    a("  add r1, r1, r2        ; phase += fcw")
    a(f"  lsr r3, r1, #{idx_shift}")
    a(f"  add r3, r3, #{(1 << lut_bits) // 4} ; quarter shift: cos from sine LUT")
    a(f"  and r3, r3, #{lut_mask}")
    a("  add r3, r3, r10")
    a("  ldr r4, [r3]          ; cos sample from LUT")
    a("  ldr r0, [r8]          ; input sample")
    a("  add r8, r8, #1        ; (unoptimised: separate pointer bump)")
    a("  mul r5, r0, r4        ; mix")
    a(f"  asr r5, r5, #{mix_shift}")

    # -------------------------------------------------------- CIC2 integrate
    # Integrator state lives in the filter struct in memory — the access
    # pattern an unoptimised compiler produces for `s->int1 += x`.
    a(".region cic2_int")
    a(f"  ldr r3, [r12, #{_ST_CIC2_INT}]")
    a("  add r3, r3, r5        ; integrator 1")
    a(f"  str r3, [r12, #{_ST_CIC2_INT}]")
    a(f"  ldr r4, [r12, #{_ST_CIC2_INT + 1}]")
    a("  add r4, r4, r3        ; integrator 2")
    a(f"  str r4, [r12, #{_ST_CIC2_INT + 1}]")
    a("  subs r11, r11, #1")
    a("  bne sample_loop")

    # ------------------------------------------------------------ CIC2 comb
    a(".region cic2_comb")
    a(f"  mov r11, #{d2}")
    a(f"  ldr r7, [r12, #{_ST_CIC2_INT + 1}] ; integrator 2 value")
    a(f"  ldr r3, [r12, #{_ST_CIC2_COMB}]")
    a(f"  str r7, [r12, #{_ST_CIC2_COMB}]")
    a("  sub r4, r7, r3        ; comb 1")
    a(f"  ldr r3, [r12, #{_ST_CIC2_COMB + 1}]")
    a(f"  str r4, [r12, #{_ST_CIC2_COMB + 1}]")
    a("  sub r5, r4, r3        ; comb 2 -> CIC2 output")
    a(f"  asr r5, r5, #{cic2_shift}")
    a(f"  asr r5, r5, #{cic5_pre_shift} ; pruning before CIC5")

    # --------------------------------------------------------- CIC5 integrate
    a(".region cic5_int")
    a("  mov r0, r5")
    for s in range(5):
        a(f"  ldr r3, [r12, #{_ST_CIC5_INT + s}]")
        a("  add r3, r3, r0")
        a(f"  str r3, [r12, #{_ST_CIC5_INT + s}]")
        a("  mov r0, r3")
    a("  subs r14, r14, #1")
    a("  bne sample_loop")

    # ------------------------------------------------------------ CIC5 comb
    a(".region cic5_comb")
    a(f"  mov r14, #{d5}")
    for s in range(5):
        a(f"  ldr r3, [r12, #{_ST_CIC5_COMB + s}]")
        a(f"  str r0, [r12, #{_ST_CIC5_COMB + s}]")
        a("  sub r0, r0, r3")
    a(f"  asr r0, r0, #{cic5_shift}")

    # --------------------------------------------------- FIR polyphase store
    a(".region fir_poly")
    a(f"  ldr r3, [r12, #{_ST_FIR_WIDX}]")
    a(f"  mov r4, #{FIR_RAM}")
    a("  add r4, r4, r3")
    a("  str r0, [r4]          ; sample into FIR ring")
    a("  add r3, r3, #1")
    a(f"  cmp r3, #{taps}")
    a("  blt fir_widx_ok")
    a("  mov r3, #0")
    a("fir_widx_ok:")
    a(f"  str r3, [r12, #{_ST_FIR_WIDX}]")
    a("  subs r15, r15, #1")
    a("  bne sample_loop")

    # ------------------------------------------------------- FIR summation
    a(".region fir_sum")
    a("  mov r5, #0            ; accumulator")
    a(f"  mov r4, #{COEF_BASE}  ; coefficient pointer")
    a(f"  ldr r3, [r12, #{_ST_FIR_WIDX}] ; one past the newest sample")
    a(f"  mov r0, #{taps}       ; tap counter")
    a("fir_mac_loop:")
    a("  sub r3, r3, #1        ; walk backwards through the ring")
    a("  cmp r3, #0")
    a("  bge fir_ridx_ok")
    a(f"  add r3, r3, #{taps}")
    a("fir_ridx_ok:")
    a(f"  mov r13, #{FIR_RAM}")
    a("  add r13, r13, r3")
    a("  ldr r13, [r13]        ; sample")
    a("  ldr r15, [r4]         ; coefficient (r15 is free inside the sum)")
    a("  mla r5, r13, r15, r5")
    a("  add r4, r4, #1")
    a("  subs r0, r0, #1")
    a("  bne fir_mac_loop")
    a(f"  mov r15, #{d8}        ; reload FIR decimation counter")
    a(f"  asr r5, r5, #{11}     ; coefficient Q11 scaling")
    a(f"  ldr r3, [r12, #{_ST_OUT_PTR}]")
    a("  str r5, [r3]")
    a("  add r3, r3, #1")
    a(f"  str r3, [r12, #{_ST_OUT_PTR}]")
    a("  b sample_loop")

    a(".region done")
    a("done:")
    a("  halt")
    layout = DDCProgramLayout(lut_bits, n_samples, taps)
    return "\n".join(L), layout


def generate_ddc_program(
    config: DDCConfig = REFERENCE_DDC,
    n_samples: int = 2688,
    lut_bits: int = 10,
    spill_slots: bool = True,
) -> tuple[Program, DDCProgramLayout]:
    """Assemble the generated DDC source.

    The returned program carries a :class:`DDCKernelMeta` as
    ``program.ddc_meta`` so ``CPU.run(engine="auto")`` can execute it with
    the vectorised kernel instead of interpreting every instruction.
    """
    src, layout = generate_ddc_source(config, n_samples, lut_bits, spill_slots)
    program = assemble(src)
    fcw = round(
        config.nco_frequency_hz / config.input_rate_hz * 2**32
    ) % 2**32
    program.ddc_meta = DDCKernelMeta(
        n_samples=n_samples,
        d2=config.cic2_decimation,
        d5=config.cic5_decimation,
        d8=config.fir_decimation,
        taps=config.fir_taps,
        lut_bits=lut_bits,
        fcw=fcw,
        phase_bias=(-fcw) % 2**32,
        mix_shift=config.data_width - 1,
        cic2_shift=8,
        cic5_pre_shift=2,
        cic5_shift=20,
        fir_out_shift=11,
        spill_slots=spill_slots,
    )
    return program, layout


def build_memory_image(
    layout: DDCProgramLayout,
    input_samples: np.ndarray,
    fir_taps: np.ndarray | None = None,
    data_width: int = 12,
) -> dict[int, np.ndarray]:
    """Memory initialisation blocks for a generated program.

    Returns ``{base_address: integer array}`` with the sine LUT, quantised FIR
    coefficients and the input samples.
    """
    x = np.asarray(input_samples)
    if not np.issubdtype(x.dtype, np.integer):
        raise ConfigurationError("input samples must be raw integers")
    if len(x) != layout.n_samples:
        raise ConfigurationError(
            f"expected {layout.n_samples} samples, got {len(x)}"
        )
    n_lut = 1 << layout.lut_bits
    fmt = QFormat(data_width, data_width - 1)
    lut = to_fixed(
        np.sin(2 * np.pi * (np.arange(n_lut) + 0.5) / n_lut), fmt
    )
    if fir_taps is None:
        fir_taps = reference_fir_taps(layout.fir_taps)
    raw_taps, _ = quantize_taps(np.asarray(fir_taps), data_width,
                                frac_bits=11)
    return {layout.lut_base: lut, layout.coef_base: raw_taps, layout.in_base: x}

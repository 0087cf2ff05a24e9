"""General Purpose Processor model (paper Section 4).

The paper writes the DDC in C, compiles it for an ARM 9, and profiles the
assembler with the ARM source-level debugger.  This package plays the same
role entirely in Python:

- :mod:`~repro.archs.gpp.isa` — an ARM-like RISC instruction set with
  per-class cycle costs modelled on the ARM9 pipeline;
- :mod:`~repro.archs.gpp.assembler` — a two-pass textual assembler;
- :mod:`~repro.archs.gpp.cpu` — the instruction-level simulator with cycle
  accounting (the per-instruction oracle, ``CPU.run(engine="interp")``)
  and the array-backed :class:`WordMemory`;
- :mod:`~repro.archs.gpp.ddc_kernel` — the one fast path: the
  numpy-vectorised executor for the codegen-emitted DDC program
  (``engine="auto"``) with per-block cycle/region accounting,
  bit-identical statistics at >100x interpreter speed; any other program
  runs on the interpreter;
- :mod:`~repro.archs.gpp.codegen` — emits the DDC inner loops the way a C
  compiler would (the paper's note "the code was not optimized" applies to
  this straightforward translation as well);
- :mod:`~repro.archs.gpp.profiler` — attributes executed cycles to DDC
  regions, regenerating Table 3;
- :mod:`~repro.archs.gpp.arm9` — the ARM922T device model: 0.25 mW/MHz
  core+cache power, 250 MHz achievable clock, and the required-clock /
  energy arithmetic of Section 4.2.
"""

from .isa import Instruction, Mnemonic, Operand, Register
from .assembler import assemble, Program
from .cpu import CPU, ExecutionStats, WordMemory
from .codegen import generate_ddc_program, DDC_REGIONS, DDCKernelMeta
from .profiler import RegionProfile, profile_ddc
from .arm9 import ARM9Model, ARM922T

__all__ = [
    "Instruction",
    "Mnemonic",
    "Operand",
    "Register",
    "assemble",
    "Program",
    "CPU",
    "ExecutionStats",
    "WordMemory",
    "generate_ddc_program",
    "DDC_REGIONS",
    "DDCKernelMeta",
    "RegionProfile",
    "profile_ddc",
    "ARM9Model",
    "ARM922T",
]

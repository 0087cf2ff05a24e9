"""Instruction-level CPU simulator with cycle accounting.

Plays the role of the paper's "ARM source-level debugger" run: executes an
assembled :class:`~repro.archs.gpp.assembler.Program` and counts, per
profiling region, how many instructions and cycles were spent — the raw
material of Table 3 and the 2865 MIPS / 4.87 Gcycles/s numbers of
Section 4.2.1.

The machine is a flat register file (r0..r15), N/Z flags, and a
word-addressed memory (array-backed, zero-default — see
:class:`WordMemory`).  Arithmetic is 32-bit two's-complement like the ARM.

:meth:`CPU.step` is the per-instruction *oracle*; :meth:`CPU.run` can also
dispatch to the fast path (``engine="auto"``: the vectorised DDC kernel of
:mod:`~repro.archs.gpp.ddc_kernel` when the program carries codegen
metadata) — bit-identical registers, memory and :class:`ExecutionStats`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ...errors import ConfigurationError, ExecutionError
from .assembler import Program
from .isa import BRANCHES, CYCLES, FLAG_SETTERS, Instruction, Mnemonic

_WORD_MASK = (1 << 32) - 1
_SIGN_BIT = 1 << 31


#: The execution strategies of :meth:`CPU.run`.
ENGINES = ("interp", "auto")


def check_engine(engine: str) -> None:
    """Refuse an engine name :meth:`CPU.run` does not know."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown GPP engine {engine!r} (expected one of "
            f"{', '.join(ENGINES)})"
        )


def _to_signed(v: int) -> int:
    v &= _WORD_MASK
    return v - (1 << 32) if v & _SIGN_BIT else v


class WordMemory:
    """Array-backed word memory with a sparse spill for stray addresses.

    The seed kept memory in a ``dict[int, int]`` — every load/store paid a
    hash lookup.  This class keeps the dense address range
    ``[0, capacity)`` in a flat list (zero-default, like the dict) and
    spills anything else — negative addresses included — to a dict, so *no
    address aliases another*: address ``-1`` is a distinct word, never the
    last array slot.

    All coercion happens once, at this boundary: addresses are normalised
    with ``int()`` and stored values are wrapped to signed 32-bit, so
    ``LDR``/``STR``/:meth:`load` agree on what a word is no matter which
    path wrote it (the seed re-signed values in ``load_memory`` but stored
    ``STR`` operands raw).
    """

    __slots__ = ("_words", "_spill", "capacity")

    #: Largest dense backing array a bulk load may grow to (words).  A
    #: load at a base beyond this spills sparsely instead — the seed dict
    #: stored one entry for ``load_memory(2**30, [1])`` and so do we,
    #: rather than allocating gigabytes of zeros.
    MAX_DENSE_WORDS = 1 << 22

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.capacity = int(capacity)
        self._words = [0] * self.capacity
        self._spill: dict[int, int] = {}

    def read(self, addr: int) -> int:
        """Read one word (0 if never written)."""
        addr = int(addr)
        if 0 <= addr < self.capacity:
            return self._words[addr]
        return self._spill.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        """Write one word; the value is wrapped to signed 32-bit here."""
        addr = int(addr)
        value = _to_signed(int(value))
        if 0 <= addr < self.capacity:
            self._words[addr] = value
        else:
            self._spill[addr] = value

    def load(self, base: int, values) -> None:
        """Bulk-initialise ``values`` at ``base``, growing the dense array
        so bulk-loaded regions (the input sample block) never spill.
        Loads beyond :attr:`MAX_DENSE_WORDS` stay sparse; an empty load
        changes nothing."""
        if len(values) == 0:
            return
        base = int(base)
        end = base + len(values)
        if base >= 0 and self.capacity < end <= self.MAX_DENSE_WORDS:
            self._grow(end)
        if (isinstance(values, np.ndarray) and values.dtype.kind in "iu"
                and base >= 0 and end <= self.capacity):
            # integer casts keep the low 32 bits: the wrap of write()
            self._words[base:end] = values.astype(np.int32).tolist()
            return
        for i, v in enumerate(values):
            self.write(base + i, v)

    def _grow(self, minimum: int) -> None:
        cap = self.capacity
        while cap < minimum:
            cap *= 2
        self._words.extend([0] * (cap - self.capacity))
        self.capacity = cap
        # re-home spill entries the grown array now covers
        for addr in [a for a in self._spill if 0 <= a < cap]:
            self._words[addr] = self._spill.pop(addr)

    def region(self, base: int, count: int) -> list[int]:
        """A dense slice ``[base, base + count)`` as a list of words."""
        base = int(base)
        if base >= 0 and base + count <= self.capacity:
            return self._words[base : base + count]
        return [self.read(base + i) for i in range(count)]

    def nonzero_items(self) -> dict[int, int]:
        """``{addr: word}`` for every non-zero word (test equivalence)."""
        out = {a: v for a, v in enumerate(self._words) if v}
        out.update({a: v for a, v in self._spill.items() if v})
        return out


@dataclass
class ExecutionStats:
    """Counters accumulated by a run."""

    instructions: int = 0
    cycles: int = 0
    region_instructions: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    region_cycles: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the run."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


class CPU:
    """Executes programs; memory is word-addressed and zero-default."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs = [0] * 16
        self.flag_n = False
        self.flag_z = False
        self.memory = WordMemory()
        self.pc = 0
        self.halted = False
        self.stats = ExecutionStats()

    # ------------------------------------------------------------- memory
    def load_memory(self, base: int, values: list[int]) -> None:
        """Bulk-initialise memory at ``base``."""
        self.memory.load(base, values)

    def read_memory(self, addr: int) -> int:
        """Read one word (0 if never written)."""
        return self.memory.read(addr)

    # ------------------------------------------------------------ operands
    def _op2(self, instr: Instruction) -> int:
        return self.regs[instr.op2.value] if instr.op2.is_reg else instr.op2.value

    def _set_flags(self, result: int) -> None:
        self.flag_z = result == 0
        self.flag_n = result < 0

    # ------------------------------------------------------------- running
    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            raise ExecutionError("CPU is halted")
        if not 0 <= self.pc < len(self.program):
            raise ExecutionError(f"pc {self.pc} outside program")
        instr = self.program.instructions[self.pc]
        region = self.program.region_of(self.pc)
        taken = False
        next_pc = self.pc + 1
        m = instr.mnemonic

        if m in BRANCHES:
            taken = BRANCHES[m](self.flag_n, self.flag_z)
            if taken:
                next_pc = instr.target
        elif m is Mnemonic.HALT:
            self.halted = True
        elif m is Mnemonic.NOP:
            pass
        elif m is Mnemonic.CMP:
            self._set_flags(_to_signed(self.regs[instr.rn] - self._op2(instr)))
        elif m in (Mnemonic.MOV, Mnemonic.MVN):
            v = self._op2(instr)
            self.regs[instr.rd] = _to_signed(~v if m is Mnemonic.MVN else v)
        elif m is Mnemonic.MUL:
            self.regs[instr.rd] = _to_signed(self.regs[instr.rn] * self._op2(instr))
        elif m is Mnemonic.MLA:
            self.regs[instr.rd] = _to_signed(
                self.regs[instr.rn] * self._op2(instr) + self.regs[instr.ra]
            )
        elif m is Mnemonic.LDR:
            addr = self.regs[instr.rn] + (0 if instr.post_inc else self._op2(instr))
            self.regs[instr.rd] = self.read_memory(addr)
            if instr.post_inc:
                self.regs[instr.rn] = _to_signed(
                    self.regs[instr.rn] + self._op2(instr)
                )
        elif m is Mnemonic.STR:
            addr = self.regs[instr.rn] + (0 if instr.post_inc else self._op2(instr))
            self.memory.write(addr, self.regs[instr.rd])
            if instr.post_inc:
                self.regs[instr.rn] = _to_signed(
                    self.regs[instr.rn] + self._op2(instr)
                )
        else:
            a = self.regs[instr.rn]
            b = self._op2(instr)
            if m in (Mnemonic.ADD, Mnemonic.ADDS):
                r = a + b
            elif m in (Mnemonic.SUB, Mnemonic.SUBS):
                r = a - b
            elif m is Mnemonic.RSB:
                r = b - a
            elif m is Mnemonic.AND:
                r = (a & _WORD_MASK) & (b & _WORD_MASK)
            elif m is Mnemonic.ORR:
                r = (a & _WORD_MASK) | (b & _WORD_MASK)
            elif m is Mnemonic.EOR:
                r = (a & _WORD_MASK) ^ (b & _WORD_MASK)
            elif m is Mnemonic.LSL:
                r = (a & _WORD_MASK) << (b & 31)
            elif m is Mnemonic.LSR:
                r = (a & _WORD_MASK) >> (b & 31)
            elif m is Mnemonic.ASR:
                r = a >> (b & 31)
            else:  # pragma: no cover - exhaustive over Mnemonic
                raise ExecutionError(f"unhandled mnemonic {m}")
            r = _to_signed(r)
            self.regs[instr.rd] = r
            if m in FLAG_SETTERS:
                self._set_flags(r)

        cost = CYCLES[instr.cost_class(taken)]
        self.stats.instructions += 1
        self.stats.cycles += cost
        self.stats.region_instructions[region] += 1
        self.stats.region_cycles[region] += cost
        self.pc = next_pc

    def run(
        self,
        max_instructions: int = 50_000_000,
        engine: str = "interp",
    ) -> ExecutionStats:
        """Run until HALT; returns the statistics.

        ``engine`` selects the execution strategy — both produce
        bit-identical registers, memory and statistics:

        - ``"interp"`` — the per-instruction oracle loop (seed behaviour);
        - ``"auto"`` — the vectorised DDC kernel of
          :mod:`~repro.archs.gpp.ddc_kernel` when the program carries
          :mod:`~repro.archs.gpp.codegen` metadata; when the kernel
          declines (a foreign program, an instruction budget it would
          exceed), the ``"interp"`` loop, which is the specification.
        """
        check_engine(engine)
        if engine == "auto":
            from .ddc_kernel import run_ddc_kernel

            if run_ddc_kernel(self, max_instructions):
                return self.stats
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise ExecutionError(
                    f"exceeded {max_instructions} instructions without HALT"
                )
            self.step()
            executed += 1
        return self.stats

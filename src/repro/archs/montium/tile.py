"""The Montium tile: five ALUs + memories + environment + sequencer.

The tile executes a :class:`~repro.archs.montium.program.TileProgram`
cycle by cycle.  Operand routing uses string tokens resolved against the
tile state — the stand-in for the interconnect decoder of Fig. 6:

=================  ====================================================
token              meaning
=================  ====================================================
``env:NAME``       named scalar location (register-file entry)
``mem:NAME``       read/write memory ``NAME`` at its AGU address
``mem:NAME:agu+``  read/write at the AGU address, then step the AGU
``mem:NAME@123``   read/write at literal address 123
``const:42``       literal constant (sources only)
``ext:in``         next external input sample (sources only)
``ext:out``        append to the external output stream (dests only)
``null``           discard (dests only)
=================  ====================================================

Environment scalars are 16-bit-wrapped on ALU writes by the ALU itself;
``env32:NAME`` locations hold double-word (32-bit) values for the CIC5
integrators, which the mapping implements as paired-ALU double-precision
adds (see :mod:`~repro.archs.montium.ddc_mapping`).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ...errors import ConfigurationError, SimulationError
from .alu import MontiumALU
from .memory import LocalMemory, RegisterFile
from .program import TileProgram


def _wrap32(v: int) -> int:
    v &= (1 << 32) - 1
    return v - (1 << 32) if v >= 1 << 31 else v


class MontiumTile:
    """Functional Montium TP executing an unrolled periodic schedule."""

    N_ALUS = 5

    def __init__(self, name: str = "tile0") -> None:
        self.name = name
        self.alus = [MontiumALU(i) for i in range(self.N_ALUS)]
        # two local memories per ALU, as in Fig. 6
        self.memories: dict[str, LocalMemory] = {}
        for i in range(self.N_ALUS):
            for j in (1, 2):
                mname = f"mem{i}_{j}"
                self.memories[mname] = LocalMemory(mname)
        self.register_files = [RegisterFile(f"rf{i}") for i in range(self.N_ALUS)]
        self.env: dict[str, int] = defaultdict(int)
        self.inputs: list[int] = []
        self._in_array = np.empty(0, dtype=np.int64)  # inputs, for the block engine
        self._in_pos = 0
        self.outputs: list[int] = []
        self.cycle = 0
        #: cycles each ALU spent executing, per op label (Table 6 feed)
        self.busy_cycles: dict[str, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # ------------------------------------------------------------ routing
    def _resolve_source(self, token: str) -> int:
        if token.startswith("const:"):
            return int(token[6:])
        if token.startswith("env32:"):
            return self.env[token]
        if token.startswith("env:"):
            return self.env[token]
        if token == "ext:in":
            if self._in_pos >= len(self.inputs):
                raise SimulationError("tile ran out of input samples")
            v = self.inputs[self._in_pos]
            self._in_pos += 1
            return v
        if token.startswith("mem:"):
            return self._mem_access(token, None)
        raise ConfigurationError(f"bad source token {token!r}")

    def _store_dest(self, token: str, value: int) -> None:
        if token == "null":
            return
        if token == "ext:out":
            self.outputs.append(value)
            return
        if token.startswith("env32:"):
            self.env[token] = _wrap32(value)
            return
        if token.startswith("env:"):
            self.env[token] = value
            return
        if token.startswith("mem:"):
            self._mem_access(token, value)
            return
        raise ConfigurationError(f"bad dest token {token!r}")

    def _mem_access(self, token: str, write_value: int | None) -> int:
        body = token[4:]
        step = False
        addr: int | None = None
        if body.endswith(":agu+"):
            body = body[: -len(":agu+")]
            step = True
        if "@" in body:
            body, _, addr_s = body.partition("@")
            addr = int(addr_s)
        mem = self.memories.get(body)
        if mem is None:
            raise ConfigurationError(f"unknown memory {body!r}")
        if write_value is None:
            out = mem.read(addr)
        else:
            mem.write(write_value, addr)
            out = write_value
        if step:
            mem.step_agu()
        return out

    # ------------------------------------------------------------- running
    def load_inputs(self, samples) -> None:
        """Provide the external input stream (integers, list or array)."""
        self._in_array = np.array(samples, dtype=np.int64)
        self.inputs = self._in_array.tolist()
        self._in_pos = 0

    def step(self, program: TileProgram) -> None:
        """Execute one cycle of the (periodic) program."""
        from .alu import Level2Fn

        ops = program.ops_at(self.cycle)
        for alu_idx, op in sorted(ops.items()):
            if op.level2 is Level2Fn.FIR_STEP:
                self._fir_step(alu_idx, op)
            else:
                operands = [self._resolve_source(s) for s in op.sources]
                results = self.alus[alu_idx].execute(op, operands)
                if len(op.dests) > len(results):
                    raise ConfigurationError(
                        f"op {op.label!r}: {len(op.dests)} dests but only "
                        f"{len(results)} results"
                    )
                for dest, value in zip(op.dests, results):
                    self._store_dest(dest, value)
            self.busy_cycles[op.label][alu_idx] += 1
        self.cycle += 1

    def _fir_step(self, alu_idx: int, op) -> None:
        """Polyphase FIR bookkeeping (paper Section 6.2.1).

        One CIC5 output sample is multiplied with the ceil(125/8) = 16
        coefficients it contributes to and accumulated into the partial
        output sums held in a local memory; every 8th sample the completed
        sum is emitted.  The 16 multiplications physically ride on the
        multiplier slots of cycles already charged to the CIC work (the
        ALUs' level-2 multipliers are idle there); this op is the residual
        bookkeeping cycle that Table 6 prices at ~0.5 %.

        ``op.meta = (coeff_mem, sum_mem, state_prefix)``;
        ``op.sources[0]`` is the input token, ``op.dests[0]`` the output.
        """
        from .alu import wrap16

        if len(op.meta) != 3 or len(op.sources) != 1 or len(op.dests) != 1:
            raise ConfigurationError("malformed FIR_STEP op")
        coeff_mem_name, sum_mem_name, prefix = op.meta
        coeff_mem = self.memories.get(coeff_mem_name)
        sum_mem = self.memories.get(sum_mem_name)
        if coeff_mem is None or sum_mem is None:
            raise ConfigurationError("FIR_STEP memories not found")
        x = self._resolve_source(op.sources[0])
        n = self.env[f"{prefix}.n"]            # input sample counter
        taps = self.env[f"{prefix}.taps"]      # tap count (e.g. 125)
        decim = self.env[f"{prefix}.decim"]    # decimation (e.g. 8)
        if taps <= 0 or decim <= 0:
            raise ConfigurationError("FIR_STEP state not initialised")
        ring = taps // decim + 2               # active partial sums
        # x[n] contributes h[m*decim - n] to output m.
        m_lo = -(-n // decim)                  # ceil(n / decim)
        m_hi = (n + taps - 1) // decim
        for m in range(m_lo, m_hi + 1):
            k = m * decim - n
            h = coeff_mem.read(k)
            slot = m % ring
            acc = sum_mem.read(slot)
            sum_mem.write(wrap16(acc + ((x * h) >> 15)), slot)
            self.alus[alu_idx].mul_count += 1
        if n % decim == 0:
            slot = (n // decim) % ring
            self._store_dest(op.dests[0], sum_mem.read(slot))
            sum_mem.write(0, slot)
        self.env[f"{prefix}.n"] = n + 1

    def run(self, program: TileProgram, cycles: int) -> None:
        """Execute ``cycles`` cycles."""
        if cycles < 0:
            raise ConfigurationError("cycles must be >= 0")
        for _ in range(cycles):
            self.step(program)

    def process_block(self, program: TileProgram, cycles: int) -> None:
        """Execute ``cycles`` cycles on the fast path where possible.

        Programs carrying DDC schedule metadata (built by
        :func:`~repro.archs.montium.ddc_mapping.build_ddc_schedule`) run
        through the vectorised block engine of
        :mod:`~repro.archs.montium.block` — bit-identical state, outputs,
        cycle counts and ALU utilisation, ~2 orders of magnitude faster.
        Other programs (and windows that would underrun the input stream,
        which must raise at the exact stepped cycle) fall back to
        :meth:`run`.  Block and stepped execution interleave freely on one
        tile: the engine resumes from any point in the macro period.
        """
        if cycles < 0:
            raise ConfigurationError("cycles must be >= 0")
        from .block import can_process_block, process_ddc_block

        if can_process_block(self, program, cycles):
            process_ddc_block(self, program, cycles)
        else:
            self.run(program, cycles)

    def reset(self) -> None:
        """Clear all state and statistics."""
        for m in self.memories.values():
            m.reset()
        for rf in self.register_files:
            rf.reset()
        self.env.clear()
        self.inputs = []
        self._in_array = np.empty(0, dtype=np.int64)
        self._in_pos = 0
        self.outputs = []
        self.cycle = 0
        self.busy_cycles.clear()
        for i, _ in enumerate(self.alus):
            self.alus[i] = MontiumALU(i)

    # ---------------------------------------------------------------- stats
    def alu_utilisation(self) -> dict[int, float]:
        """Fraction of elapsed cycles each ALU was busy."""
        if self.cycle == 0:
            return {i: 0.0 for i in range(self.N_ALUS)}
        busy: dict[int, int] = defaultdict(int)
        for per_alu in self.busy_cycles.values():
            for alu, n in per_alu.items():
                busy[alu] += n
        return {i: busy.get(i, 0) / self.cycle for i in range(self.N_ALUS)}

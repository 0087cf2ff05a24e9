"""Vectorised execution of the codegen-emitted DDC program.

The generated DDC (see :mod:`~repro.archs.gpp.codegen`) is a fixed loop
nest whose control flow depends only on counters, never on sample values.
That makes it the one fast path of the GPP simulator: instead of
interpreting ~25 instructions per input sample, this kernel

- partitions the program into basic blocks (:func:`discover_blocks`) with
  static per-block instruction/cycle/region cost tables;
- counts every basic-block execution and taken branch *in closed form*
  (floor divisions over the decimation counters), and folds them through
  those tables (:func:`accumulate_block_stats`) — so the resulting
  :class:`~repro.archs.gpp.cpu.ExecutionStats` is bit-identical to the
  interpreter's, per region (every instruction's cost class and region is
  static; only taken-branch cycles vary, and they are counted per block);
- replays the data path with numpy over the whole sample block: the
  NCO/mixer and both CIC integrator cascades become ``cumsum`` chains
  (32-bit wrapping commutes with prefix sums modulo 2**32), the combs
  become decimated differences, and the 125-tap FIR summation a handful of
  dot products;
- writes the final architectural state — registers, flags, memory words
  (filter state, FIR ring, outputs, the spill slot) — exactly as the
  interpreter would have left it.

Safety: the kernel only runs when the program carries
:class:`~repro.archs.gpp.codegen.DDCKernelMeta` *and* its control-flow
skeleton matches the shape codegen emits (verified against the discovered
basic blocks).  Anything unexpected — a foreign program, a preloaded
out-of-range FIR index, an instruction budget the program would exceed —
returns ``False`` and :meth:`~repro.archs.gpp.cpu.CPU.run` falls back to
the per-instruction interpreter, the specification, which then truncates
or fails exactly where it must.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...fastpath import delay_chain as _delay_chain, wrap32 as _wrap32
from .assembler import Program
from .cpu import CPU, ExecutionStats, _to_signed
from .isa import BRANCHES, CYCLES, Mnemonic

_MASK = np.int64(0xFFFFFFFF)


# ------------------------------------------------------------ basic blocks
@dataclass
class BasicBlock:
    """One straight-line run of instructions.

    ``start``/``end`` delimit ``program.instructions[start:end]``; the last
    instruction may be a branch or HALT (the terminator).  Static per-block
    cost tables let the runtime count block executions instead of
    instructions.
    """

    index: int
    start: int
    end: int  # exclusive
    #: successor pc when the terminator is not taken / absent
    fallthrough: int
    #: branch target pc (branches only)
    target: int | None = None
    terminator: Mnemonic | None = None
    n_instr: int = 0
    base_cycles: int = 0  # with branches priced as not-taken
    taken_extra: int = 0
    branch_region: str | None = None
    #: region -> (instructions, not-taken cycles)
    region_costs: dict[str, tuple[int, int]] = field(default_factory=dict)


def discover_blocks(program: Program) -> list[BasicBlock]:
    """Partition ``program`` into basic blocks (in program order)."""
    n = len(program)
    leaders = {0}
    for pc, instr in enumerate(program.instructions):
        if instr.mnemonic in BRANCHES:
            leaders.add(instr.target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif instr.mnemonic is Mnemonic.HALT and pc + 1 < n:
            leaders.add(pc + 1)
    ordered = sorted(leaders)
    blocks: list[BasicBlock] = []
    for bi, start in enumerate(ordered):
        limit = ordered[bi + 1] if bi + 1 < len(ordered) else n
        end = start
        terminator = None
        target = None
        while end < limit:
            instr = program.instructions[end]
            end += 1
            if instr.mnemonic in BRANCHES or instr.mnemonic is Mnemonic.HALT:
                terminator = instr.mnemonic
                target = instr.target if instr.mnemonic in BRANCHES else None
                break
        blk = BasicBlock(bi, start, end, fallthrough=end,
                         terminator=terminator, target=target)
        _price_block(program, blk)
        blocks.append(blk)
    return blocks


def _price_block(program: Program, blk: BasicBlock) -> None:
    """Fill the static instruction/cycle/region tables of ``blk``."""
    costs: dict[str, list[int]] = {}
    for pc in range(blk.start, blk.end):
        instr = program.instructions[pc]
        region = program.region_of(pc)
        cyc = CYCLES[instr.cost_class(False)]
        entry = costs.setdefault(region, [0, 0])
        entry[0] += 1
        entry[1] += cyc
        blk.n_instr += 1
        blk.base_cycles += cyc
        if instr.mnemonic in BRANCHES:
            blk.taken_extra = (
                CYCLES["branch_taken"] - CYCLES["branch_not_taken"]
            )
            blk.branch_region = region
    blk.region_costs = {r: (i, c) for r, (i, c) in costs.items()}


def accumulate_block_stats(
    stats: ExecutionStats,
    blocks: list[BasicBlock],
    counts: list[int],
    takens: list[int],
) -> None:
    """Fold per-block execution counters into ``stats``.

    Bit-identical to per-instruction accounting because every instruction's
    cost class and region are static; only branch-taken cycles vary, and
    those are counted separately per block.
    """
    for blk, count, taken in zip(blocks, counts, takens):
        if not count:
            continue
        stats.instructions += count * blk.n_instr
        stats.cycles += count * blk.base_cycles + taken * blk.taken_extra
        for region, (ri, rc) in blk.region_costs.items():
            stats.region_instructions[region] += count * ri
            stats.region_cycles[region] += count * rc
        if taken and blk.branch_region is not None:
            stats.region_cycles[blk.branch_region] += taken * blk.taken_extra


# ------------------------------------------------------------ the DDC kernel
@dataclass(frozen=True)
class _Skeleton:
    """The 13 basic blocks of a generated DDC program, by role."""

    init: BasicBlock
    loop_head: BasicBlock      # cmp/beq at sample_loop
    sample_body: BasicBlock    # nco + cic2 integrators, bne back
    cic2_comb: BasicBlock      # comb + cic5 integrators, bne back
    cic5_comb: BasicBlock      # comb + fir store, blt widx_ok
    widx_wrap: BasicBlock      # mov r3, #0
    widx_ok: BasicBlock        # store widx, bne back
    fir_head: BasicBlock       # accumulator setup
    mac_head: BasicBlock       # ring walk decrement, bge ridx_ok
    ridx_wrap: BasicBlock      # add r3, #taps
    mac_body: BasicBlock       # load/mla, bne mac loop
    fir_tail: BasicBlock       # output store, b back
    done: BasicBlock           # halt


def _match_skeleton(program: Program) -> _Skeleton | None:
    """Verify the program's control flow is the codegen shape."""
    labels = program.labels
    need = ("sample_loop", "fir_widx_ok", "fir_mac_loop", "fir_ridx_ok",
            "done")
    if any(k not in labels for k in need):
        return None
    blocks = discover_blocks(program)
    by_leader = {b.start: b for b in blocks}
    try:
        init = by_leader[0]
        head = by_leader[labels["sample_loop"]]
        body = by_leader[head.end]
        comb2 = by_leader[body.end]
        comb5 = by_leader[comb2.end]
        wrap = by_leader[comb5.end]
        widx_ok = by_leader[labels["fir_widx_ok"]]
        fir_head = by_leader[widx_ok.end]
        mac_head = by_leader[labels["fir_mac_loop"]]
        ridx_wrap = by_leader[mac_head.end]
        mac_body = by_leader[labels["fir_ridx_ok"]]
        fir_tail = by_leader[mac_body.end]
        done = by_leader[labels["done"]]
    except KeyError:
        return None
    shape = (
        (init, None, head.start),
        (head, Mnemonic.BEQ, labels["done"]),
        (body, Mnemonic.BNE, labels["sample_loop"]),
        (comb2, Mnemonic.BNE, labels["sample_loop"]),
        (comb5, Mnemonic.BLT, labels["fir_widx_ok"]),
        (wrap, None, labels["fir_widx_ok"]),
        (widx_ok, Mnemonic.BNE, labels["sample_loop"]),
        (fir_head, None, labels["fir_mac_loop"]),
        (mac_head, Mnemonic.BGE, labels["fir_ridx_ok"]),
        (ridx_wrap, None, labels["fir_ridx_ok"]),
        (mac_body, Mnemonic.BNE, labels["fir_mac_loop"]),
        (fir_tail, Mnemonic.B, labels["sample_loop"]),
        (done, Mnemonic.HALT, None),
    )
    for blk, term, succ in shape:
        if blk.terminator is not term:
            return None
        if term in (None,) and blk.fallthrough != succ:
            return None
        if term is not None and term is not Mnemonic.HALT \
                and blk.target != succ:
            return None
    return _Skeleton(init, head, body, comb2, comb5, wrap, widx_ok,
                     fir_head, mac_head, ridx_wrap, mac_body, fir_tail,
                     done)


def ddc_block_plan(
    sk: _Skeleton, n: int, d2: int, d5: int, d8: int, taps: int, w0: int
) -> list[tuple[BasicBlock, int, int]]:
    """Closed-form (block, executions, taken-branches) plan of one run.

    Pure counter algebra over the decimation structure — no execution —
    shared by :func:`run_ddc_kernel` and the analytic profile behind
    ``ARM9Model.implement_batch``.  Feeding the plan to
    :func:`accumulate_block_stats` produces an
    :class:`~repro.archs.gpp.cpu.ExecutionStats` bit-identical to
    actually executing the program.
    """
    c2 = n // d2               # CIC2 comb executions
    c5 = c2 // d5              # CIC5 comb + FIR store executions
    f = c5 // d8               # FIR summation executions
    wraps = (w0 + c5) // taps  # ring write-index wrap-arounds
    return [
        (sk.init, 1, 0),
        (sk.loop_head, n + 1, 1),
        (sk.sample_body, n, n - c2),
        (sk.cic2_comb, c2, c2 - c5),
        (sk.cic5_comb, c5, c5 - wraps),
        (sk.widx_wrap, wraps, 0),
        (sk.widx_ok, c5, c5 - f),
        (sk.fir_head, f, 0),
        (sk.mac_head, taps * f, (taps - 1) * f),
        (sk.ridx_wrap, f, 0),
        (sk.mac_body, taps * f, (taps - 1) * f),
        (sk.fir_tail, f, f),
        (sk.done, 1, 0),
    ]


def plan_instructions(plan: list[tuple[BasicBlock, int, int]]) -> int:
    """Total instructions a plan retires (the budget-check quantity)."""
    return sum(blk.n_instr * count for blk, count, _ in plan)


def run_ddc_kernel(cpu: CPU, max_instructions: int) -> bool:
    """Execute ``cpu``'s program vectorised; True when it applied.

    Requires a fresh entry (``pc == 0``, not halted) into a program with
    ``ddc_meta`` whose skeleton matches; otherwise returns False without
    touching any state.
    """
    meta = getattr(cpu.program, "ddc_meta", None)
    if meta is None or cpu.pc != 0 or cpu.halted:
        return False
    sk = _match_skeleton(cpu.program)
    if sk is None:
        return False
    mem = cpu.memory
    n, d2, d5, d8, taps = meta.n_samples, meta.d2, meta.d5, meta.d8, meta.taps
    w0 = mem.read(meta.state_base + meta.st_fir_widx)
    if not 0 <= w0 < taps or n < 1:
        return False

    # ------------------------------------------------ block/branch counts
    c2 = n // d2               # CIC2 comb executions
    c5 = c2 // d5              # CIC5 comb + FIR store executions
    f = c5 // d8               # FIR summation executions
    plan = ddc_block_plan(sk, n, d2, d5, d8, taps, w0)
    if plan_instructions(plan) > max_instructions:
        return False  # the interpreter truncates at the exact instruction

    # ------------------------------------------------------- NCO + mixer
    lut_words = 1 << meta.lut_bits
    lut = np.array(mem.region(meta.lut_base, lut_words), dtype=np.int64)
    x = np.array(mem.region(meta.in_base, n), dtype=np.int64)
    k = np.arange(1, n + 1, dtype=np.int64)
    phase = (meta.phase_bias + k * meta.fcw) & _MASK
    idx = ((phase >> (32 - meta.lut_bits)) + lut_words // 4) \
        & np.int64(lut_words - 1)
    cosv = lut[idx]
    mixed = _wrap32(x * cosv) >> meta.mix_shift

    # --------------------------------------------------- CIC2 integrators
    st = meta.state_base
    i1 = _wrap32(mem.read(st + meta.st_cic2_int) + np.cumsum(mixed))
    i2 = _wrap32(mem.read(st + meta.st_cic2_int + 1) + np.cumsum(i1))

    # --------------------------------------------------------- CIC2 comb
    v = i2[d2 - 1::d2][:c2]
    comb1 = _wrap32(v - _delay_chain(v, mem.read(st + meta.st_cic2_comb)))
    out2 = _wrap32(
        comb1 - _delay_chain(comb1, mem.read(st + meta.st_cic2_comb + 1))
    )
    c2out = (out2 >> meta.cic2_shift) >> meta.cic5_pre_shift

    # --------------------------------------------------- CIC5 integrators
    s_final: list[np.ndarray] = []
    acc = c2out
    for i in range(5):
        acc = _wrap32(mem.read(st + meta.st_cic5_int + i) + np.cumsum(acc))
        s_final.append(acc)

    # --------------------------------------------------------- CIC5 comb
    u = s_final[4][d5 - 1::d5][:c5]
    d_last: list[int] = []
    cur = u
    for i in range(5):
        init = mem.read(st + meta.st_cic5_comb + i)
        d_last.append(int(cur[-1]) if len(cur) else init)
        cur = _wrap32(cur - _delay_chain(cur, init))
    c5out = cur >> meta.cic5_shift

    # ------------------------------------------------- FIR ring + output
    coef = np.array(mem.region(meta.coef_base, taps), dtype=np.int64)
    ring = np.array(mem.region(meta.fir_ram, taps), dtype=np.int64)
    outs: list[int] = []
    r13_last = 0
    for m in range(1, c5 + 1):
        ring[(w0 + m - 1) % taps] = c5out[m - 1]
        if m % d8 == 0:
            start = (w0 + m) % taps
            order = (start - 1 - np.arange(taps)) % taps
            acc32 = _wrap32(np.dot(ring[order], coef))
            outs.append(int(acc32) >> meta.fir_out_shift)
            r13_last = int(ring[start])

    # -------------------------------------------------- memory write-back
    if c2:
        mem.write(st + meta.st_cic2_comb, int(v[-1]))
        mem.write(st + meta.st_cic2_comb + 1, int(comb1[-1]))
        for i in range(5):
            mem.write(st + meta.st_cic5_int + i, int(s_final[i][-1]))
    if c5:
        for i in range(5):
            mem.write(st + meta.st_cic5_comb + i, d_last[i])
        mem.write(st + meta.st_fir_widx, (w0 + c5) % taps)
        for i in range(taps):
            mem.write(meta.fir_ram + i, int(ring[i]))
    mem.write(st + meta.st_cic2_int, int(i1[-1]))
    mem.write(st + meta.st_cic2_int + 1, int(i2[-1]))
    mem.write(st + meta.st_out_ptr, meta.out_base + f)
    for i, val in enumerate(outs):
        mem.write(meta.out_base + i, val)

    def r5_state(done_samples: int) -> int:
        """r5 after ``done_samples`` completed sample iterations."""
        if done_samples == 0:
            return cpu.regs[5]
        j = done_samples // d2
        if done_samples % d2 != 0:
            return int(mixed[done_samples - 1])
        m = j // d5
        if j % d5 == 0 and m >= 1 and m % d8 == 0:
            return outs[m // d8 - 1]
        return int(c2out[j - 1])

    if meta.spill_slots:
        mem.write(meta.stack_base, r5_state(n - 1))

    # ------------------------------------------------ final register file
    c_end = n % d2 == 0                   # comb chain ran at the last sample
    d_end = c_end and c2 % d5 == 0
    f_end = d_end and c5 % d8 == 0
    widx_final = (w0 + c5) % taps
    r = cpu.regs
    if f_end:
        r[0] = 0
        r[3] = meta.out_base + f
        r[4] = meta.coef_base + taps
        r[5] = outs[-1]
        r[13] = r13_last
        r[15] = d8
    else:
        if d_end:
            r[0] = int(c5out[-1])
            r[3] = widx_final
            r[4] = meta.fir_ram + (w0 + c5 - 1) % taps
        elif c_end:
            r[0] = int(s_final[4][-1])
            r[3] = int(s_final[4][-1])
            r[4] = int(comb1[-1])
        else:
            r[0] = int(x[n - 1])
            r[3] = int(i1[n - 1])
            r[4] = int(i2[n - 1])
        r[5] = int(c2out[c2 - 1]) if c_end else int(mixed[n - 1])
        if meta.spill_slots:
            r[13] = meta.stack_base
        elif f:
            r[13] = r13_last
        r[15] = d8 if c5 % d8 == 0 else d8 - (c5 % d8)
    r[1] = _to_signed(int(phase[n - 1]))
    r[2] = _to_signed(meta.fcw)
    if c2:
        r[7] = int(v[-1])
    r[8] = meta.in_base + n
    r[9] = meta.in_base + n
    r[10] = meta.lut_base
    r[11] = d2 if n % d2 == 0 else d2 - (n % d2)
    r[12] = meta.state_base
    r[14] = d5 if c2 % d5 == 0 else d5 - (c2 % d5)
    cpu.flag_z = True     # the exit compare saw r8 == r9
    cpu.flag_n = False
    cpu.pc = sk.done.end
    cpu.halted = True

    # --------------------------------------------------------- statistics
    blocks = [blk for blk, _, _ in plan]
    counts = [count for _, count, _ in plan]
    takens = [taken for _, _, taken in plan]
    accumulate_block_stats(cpu.stats, blocks, counts, takens)
    return True

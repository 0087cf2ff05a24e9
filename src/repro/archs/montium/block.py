"""Vectorised block execution of the Montium DDC schedule.

The stepped :meth:`~repro.archs.montium.tile.MontiumTile.step` resolves
every routing token and executes every ALU bundle one clock at a time —
the oracle.  :func:`process_ddc_block` replays an arbitrary window of the
DDC schedule with numpy instead, state-synced to the tile exactly:

- the three every-cycle ALUs (mixer MACs + CIC2 integrators + address
  generation) become ``cumsum`` chains over the whole window, using the
  same 16-bit wrapping arithmetic (prefix sums commute with wrapping
  modulo 2**16);
- the decimated events (CIC2 comb, CIC5 integrator/comb stages, FIR
  bookkeeping) are located by residue arithmetic on the *absolute* cycle
  number, so a window may start and stop anywhere in the 336-cycle macro
  period — block and stepped execution interleave freely on one tile;
- every piece of tile state the stepped path touches is synced: ``env``
  scalars (including defaultdict key insertion on read), local-memory
  contents/AGU addresses/read/write counters, ALU ``ops_executed`` and
  ``mul_count``, ``busy_cycles`` (so Table 6 occupancy and
  ``alu_utilisation()`` match exactly), outputs and the cycle counter.

The FIR bookkeeping events of a window are replayed at once per rail
(:func:`_fir_events`) against the tile's real local memories; the
per-event ``_fir_step`` stays the oracle.

The ordering subtlety the vectorisation must honour: within a cycle the
tile executes ALUs in index order, so ALU0/1 read ``env:x``/``env:x_neg``
written by ALU2 on the *previous* cycle, while ALU3/4 read the CIC2
integrator values ALU0/1 wrote on the *same* cycle.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...fastpath import (
    delay_chain as _delay,
    wrap16 as _wrap16,
    wrap32 as _wrap32,
)
from .alu import Level2Fn
from .program import TileProgram
from .tile import MontiumTile


def _event_ts(c0: int, n: int, mod: int, residue: int) -> np.ndarray:
    """Local offsets t in [0, n) where (c0 + t) % mod == residue."""
    first = (residue - c0) % mod
    return np.arange(first, n, mod, dtype=np.int64)


def _paired(src_ts: np.ndarray, src_vals: np.ndarray, init: int,
            dst_ts: np.ndarray) -> np.ndarray:
    """Value of a produced stream as read at each consumer cycle.

    Every producer in the DDC schedule runs on an earlier cycle than its
    consumer, so the value read at ``t`` is the one from the latest
    ``src_ts < t`` (``init`` before the first in-window producer).
    """
    idx = np.searchsorted(src_ts, dst_ts, side="left")
    out = np.empty(len(dst_ts), dtype=np.int64)
    out[idx == 0] = init
    nz = idx > 0
    out[nz] = src_vals[idx[nz] - 1]
    return out


def _fir_events(tile: MontiumTile, alu: int, op,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replay ``len(xs)`` consecutive ``_fir_step`` events of one rail;
    return the indices of the events that emitted and their outputs.

    Sample ``n`` adds ``(x[n] * h[m*decim - n]) >> 15`` to sum ``m``, held
    in slot ``m % ring`` and emitted (then zeroed) at ``n = m*decim``.
    wrap16 is mod 2**16, so each sum wraps once; only the window's first
    ``ring`` sums start from a preloaded slot, later ones from zero.
    """
    coeff_mem, sum_mem = (tile.memories[name] for name in op.meta[:2])
    prefix, env = op.meta[2], tile.env
    n0, taps, decim = (env[f"{prefix}.{k}"] for k in ("n", "taps", "decim"))
    if taps <= 0 or decim <= 0:
        raise ConfigurationError("FIR_STEP state not initialised")
    ring = taps // decim + 2
    n = n0 + np.arange(len(xs), dtype=np.int64)
    m = -(-n // decim)[:, None] + np.arange(-(-taps // decim))
    k = m * decim - n[:, None]
    live = k < taps
    h = np.array(coeff_mem._data[:taps], dtype=np.int64)[np.where(live, k, 0)]
    m_first = int(m[0, 0])
    sums = np.zeros(int(m[live].max()) - m_first + 1, dtype=np.int64)
    np.add.at(sums, m[live] - m_first, ((xs[:, None] * h) >> 15)[live])
    ms = m_first + np.arange(len(sums))
    head = slice(0, min(ring, len(sums)))
    sums[head] += np.array(sum_mem._data, dtype=np.int64)[ms[head] % ring]
    sums = _wrap16(sums)
    emit = n % decim == 0
    out = sums[n[emit] // decim - m_first]
    sums[n[emit] // decim - m_first] = 0
    for j in range(max(0, len(sums) - ring), len(sums)):
        sum_mem._data[int(ms[j]) % ring] = int(sums[j])
    c, e = int(live.sum()), int(emit.sum())
    coeff_mem.reads += c
    sum_mem.reads += c + e
    sum_mem.writes += c + e
    tile.alus[alu].mul_count += c
    env[f"{prefix}.n"] = n0 + len(xs)
    return np.flatnonzero(emit), out


def process_ddc_block(tile: MontiumTile, program: TileProgram,
                      cycles: int) -> None:
    """Execute ``cycles`` cycles of the DDC schedule, vectorised.

    Requires ``program.ddc_meta`` (attached by ``build_ddc_schedule``)
    and enough input samples; the caller
    (:meth:`MontiumTile.process_block`) falls back to stepping otherwise.
    """
    meta = program.ddc_meta
    n = int(cycles)
    if n == 0:
        return
    c0 = tile.cycle
    d2, macro = meta.d2, meta.macro
    env = tile.env

    x_in = tile._in_array[tile._in_pos : tile._in_pos + n]

    # ------------------------------------------- every-cycle ALUs (0/1/2)
    # ALU0/1 read env:x / env:x_neg one cycle stale (ALU2 runs after them).
    xe = np.empty(n, dtype=np.int64)
    xn = np.empty(n, dtype=np.int64)
    xe[0] = env["env:x"]
    xn[0] = env["env:x_neg"]
    xe[1:] = x_in[:-1]
    xn[1:] = _wrap16(-x_in[:-1])

    luts = {}
    for mem_name, arr in (("mem0_1", "cos"), ("mem1_1", "sin")):
        mem = tile.memories[mem_name]
        # the AGU walks the memory cyclically from its current address
        lut = np.roll(np.array(mem._data, dtype=np.int64), -mem.addr)
        luts[arr] = np.resize(lut, n)
        mem.addr = (mem.addr + n) % mem.size
        mem.reads += n

    # The env-key discipline below mirrors the stepped path exactly: the
    # tile's env is a defaultdict, so *reading* an initial value inserts
    # its key — therefore initial values are only read when the window
    # actually contains an event that would have read them.
    rails = {}
    for rail, x_vec, lut in (("I", xe, luts["cos"]), ("Q", xn, luts["sin"])):
        prod = (x_vec * lut) >> meta.mix_shift
        i1_init = env[f"env:i1_{rail}"]
        i1 = _wrap16(i1_init + np.cumsum(prod))
        # i2[t] accumulates i1 as of the previous cycle
        i1_prev = np.concatenate(([0], np.cumsum(i1[:-1])))
        i2 = _wrap16(env[f"env:i2_{rail}"] + i1_init + i1_prev)
        rails[rail] = {"i1": i1, "i2": i2}

    # --------------------------------------------------- decimated events
    ts_comb = _event_ts(c0, n, d2, 0)
    ts_stage = [_event_ts(c0, n, d2, r) for r in (1, 2, 3, 4)]
    ts_p0 = _event_ts(c0, n, macro, 5)
    ts_p1 = _event_ts(c0, n, macro, 6)
    ts_p2 = _event_ts(c0, n, macro, 7)
    ts_fir = _event_ts(c0, n, macro, 8)
    empty = np.empty(0, dtype=np.int64)

    fir_ops = {
        alu: op for alu, op in program.ops_at(8).items()
        if op.level2 is Level2Fn.FIR_STEP
    }

    for rail in ("I", "Q"):
        st = rails[rail]
        # CIC2 comb: reads i2 updated the same cycle.
        if len(ts_comb):
            a = st["i2"][ts_comb]
            r1 = _wrap16(a - _delay(a, env[f"env:c2d0_{rail}"]))
            c2out = _wrap16(r1 - _delay(r1, env[f"env:c2d1_{rail}"])) \
                >> meta.cic2_out_shift
        else:
            a = r1 = c2out = empty
        st["c2d0"], st["c2d1"], st["c2out"] = a, r1, c2out

        # CIC5 integrators: stage r consumes the previous stage's stream.
        if len(ts_stage[0]):
            x0 = _paired(ts_comb, c2out, env[f"env:c2out_{rail}"],
                         ts_stage[0])
            s0 = _wrap32(env[f"env32:s0_{rail}"] + np.cumsum(x0))
            s1 = _wrap32(env[f"env32:s1_{rail}"] + np.cumsum(s0))
        else:
            s0 = s1 = empty
        st["s0"], st["s1"] = s0, s1
        prev_ts, prev_vals = ts_stage[0], s1
        for r, key in ((1, "s2"), (2, "s3"), (3, "s4")):
            if len(ts_stage[r]):
                vals = _paired(prev_ts, prev_vals,
                               env[f"env32:s{r}_{rail}"], ts_stage[r])
                acc = _wrap32(env[f"env32:{key}_{rail}"] + np.cumsum(vals))
            else:
                acc = empty
            st[key] = acc
            prev_ts, prev_vals = ts_stage[r], acc

        # CIC5 comb: three chained double-stage cycles.
        if len(ts_p0):
            a0 = _paired(ts_stage[3], st["s4"], env[f"env32:s4_{rail}"],
                         ts_p0)
            q1 = _wrap32(a0 - _delay(a0, env[f"env32:d0_{rail}"]))
            t0 = _wrap32(q1 - _delay(q1, env[f"env32:d1_{rail}"]))
        else:
            a0 = q1 = t0 = empty
        if len(ts_p1):
            a1 = _paired(ts_p0, t0, env[f"env32:t0_{rail}"], ts_p1)
            q2 = _wrap32(a1 - _delay(a1, env[f"env32:d2_{rail}"]))
            t1 = _wrap32(q2 - _delay(q2, env[f"env32:d3_{rail}"]))
        else:
            a1 = q2 = t1 = empty
        if len(ts_p2):
            a2 = _paired(ts_p1, t1, env[f"env32:t1_{rail}"], ts_p2)
            c5out = _wrap32(a2 - _delay(a2, env[f"env32:d4_{rail}"])) \
                >> meta.cic5_out_shift
        else:
            a2 = c5out = empty
        st.update(d0=a0, d1=q1, t0=t0, d2_=a1, d3=q2, t1=t1, d4=a2,
                  c5out=c5out)

    # FIR bookkeeping: all of the window's events per rail at once; the
    # outputs interleave I then Q per event, as the stepped tile emits.
    if len(ts_fir):
        keys, vals = [], []
        for r, (rail, alu) in enumerate((("I", 3), ("Q", 4))):
            fir_in = _paired(ts_p2, rails[rail]["c5out"],
                             env[f"env:c5out_{rail}"], ts_fir)
            env[f"env:c5out_{rail}"] = int(fir_in[-1])
            events, out = _fir_events(tile, alu, fir_ops[alu], fir_in)
            keys.append(2 * events + r)
            vals.append(out)
        order = np.argsort(np.concatenate(keys), kind="stable")
        tile.outputs.extend(np.concatenate(vals)[order].tolist())

    # ------------------------------------------------------- state sync
    def final(rail: str, key: str, ts: np.ndarray, env_key: str) -> None:
        if len(ts):
            env[env_key] = int(rails[rail][key][-1])

    env["env:x"] = int(x_in[-1])
    env["env:x_neg"] = int(_wrap16(np.int64(-x_in[-1])))
    for rail in ("I", "Q"):
        env[f"env:i1_{rail}"] = int(rails[rail]["i1"][-1])
        env[f"env:i2_{rail}"] = int(rails[rail]["i2"][-1])
        final(rail, "c2d0", ts_comb, f"env:c2d0_{rail}")
        final(rail, "c2d1", ts_comb, f"env:c2d1_{rail}")
        final(rail, "c2out", ts_comb, f"env:c2out_{rail}")
        for r, key in ((0, "s0"), (0, "s1"), (1, "s2"), (2, "s3"),
                       (3, "s4")):
            final(rail, key, ts_stage[r], f"env32:{key}_{rail}")
        final(rail, "d0", ts_p0, f"env32:d0_{rail}")
        final(rail, "d1", ts_p0, f"env32:d1_{rail}")
        final(rail, "t0", ts_p0, f"env32:t0_{rail}")
        final(rail, "d2_", ts_p1, f"env32:d2_{rail}")
        final(rail, "d3", ts_p1, f"env32:d3_{rail}")
        final(rail, "t1", ts_p1, f"env32:t1_{rail}")
        final(rail, "d4", ts_p2, f"env32:d4_{rail}")
        if len(ts_p2):
            env[f"env:c5out_{rail}"] = int(rails[rail]["c5out"][-1])

    # ------------------------------------- counters, occupancy, bookkeeping
    n_stage = sum(len(ts) for ts in ts_stage)
    n_p = len(ts_p0) + len(ts_p1) + len(ts_p2)
    busy = tile.busy_cycles
    for alu in (0, 1, 2):
        busy["nco_cic2_int"][alu] += n
        tile.alus[alu].ops_executed += n
    tile.alus[0].mul_count += n
    tile.alus[1].mul_count += n
    for alu in (3, 4):
        if len(ts_comb):
            busy["cic2_comb"][alu] += len(ts_comb)
        if n_stage:
            busy["cic5_int"][alu] += n_stage
        if n_p:
            busy["cic5_comb"][alu] += n_p
        if len(ts_fir):
            busy["fir125"][alu] += len(ts_fir)
        tile.alus[alu].ops_executed += len(ts_comb) + n_stage + n_p

    tile._in_pos += n
    tile.cycle += n


def can_process_block(tile: MontiumTile, program: TileProgram,
                      cycles: int) -> bool:
    """True when the vectorised path applies to this window."""
    if getattr(program, "ddc_meta", None) is None:
        return False
    # the stepped path must raise input underrun at the exact cycle
    return tile._in_pos + cycles <= len(tile.inputs)

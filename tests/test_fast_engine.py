"""Equivalence suite for the fast-execution engine.

Five families of guarantees:

1. block-mode RTL components == the bit-true numpy models == the
   cycle-accurate RTL, sample for sample, under arbitrary block splits;
2. the compiled ``Simulator.step`` fast path == a reference per-cycle
   interpretation of the same design (identical wire traces *and* toggle
   counts), with ``activity=False`` latching identically;
3. the block-mode RTLDDC reconstructs the cycle-accurate activity report
   exactly, not just approximately;
4. the GPP fast path (the vectorised DDC kernel) == the per-instruction
   interpreter: same registers, flags, memory and bit-identical
   ``ExecutionStats`` for the generated DDC at arbitrary sample counts,
   and the same truncation when the kernel declines a short budget;
5. the Montium block engine == the stepped tile: same outputs, env,
   memories, cycle counts, busy-cycle occupancy and ALU utilisation,
   under arbitrary (odd) block splits and mid-macro-period resumes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import REFERENCE_DDC, FixedDDC
from repro.archs.fpga import RTLDDC
from repro.archs.fpga.block import popcount_sum, stream_toggles
from repro.archs.fpga.rtl_cic import RTLCIC
from repro.archs.fpga.rtl_fir import RTLPolyphaseFIR
from repro.archs.fpga.rtl_nco import RTLNCOMixer
from repro.dsp.cic import FixedCICDecimator
from repro.dsp.fir import FixedPolyphaseDecimator
from repro.dsp.firdesign import quantize_taps, reference_fir_taps
from repro.dsp.signals import quantize_to_adc, tone
from repro.errors import SimulationError
from repro.simkernel import ClockDomain, Component, Simulator, Wire, WaveTrace


def _split(x: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    """Split ``x`` at the given (possibly duplicate) cut points."""
    return [b for b in np.split(x, sorted(c % (len(x) + 1) for c in cuts))]


# --------------------------------------------------------------------------
# 1. block-mode components vs the bit-true models, arbitrary splits
# --------------------------------------------------------------------------

samples_strategy = st.lists(
    st.integers(-2048, 2047), min_size=1, max_size=400
)
cuts_strategy = st.lists(st.integers(0, 10_000), max_size=5)


class TestBlockSplitEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(samples=samples_strategy, cuts=cuts_strategy,
           order=st.integers(1, 5), decimation=st.integers(2, 21))
    def test_cic_block_splits(self, samples, cuts, order, decimation):
        x = np.array(samples, dtype=np.int64)
        want = FixedCICDecimator(order, decimation, input_width=12).process(x)

        sim = Simulator(ClockDomain("clk", 1e6))
        from repro.fixedpoint import cic_bit_growth

        g = 12 + cic_bit_growth(order, decimation)
        cic = RTLCIC(
            "cic", sim.wire("x", 12), sim.wire("xv", 1),
            sim.wire("y", 12), sim.wire("yv", 1),
            sim.wire("ip", g), sim.wire("cp", g), order, decimation, 12,
        )
        got = np.concatenate(
            [cic.process_block(b) for b in _split(x, cuts)]
        )
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(samples=samples_strategy, cuts=cuts_strategy,
           decimation=st.integers(1, 8))
    def test_fir_block_splits(self, samples, cuts, decimation):
        taps = reference_fir_taps(21, 192e3, 24e3, compensate_cic5=False)
        raw, fmt = quantize_taps(taps, 12)
        shift = max(0, fmt.frac)
        x = np.array(samples, dtype=np.int64)
        want = FixedPolyphaseDecimator(
            raw, decimation, output_shift=shift
        ).process(x)

        sim = Simulator(ClockDomain("clk", 1e6))
        fir = RTLPolyphaseFIR(
            "fir", sim.wire("x", 12), sim.wire("xv", 1),
            sim.wire("y", 12), sim.wire("yv", 1),
            sim.wire("acc", 31), sim.wire("addr", 8),
            raw, decimation, 12, output_shift=shift,
        )
        got = np.concatenate(
            [fir.process_block(b) for b in _split(x, cuts)]
        )
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(samples=st.lists(st.integers(-2048, 2047), min_size=1, max_size=120),
           cuts=cuts_strategy)
    def test_nco_mixer_block_splits_vs_cycle(self, samples, cuts):
        x = np.array(samples, dtype=np.int64)
        cfg = REFERENCE_DDC

        def build(sim):
            return RTLNCOMixer(
                "nco", sim.wire("x", 12), sim.wire("xv", 1),
                sim.wire("i", 12), sim.wire("q", 12), sim.wire("v", 1),
                sim.wire("ph", 32), sim.wire("c", 12), sim.wire("s", 12),
                frequency_hz=cfg.nco_frequency_hz,
                sample_rate_hz=cfg.input_rate_hz,
            )

        # cycle-accurate reference
        sim = Simulator(ClockDomain("clk", cfg.input_rate_hz))
        nco = build(sim)
        xw, xv = nco.inputs["x"], nco.inputs["x_valid"]
        iw, qw, vw = nco.outputs["i"], nco.outputs["q"], nco.outputs["iq_valid"]
        i_ref, q_ref = [], []
        for v in x:
            # two-phase: commit the inputs first so tick sees them
            xw.drive(int(v))
            xv.drive(1)
            xw.commit()
            xv.commit()
            nco.tick(0)
            for w in (iw, qw, vw, *(nco.outputs[p] for p in
                                    ("phase", "cos", "sin"))):
                w.commit()
            assert vw.value == 1
            i_ref.append(iw.value)
            q_ref.append(qw.value)

        # block mode, arbitrary splits
        sim2 = Simulator(ClockDomain("clk", cfg.input_rate_hz))
        nco2 = build(sim2)
        i_blk, q_blk = [], []
        for b in _split(x, cuts):
            i, q = nco2.process_block(b)
            i_blk.extend(i)
            q_blk.extend(q)
        np.testing.assert_array_equal(i_blk, i_ref)
        np.testing.assert_array_equal(q_blk, q_ref)

    def test_fir_block_refuses_mid_mac(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        fir = RTLPolyphaseFIR(
            "fir", sim.wire("x", 12), sim.wire("xv", 1),
            sim.wire("y", 12), sim.wire("yv", 1),
            sim.wire("acc", 31), sim.wire("addr", 8),
            np.ones(8, dtype=np.int64), 8, 12,
        )
        fir.inputs["x"].value = 5
        fir.inputs["x_valid"].value = 1
        fir.tick(0)  # trigger: MAC loop now busy
        with pytest.raises(SimulationError):
            fir.process_block(np.zeros(4, dtype=np.int64))


# --------------------------------------------------------------------------
# 2. full-chain: block RTLDDC vs FixedDDC vs cycle RTLDDC
# --------------------------------------------------------------------------

class TestRTLDDCBlockMode:
    @pytest.fixture(scope="class")
    def adc(self):
        cfg = REFERENCE_DDC
        n = 2688 * 3
        return quantize_to_adc(
            tone(n, cfg.nco_frequency_hz + 5e3, cfg.input_rate_hz, 0.8), 12
        )

    def test_block_matches_fixed_ddc(self, adc):
        res = RTLDDC().run(adc, engine="block")
        i_ref, q_ref = FixedDDC().process(adc)
        np.testing.assert_array_equal(res.i, i_ref)
        np.testing.assert_array_equal(res.q, q_ref)

    @settings(max_examples=10, deadline=None)
    @given(cuts=st.lists(st.integers(0, 10_000), max_size=4))
    def test_block_split_invariance(self, adc, cuts):
        """Feeding the burst in arbitrary sub-blocks changes nothing."""
        rtl = RTLDDC()
        i_parts, q_parts = [], []
        for b in _split(adc, cuts):
            res = rtl.run(b, engine="block", activity=False)
            i_parts.append(res.i)
            q_parts.append(res.q)
        i_ref, q_ref = FixedDDC().process(adc)
        np.testing.assert_array_equal(np.concatenate(i_parts), i_ref)
        np.testing.assert_array_equal(np.concatenate(q_parts), q_ref)

    def test_block_matches_cycle_exactly(self, adc):
        cyc = RTLDDC().run(adc)
        blk = RTLDDC().run(adc, engine="block")
        n = min(len(cyc.i), len(blk.i))
        assert n >= 2
        np.testing.assert_array_equal(blk.i[:n], cyc.i[:n])
        np.testing.assert_array_equal(blk.q[:n], cyc.q[:n])
        assert blk.cycles == cyc.cycles

    def test_block_activity_matches_cycle(self, adc):
        """The analytic report reproduces every wire's toggle count."""
        cyc = RTLDDC().run(adc)
        blk = RTLDDC().run(adc, engine="block")
        for wa in cyc.activity.wires:
            wb = blk.activity.by_name(wa.name)
            assert wa.toggles == wb.toggles, wa.name
            assert wa.commits == wb.commits, wa.name
        assert blk.activity.mean_toggle_rate == pytest.approx(
            cyc.activity.mean_toggle_rate
        )

    def test_activity_opt_out(self, adc):
        res = RTLDDC().run(adc, engine="block", activity=False)
        assert res.activity.mean_toggle_rate == 0.0
        res_c = RTLDDC().run(adc, engine="cycle", activity=False)
        assert res_c.activity.mean_toggle_rate == 0.0
        i_ref, _ = FixedDDC().process(adc)
        np.testing.assert_array_equal(res.i, i_ref)
        n = min(len(res_c.i), len(i_ref))
        np.testing.assert_array_equal(res_c.i[:n], i_ref[:n])


# --------------------------------------------------------------------------
# 3. compiled Simulator vs reference interpretation
# --------------------------------------------------------------------------

class _Player(Component):
    """Drives a wire from a fixed pattern, one value per cycle."""

    def __init__(self, name: str, out: Wire, pattern: list[int]) -> None:
        super().__init__(name)
        self.add_output("q", out)
        self.pattern = pattern

    def tick(self, cycle: int) -> None:
        if cycle < len(self.pattern):
            self.write("q", self.pattern[cycle])


class _Delay(Component):
    """Registers its input to its output."""

    def __init__(self, name: str, inp: Wire, out: Wire) -> None:
        super().__init__(name)
        self.add_input("d", inp)
        self.add_output("q", out)

    def tick(self, cycle: int) -> None:
        self.write("q", self.read("d"))


def _build(pattern: list[int]) -> tuple[Simulator, WaveTrace]:
    sim = Simulator(ClockDomain("clk", 1e6))
    a = sim.wire("a", 12)
    b = sim.wire("b", 12)
    sim.add(_Player("src", a, pattern))
    sim.add(_Delay("dly", a, b))
    trace = sim.attach_trace(WaveTrace([a, b]))
    return sim, trace


def _reference_step(sim: Simulator, cycles: int) -> None:
    """The seed's uncompiled per-cycle loop, kept as the oracle."""
    for _ in range(cycles):
        for comp in sim.components.values():
            comp.tick(sim.cycle)
        for w in sim.wires.values():
            w.commit()
        for t in sim._traces:
            t.sample(sim.cycle)
        sim.cycle += 1


class TestCompiledSimulator:
    @settings(max_examples=25, deadline=None)
    @given(pattern=st.lists(st.integers(-2048, 2047), min_size=1, max_size=64),
           extra=st.integers(0, 8))
    def test_traces_and_toggles_identical(self, pattern, extra):
        n = len(pattern) + extra
        fast, fast_trace = _build(pattern)
        fast.compile()
        fast.step(n)

        ref, ref_trace = _build(pattern)
        _reference_step(ref, n)

        assert fast_trace.values("a") == ref_trace.values("a")
        assert fast_trace.values("b") == ref_trace.values("b")
        for name in ("a", "b"):
            wf, wr = fast.wires[name], ref.wires[name]
            assert (wf.toggles, wf.commits) == (wr.toggles, wr.commits)
        assert fast.cycle == ref.cycle

    def test_structural_change_invalidates_plan(self):
        sim, _ = _build([1, 2, 3])
        sim.compile()
        assert sim.compiled
        c = sim.wire("c", 4)
        assert not sim.compiled
        sim.add(_Delay("dly2", sim.wires["b"], c))
        sim.step(4)  # recompiles lazily; new component must run
        assert c.value == sim.wires["a"].reset_value or c.commits == 4

    def test_activity_off_latches_identically(self):
        pattern = list(range(-30, 30, 3))
        on, _ = _build(pattern)
        on.step(len(pattern))
        off, _ = _build(pattern)
        off.activity = False
        off.step(len(pattern))
        for name in ("a", "b"):
            assert off.wires[name].value == on.wires[name].value
            assert off.wires[name].toggles == 0
            assert on.wires[name].toggles > 0

    def test_mid_step_error_counts_completed_cycles(self):
        class Bomb(Component):
            def tick(self, cycle):
                if cycle == 3:
                    raise SimulationError("boom")

        sim = Simulator(ClockDomain("clk", 1e6))
        sim.add(Bomb("bomb"))
        with pytest.raises(SimulationError):
            sim.step(10)
        assert sim.cycle == 3


# --------------------------------------------------------------------------
# 4. block-activity helpers
# --------------------------------------------------------------------------

class TestBlockHelpers:
    def test_popcount_sum(self):
        assert popcount_sum(np.array([0b1011, 0, 0b1], dtype=np.uint64)) == 4
        assert popcount_sum(np.empty(0, dtype=np.uint64)) == 0

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(-2048, 2047), max_size=100),
           width=st.integers(2, 16))
    def test_stream_toggles_matches_wire_commit(self, values, width):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        vals = [max(lo, min(hi, v)) for v in values]
        w = Wire("w", width)
        for v in vals:
            w.drive(v)
            w.commit()
        assert stream_toggles(np.array(vals, dtype=np.int64), width) == w.toggles

    def test_numpy_scalar_drive(self):
        w = Wire("w", 12)
        w.drive(np.int64(-5))
        w.commit()
        assert w.value == -5 and isinstance(w.value, int)


# --------------------------------------------------------------------------
# 5. GPP fast path vs the per-instruction interpreter
# --------------------------------------------------------------------------

from repro.archs.gpp import CPU, WordMemory, assemble
from repro.archs.gpp.codegen import build_memory_image, generate_ddc_program
from repro.archs.gpp.ddc_kernel import (
    _match_skeleton,
    ddc_block_plan,
    discover_blocks,
    plan_instructions,
    run_ddc_kernel,
)
from repro.errors import ExecutionError


def _fresh_cpu(program, images=()):
    cpu = CPU(program)
    for base, words in images:
        cpu.load_memory(base, words)
    return cpu


def _gpp_state(cpu):
    return (
        list(cpu.regs),
        cpu.flag_n,
        cpu.flag_z,
        cpu.pc,
        cpu.halted,
        cpu.memory.nonzero_items(),
    )


def _stats_tuple(stats):
    return (
        stats.instructions,
        stats.cycles,
        dict(stats.region_instructions),
        dict(stats.region_cycles),
    )


def _assert_engines_match(program, images=(), max_instructions=200_000):
    """``engine="auto"`` == ``engine="interp"``: the same error (or none),
    final state and statistics.  Returns the ``auto`` run's error and CPU."""
    runs = []
    for engine in ("interp", "auto"):
        cpu = _fresh_cpu(program, images)
        err = None
        try:
            cpu.run(max_instructions=max_instructions, engine=engine)
        except ExecutionError as exc:
            err = str(exc)
        runs.append((err, _gpp_state(cpu), _stats_tuple(cpu.stats)))
    assert runs[1] == runs[0]
    return err, cpu


class TestGPPEngineEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([1, 15, 16, 271, 336, 337, 672, 2689]),
           spill=st.booleans())
    def test_generated_ddc_all_engines(self, n, spill):
        """The generated DDC: kernel == interpreter, any n."""
        program, layout = generate_ddc_program(
            n_samples=n, spill_slots=spill
        )
        rng = np.random.default_rng(n)
        x = rng.integers(-2048, 2048, size=n).astype(np.int64)
        images = sorted(build_memory_image(layout, x).items())
        _assert_engines_match(
            program, images=images, max_instructions=400 * n + 10_000
        )

    @pytest.mark.parametrize("n", [16, 337, 2689])
    @pytest.mark.parametrize("spill", [True, False])
    def test_budget_below_plan_falls_back_to_interp(self, n, spill):
        """A budget the kernel would exceed makes it decline; ``auto`` then
        truncates on the interpreter at the same instruction, with the
        same error, partial state and statistics as ``interp``."""
        program, layout = generate_ddc_program(n_samples=n, spill_slots=spill)
        meta = program.ddc_meta
        plan = ddc_block_plan(_match_skeleton(program), n, meta.d2, meta.d5,
                              meta.d8, meta.taps, 0)
        need = plan_instructions(plan)
        x = np.random.default_rng(n).integers(-2048, 2048, size=n)
        images = sorted(build_memory_image(layout, x).items())
        for budget in (0, need // 2, need - 1):
            assert not run_ddc_kernel(_fresh_cpu(program, images), budget)
            err, cpu = _assert_engines_match(program, images=images,
                                             max_instructions=budget)
            assert err == f"exceeded {budget} instructions without HALT"
            assert cpu.stats.instructions == budget and not cpu.halted

    def test_preloaded_filter_state_reaches_kernel(self):
        """The kernel must honour arbitrary preloaded state words."""
        n = 672
        program, layout = generate_ddc_program(n_samples=n)
        rng = np.random.default_rng(7)
        x = rng.integers(-2048, 2048, size=n).astype(np.int64)
        images = sorted(build_memory_image(layout, x).items())
        state_words = list(rng.integers(-2**31, 2**31 - 1, size=16))
        state_words[12] = 37  # FIR write index must stay in [0, taps)
        state = [(0x8000, state_words)]
        # the vectorised kernel must actually take this input (a widx
        # outside the ring makes it decline and fall back)
        probe = _fresh_cpu(program, images + state)
        assert run_ddc_kernel(probe, 400 * n + 10_000)
        _assert_engines_match(program, images=images + state,
                              max_instructions=400 * n + 10_000)

    def test_out_of_range_preloaded_widx_falls_back(self):
        """A preloaded FIR index outside the ring declines the kernel but
        still executes identically through the interpreter."""
        n = 336
        program, layout = generate_ddc_program(n_samples=n)
        x = np.zeros(n, dtype=np.int64)
        images = sorted(build_memory_image(layout, x).items())
        state = [(0x8000 + 12, [999])]
        probe = _fresh_cpu(program, images + state)
        assert not run_ddc_kernel(probe, 400 * n + 10_000)
        _assert_engines_match(program, images=images + state,
                              max_instructions=400 * n + 10_000)

    def test_profiler_fast_path_is_bit_identical(self):
        """profile_ddc(engine='auto') == the seed interpreter output."""
        from repro.archs.gpp import profile_ddc

        fast = profile_ddc(n_samples=2688, engine="auto")
        slow = profile_ddc(n_samples=2688, engine="interp")
        assert _stats_tuple(fast.stats) == _stats_tuple(slow.stats)
        assert fast.region_fractions == slow.region_fractions
        np.testing.assert_array_equal(fast.out_samples, slow.out_samples)

    def test_block_discovery_covers_program(self):
        program, _ = generate_ddc_program(n_samples=16)
        blocks = discover_blocks(program)
        covered = sorted(
            pc for b in blocks for pc in range(b.start, b.end)
        )
        assert covered == list(range(len(program)))


class TestWordMemoryBoundary:
    """Regression tests for the load/read/store coercion fix."""

    def test_negative_addresses_do_not_alias(self):
        mem = WordMemory(capacity=64)
        mem.write(63, 111)
        mem.write(-1, 222)
        assert mem.read(63) == 111
        assert mem.read(-1) == 222
        assert mem.nonzero_items() == {63: 111, -1: 222}

    def test_str_negative_address_roundtrips_through_ldr(self):
        src = """
          mov r1, #-5
          mov r2, #77
          str r2, [r1]
          ldr r3, [r1]
          halt
        """
        program = assemble(src)
        cpu = CPU(program)
        cpu.run()
        assert cpu.regs[3] == 77
        assert cpu.read_memory(-5) == 77
        # and the word did not land at any wrapped/aliased address
        assert cpu.read_memory(cpu.memory.capacity - 5) == 0

    def test_values_wrapped_once_at_the_boundary(self):
        mem = WordMemory()
        mem.write(0, 2**31)  # wraps negative, same as load_memory
        mem.load(1, [2**31])
        assert mem.read(0) == mem.read(1) == -(2**31)
        mem.write(-3, np.int64(2**33 + 5))  # spill path wraps too
        assert mem.read(-3) == 5

    def test_bulk_load_grows_dense_array(self):
        mem = WordMemory(capacity=16)
        mem.write(100, 9)  # spills
        mem.load(90, list(range(20)))  # grows past both
        assert mem.capacity >= 110
        assert mem.read(100) == 10  # load overwrote the spilled word
        assert mem._spill == {}

    def test_bulk_load_beyond_dense_cap_stays_sparse(self):
        """A load at a huge base must not allocate a huge dense array."""
        mem = WordMemory(capacity=16)
        mem.load(1 << 30, [5, 6])
        assert mem.capacity == 16  # unchanged — no gigabyte zero-fill
        assert mem.read((1 << 30) + 1) == 6
        assert mem.nonzero_items() == {1 << 30: 5, (1 << 30) + 1: 6}

    def test_numpy_scalars_normalised(self):
        mem = WordMemory()
        mem.write(np.int64(5), np.int64(-7))
        assert mem.read(np.int64(5)) == -7
        assert mem.read(5) == -7


_MAX_DENSE = WordMemory.MAX_DENSE_WORDS


@st.composite
def bulk_loads(draw):
    """A memory's prior writes plus one bulk load: dense, growing,
    spilling (negative base) or beyond the dense cap, from an integer
    array of several dtypes or a Python-int list (any magnitude)."""
    capacity = draw(st.sampled_from([1, 16, 64]))
    kind = draw(st.sampled_from(["int8", "int32", "int64", "uint64", "list"]))
    n = draw(st.integers(0, 40))
    if kind == "list":
        values = draw(st.lists(st.integers(-(2**80), 2**80),
                               min_size=n, max_size=n))
    else:
        dtype = np.dtype(kind)
        info = np.iinfo(dtype)
        ints = st.integers(int(info.min), int(info.max)) | st.sampled_from(
            [int(info.min), int(info.max), 0, -1 if info.min else 1])
        values = np.array(draw(st.lists(ints, min_size=n, max_size=n)),
                          dtype=dtype)
    base = draw(st.one_of(
        st.integers(0, capacity),                  # dense / growing
        st.integers(capacity, 200),                # growing past spills
        st.integers(-60, -1),                      # spilling
        # straddling or beyond the dense cap (a load ending at or below
        # the cap would grow a 4 Mi-word array: correct, but slow here)
        st.integers(_MAX_DENSE - n + 1, _MAX_DENSE + 30),
    ))
    prior = draw(st.lists(
        st.tuples(st.integers(-70, 260), st.integers(-(2**40), 2**40)),
        max_size=6,
    ))
    return capacity, prior, base, values


class TestWordMemoryBulkLoad:
    @settings(max_examples=150, deadline=None)
    @given(case=bulk_loads())
    def test_load_equals_a_loop_of_writes(self, case):
        """``load`` is ``write`` per word, after the dense array grows
        to cover the load (when it stays within ``MAX_DENSE_WORDS``)."""
        capacity, prior, base, values = case
        fast, slow = WordMemory(capacity), WordMemory(capacity)
        for addr, value in prior:
            fast.write(addr, value)
            slow.write(addr, value)
        fast.load(base, values)
        end = base + len(values)
        if base >= 0 and slow.capacity < end <= _MAX_DENSE:
            slow._grow(end)
        for i, v in enumerate(values):
            slow.write(base + i, v)
        assert fast.nonzero_items() == slow.nonzero_items()
        assert fast.capacity == slow.capacity
        for i in range(len(values)):
            got = fast.read(base + i)
            assert got == slow.read(base + i) and type(got) is int


# --------------------------------------------------------------------------
# 6. Montium block engine vs the stepped tile
# --------------------------------------------------------------------------

from repro.archs.montium import MontiumTile, build_ddc_schedule, run_ddc_on_tile
from repro.archs.montium.ddc_mapping import _load_tile
from repro.dsp.firdesign import reference_fir_taps


def _fresh_tile(samples):
    cfg = REFERENCE_DDC
    fir_rate = cfg.input_rate_hz / (16 * 21)
    taps = reference_fir_taps(cfg.fir_taps, fir_rate, cfg.output_rate_hz)
    program = build_ddc_schedule(cfg)
    tile = MontiumTile()
    _load_tile(tile, cfg, np.asarray(taps))
    tile.load_inputs([int(v) for v in samples])
    return tile, program


def _tile_state(tile):
    return {
        "env": dict(tile.env),
        "outputs": list(tile.outputs),
        "cycle": tile.cycle,
        "in_pos": tile._in_pos,
        "busy": {k: dict(v) for k, v in tile.busy_cycles.items()},
        "alus": [(a.ops_executed, a.mul_count) for a in tile.alus],
        "mems": {
            m.name: (list(m._data), m.addr, m.reads, m.writes)
            for m in tile.memories.values()
        },
        "util": tile.alu_utilisation(),
    }


montium_samples = st.lists(
    st.integers(-2048, 2047), min_size=1, max_size=1200
)


class TestMontiumBlockEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(samples=montium_samples,
           cuts=st.lists(st.integers(0, 10_000), max_size=4))
    def test_block_splits_match_stepped(self, samples, cuts):
        """Arbitrary sample blocks, arbitrary (odd) split points."""
        stepped, prog_a = _fresh_tile(samples)
        stepped.run(prog_a, len(samples))

        blocked, prog_b = _fresh_tile(samples)
        for part in _split(np.asarray(samples, dtype=np.int64), cuts):
            blocked.process_block(prog_b, len(part))
        assert _tile_state(blocked) == _tile_state(stepped)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 900), k=st.integers(1, 899))
    def test_step_then_block_resumes_mid_macro(self, n, k):
        """Stepping and block mode interleave on one tile."""
        k = min(k, n)
        stepped, prog_a = _fresh_tile(range(n))
        stepped.run(prog_a, n)

        mixed, prog_b = _fresh_tile(range(n))
        mixed.run(prog_b, k)          # oracle up to an arbitrary cycle
        mixed.process_block(prog_b, n - k)  # fast path for the rest
        assert _tile_state(mixed) == _tile_state(stepped)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 3 * 2688), max_size=5))
    def test_three_output_periods_array_and_list_inputs(self, seed, cuts):
        """Three output periods (24 FIR events, 3 outputs per rail) split
        at arbitrary points, fed as an int64 array and as a list."""
        n = 3 * 2688
        x = np.random.default_rng(seed).integers(-2048, 2048, n)
        stepped, prog = _fresh_tile(x)
        stepped.run(prog, n)
        expected = _tile_state(stepped)
        for samples in (x.astype(np.int64), x.tolist()):
            blocked, prog_b = _fresh_tile([])
            blocked.load_inputs(samples)
            for part in _split(x, cuts):
                blocked.process_block(prog_b, len(part))
            assert _tile_state(blocked) == expected

    @pytest.mark.parametrize("n_i, n_q, lead", [(37, 6, 0), (5, 800, 9),
                                                (1, 2, 343)])
    def test_fir_window_from_preloaded_state(self, n_i, n_q, lead):
        """A window entered with non-zero FIR sample counters (the I and Q
        rails out of phase), non-zero partial sums and a pending FIR
        input, after ``lead`` stepped cycles."""
        n = 3 * 2688
        rng = np.random.default_rng(n_i)
        x = rng.integers(-2048, 2048, n)
        tiles = []
        for _ in range(2):
            tile, prog = _fresh_tile(x)
            tile.env["fir_I.n"], tile.env["fir_Q.n"] = n_i, n_q
            tile.env["env:c5out_I"], tile.env["env:c5out_Q"] = 1234, -777
            for mem in ("mem3_2", "mem4_2"):
                tile.memories[mem].load(
                    np.random.default_rng(7).integers(-2**15, 2**15, 20))
            tile.run(prog, lead)
            tiles.append(tile)
        tiles[0].run(prog, n - lead)
        tiles[1].process_block(prog, n - lead)
        assert _tile_state(tiles[1]) == _tile_state(tiles[0])

    def test_full_run_matches_and_emits(self):
        cfg = REFERENCE_DDC
        n = 2688 * 3
        x = quantize_to_adc(
            tone(n, cfg.nco_frequency_hz + 5e3, cfg.input_rate_hz, 0.8), 12
        )
        blk = run_ddc_on_tile(x, engine="block")
        stp = run_ddc_on_tile(x, engine="step")
        np.testing.assert_array_equal(blk.i, stp.i)
        np.testing.assert_array_equal(blk.q, stp.q)
        assert blk.cycles == stp.cycles == n
        assert blk.tile.alu_utilisation() == stp.tile.alu_utilisation()

    def test_underrun_falls_back_to_stepped_error(self):
        """Asking for more cycles than inputs raises exactly as stepping
        does — at the cycle the stream runs dry."""
        tile, prog = _fresh_tile([1, 2, 3])
        with pytest.raises(SimulationError):
            tile.process_block(prog, 10)
        assert tile.cycle == 3  # three cycles completed before the stall

    def test_non_ddc_program_falls_back(self):
        from repro.archs.montium import ALUOp
        from repro.archs.montium.alu import Level1Fn
        from repro.archs.montium.program import TileProgram

        tile = MontiumTile()
        op = ALUOp("copy", level1=(Level1Fn.PASS_A,),
                   sources=("ext:in",), dests=("ext:out",))
        tile.load_inputs([7, 8, 9])
        tile.process_block(TileProgram([{0: op}]), 3)
        assert tile.outputs == [7, 8, 9]

    def test_measured_occupancy_matches_static_in_block_mode(self):
        from repro.archs.montium.schedule import (
            analyze_schedule,
            measured_occupancy,
        )

        n = 2688 * 2
        x = np.arange(n) % 1000 - 500
        res = run_ddc_on_tile(x.astype(np.int64), engine="block")
        static = analyze_schedule(res.program)
        dynamic = measured_occupancy(res.tile)
        for row in static.rows:
            got = dynamic.by_label(row.label)
            assert got.n_alus == row.n_alus
            assert got.percent_of_time == pytest.approx(
                row.percent_of_time, abs=0.2
            )

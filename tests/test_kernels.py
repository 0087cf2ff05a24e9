"""Tests for the compiled hot-kernel tier (``repro.kernels``).

Every fast tier must be bit-identical to its python oracle — outputs
*and* carried state — under arbitrary block splits of the input stream.
The Hypothesis suites here are that pin.  The dispatch layer, the
``REPRO_KERNELS`` environment variable and the generated
``Simulator.step`` loop are covered alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.cic import FixedCICDecimator
from repro.dsp.ddc import FixedDDC
from repro.dsp.fir import FixedPolyphaseDecimator
from repro.dsp.nco import NCO, NCOMode
from repro.errors import ConfigurationError
from repro.kernels import dispatch
from repro.simkernel import ClockDomain, Component, Simulator
from repro.simkernel.trace import WaveTrace

#: The non-python tiers.
FAST_ENGINES = ("fused",)


def split_blocks(x: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    """Split ``x`` at the given fractional cut points (may create empties)."""
    idx = sorted({int(c * len(x)) for c in cuts})
    return np.split(x, idx)


# ------------------------------------------------------------------ dispatch
class TestDispatch:
    def test_registered_tiers(self):
        for prim in ("nco", "cic", "fir", "fixed_ddc", "sim_step"):
            tiers = dispatch.registered(prim)
            assert "python" in tiers
            assert "fused" in tiers

    def test_explicit_engine_wins(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        assert dispatch.resolve("cic", "fused") == "fused"

    def test_env_single_engine(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        assert dispatch.resolve("cic") == "python"
        assert dispatch.resolve("fir") == "python"

    def test_env_per_primitive_override(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python,cic=fused")
        assert dispatch.resolve("cic") == "fused"
        assert dispatch.resolve("fir") == "python"

    def test_env_default_auto(self, monkeypatch):
        monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
        assert dispatch.resolve("cic") == "fused"

    def test_env_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "turbo")
        with pytest.raises(ConfigurationError):
            dispatch.resolve("cic")

    def test_unknown_explicit_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            dispatch.resolve("cic", "turbo")

    def test_fused_degrades_to_python_when_unregistered(self):
        assert dispatch.resolve("no_such_primitive", "fused") == "python"

    def test_kernel_lookup_unregistered(self):
        with pytest.raises(ConfigurationError):
            dispatch.kernel("cic", "python")

    def test_env_var_reaches_process_call(self, monkeypatch, rng):
        # REPRO_KERNELS=python must make the default call run the oracle;
        # outputs are identical either way, so pin via resolve + a smoke run.
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        cic = FixedCICDecimator(2, 16, input_width=12)
        x = rng.integers(-2048, 2048, 320)
        y_default = cic.process(x)
        cic2 = FixedCICDecimator(2, 16, input_width=12)
        y_forced = cic2.process(x, engine="fused")
        assert np.array_equal(y_default, y_forced)


    def test_select_has_no_side_effects(self):
        before = dispatch.dispatch_counts()
        assert dispatch.select("cic", "auto") == "fused"
        assert dispatch.active_engines()
        assert dispatch.dispatch_counts() == before
        dispatch.resolve("cic", "auto")
        assert dispatch.dispatch_counts()[("cic", "fused")] == (
            before.get(("cic", "fused"), 0) + 1
        )


# ------------------------------------------------------------------- NCO
class TestNCOKernels:
    @given(
        fcw_hz=st.floats(min_value=-30e6, max_value=30e6),
        phase_bits=st.integers(min_value=8, max_value=40),
        lut_addr_bits=st.integers(min_value=2, max_value=8),
        amp=st.one_of(st.none(), st.integers(min_value=4, max_value=16)),
        cuts=st.lists(
            st.floats(min_value=0, max_value=1), min_size=0, max_size=4
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_split_bit_identity(
        self, fcw_hz, phase_bits, lut_addr_bits, amp, cuts
    ):
        kw = dict(
            sample_rate_hz=64.512e6,
            frequency_hz=fcw_hz,
            phase_bits=phase_bits,
            lut_addr_bits=lut_addr_bits,
            amplitude_bits=amp,
            mode=NCOMode.LUT,
        )
        n = 257
        x = np.empty(n)  # only the length matters for splitting
        blocks = split_blocks(x, cuts)
        ref = NCO(**kw)
        cos_ref, sin_ref = ref.generate(n, engine="python")
        for engine in FAST_ENGINES:
            fast = NCO(**kw)
            cos_parts, sin_parts = [], []
            for b in blocks:
                c, s = fast.generate(len(b), engine=engine)
                cos_parts.append(c)
                sin_parts.append(s)
            assert np.array_equal(np.concatenate(cos_parts), cos_ref), engine
            assert np.array_equal(np.concatenate(sin_parts), sin_ref), engine
            assert fast._phase_acc == ref._phase_acc, engine

    def test_taylor_mode_never_dispatches(self):
        nco = NCO(1e6, 1e5, mode=NCOMode.TAYLOR)
        c1, s1 = nco.generate(64, engine="fused")
        ref = NCO(1e6, 1e5, mode=NCOMode.TAYLOR)
        c2, s2 = ref.generate(64, engine="python")
        assert np.array_equal(c1, c2) and np.array_equal(s1, s2)

    def test_degenerate_phase_bits_uses_oracle(self):
        # phase_bits < lut_addr_bits would make the shift negative; the
        # class must route such configs to the oracle path unconditionally.
        nco = NCO(1e6, 1e5, phase_bits=4, lut_addr_bits=6)
        ref = NCO(1e6, 1e5, phase_bits=4, lut_addr_bits=6)
        c1, s1 = nco.generate(32, engine="fused")
        c2, s2 = ref.generate(32, engine="python")
        assert np.array_equal(c1, c2) and np.array_equal(s1, s2)

    def test_negative_n_rejected(self):
        nco = NCO(1e6, 1e5)
        for engine in ("python",) + FAST_ENGINES:
            with pytest.raises(ConfigurationError):
                nco.generate(-1, engine=engine)


# ------------------------------------------------------------------- CIC
class TestCICKernels:
    @given(
        order=st.integers(min_value=1, max_value=6),
        decimation=st.integers(min_value=1, max_value=24),
        diff_delay=st.integers(min_value=1, max_value=3),
        input_width=st.integers(min_value=4, max_value=16),
        n=st.integers(min_value=0, max_value=400),
        cuts=st.lists(
            st.floats(min_value=0, max_value=1), min_size=0, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_split_bit_identity(
        self, order, decimation, diff_delay, input_width, n, cuts, seed
    ):
        kw = dict(
            order=order,
            decimation=decimation,
            diff_delay=diff_delay,
            input_width=input_width,
        )
        try:
            ref = FixedCICDecimator(**kw)
        except ConfigurationError:
            return  # internal width beyond the int64-safe range
        lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
        x = np.random.default_rng(seed).integers(lo, hi + 1, n)
        y_ref = ref.process(x, engine="python")
        for engine in FAST_ENGINES:
            fast = FixedCICDecimator(**kw)
            parts = [
                fast.process(b, engine=engine) for b in split_blocks(x, cuts)
            ]
            y = (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.int64)
            )
            assert np.array_equal(y, y_ref), engine
            assert np.array_equal(fast._int_state, ref._int_state), engine
            assert np.array_equal(fast._comb_state, ref._comb_state), engine
            assert fast._phase == ref._phase, engine

    def test_narrow_int32_path_covers_reference_cic2(self):
        # CIC2 of the reference chain runs the int32 work buffer.
        cic = FixedCICDecimator(2, 16, input_width=12)
        assert cic.internal_width <= 32

    def test_wide_int64_path_covers_reference_cic5(self):
        cic = FixedCICDecimator(5, 21, input_width=12)
        assert cic.internal_width > 32

    def test_out_of_range_input_rejected(self):
        cic = FixedCICDecimator(2, 16, input_width=12)
        for engine in ("python",) + FAST_ENGINES:
            with pytest.raises(ConfigurationError):
                cic.process(np.array([5000]), engine=engine)
            with pytest.raises(ConfigurationError):
                cic.process(np.array([0.5]), engine=engine)


# ------------------------------------------------------------------- FIR
class TestFIRKernels:
    @given(
        n_taps=st.integers(min_value=1, max_value=48),
        decimation=st.integers(min_value=1, max_value=12),
        data_width=st.integers(min_value=4, max_value=16),
        n=st.integers(min_value=0, max_value=400),
        cuts=st.lists(
            st.floats(min_value=0, max_value=1), min_size=0, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_split_bit_identity(
        self, n_taps, decimation, data_width, n, cuts, seed
    ):
        rng = np.random.default_rng(seed)
        lo, hi = -(1 << (data_width - 1)), (1 << (data_width - 1)) - 1
        taps = rng.integers(lo, hi + 1, n_taps)
        kw = dict(
            taps_raw=taps,
            decimation=decimation,
            data_width=data_width,
            coeff_width=data_width,
        )
        ref = FixedPolyphaseDecimator(**kw)
        x = rng.integers(lo, hi + 1, n)
        y_ref = ref.process(x, engine="python")
        for engine in FAST_ENGINES:
            fast = FixedPolyphaseDecimator(**kw)
            parts = [
                fast.process(b, engine=engine) for b in split_blocks(x, cuts)
            ]
            y = (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.int64)
            )
            assert np.array_equal(y, y_ref), engine
            assert np.array_equal(fast._hist, ref._hist), engine
            assert fast._offset == ref._offset, engine

    def test_out_of_range_input_rejected(self):
        fir = FixedPolyphaseDecimator(np.array([1, 2, 3]), 2)
        for engine in ("python",) + FAST_ENGINES:
            with pytest.raises(ConfigurationError):
                fir.process(np.array([1 << 14]), engine=engine)


# ------------------------------------------------------------------- DDC
class TestDDCKernels:
    @given(
        n=st.integers(min_value=0, max_value=2000),
        cuts=st.lists(
            st.floats(min_value=0, max_value=1), min_size=0, max_size=3
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_block_split_bit_identity(self, n, cuts, seed):
        x = np.random.default_rng(seed).integers(-2048, 2048, n)
        ref = FixedDDC()
        i_ref, q_ref = ref.process(x, engine="python")
        for engine in FAST_ENGINES:
            fast = FixedDDC()
            i_parts, q_parts = [], []
            for b in split_blocks(x, cuts):
                i_b, q_b = fast.process(b, engine=engine)
                i_parts.append(i_b)
                q_parts.append(q_b)
            assert np.array_equal(np.concatenate(i_parts), i_ref), engine
            assert np.array_equal(np.concatenate(q_parts), q_ref), engine
            # Full carried state of every stage must match the oracle's.
            assert fast.nco._phase_acc == ref.nco._phase_acc, engine
            for name in (
                "cic2_i", "cic2_q", "cic5_i", "cic5_q",
            ):
                sf, sr = getattr(fast, name), getattr(ref, name)
                assert np.array_equal(sf._int_state, sr._int_state), engine
                assert np.array_equal(sf._comb_state, sr._comb_state), engine
                assert sf._phase == sr._phase, engine
            for name in ("fir_i", "fir_q"):
                sf, sr = getattr(fast, name), getattr(ref, name)
                assert np.array_equal(sf._hist, sr._hist), engine
                assert sf._offset == sr._offset, engine

    def test_interop_with_oracle_stream(self, rng):
        # Alternating tiers mid-stream must be seamless: the kernels
        # read/write the same carried state as the oracle.
        a, b = FixedDDC(), FixedDDC()
        engines = ["python", "fused", "python", "fused"]
        blocks = [rng.integers(-2048, 2048, 700) for _ in engines]
        for blk, eng in zip(blocks, engines):
            ia, qa = a.process(blk, engine=eng)
            ib, qb = b.process(blk, engine="python")
            assert np.array_equal(ia, ib)
            assert np.array_equal(qa, qb)

    def test_out_of_range_input_rejected(self):
        ddc = FixedDDC()
        for engine in ("python",) + FAST_ENGINES:
            with pytest.raises(ConfigurationError):
                ddc.process(np.array([4096]), engine=engine)
            with pytest.raises(ConfigurationError):
                ddc.process(np.array([0.5]), engine=engine)


# ------------------------------------------------------------ sim_step loop
class _Counter(Component):
    def __init__(self, name, out, mod):
        super().__init__(name)
        self.out = out
        self.mod = mod
        self.v = 0

    def tick(self, cycle):
        self.v = (self.v + 1) % self.mod
        self.out.drive(self.v - self.mod // 2, self.name)

    def reset(self):
        self.v = 0


class _Sometimes(Component):
    """Drives only every ``k``-th cycle — exercises the hold path."""

    def __init__(self, name, out, k):
        super().__init__(name)
        self.out = out
        self.k = k

    def tick(self, cycle):
        if cycle % self.k == 0:
            self.out.drive(cycle % 2, self.name)


class _Bomb(Component):
    def __init__(self, name, at):
        super().__init__(name)
        self.at = at

    def tick(self, cycle):
        if cycle == self.at:
            raise RuntimeError("boom")


def _build_pair(activity=True, trace=False, idle=3):
    sims = []
    for _ in range(2):
        sim = Simulator(ClockDomain("clk", 1e6), activity=activity)
        for i in range(4):
            sim.add(_Counter(f"c{i}", sim.wire(f"w{i}", 8), 13 + i))
        sim.add(_Sometimes("s", sim.wire("sw", 1), 3))
        for i in range(idle):
            sim.wire(f"idle{i}", 16)
        if trace:
            sim.attach_trace(WaveTrace([sim.wires["w0"], sim.wires["sw"]]))
        sims.append(sim)
    sims[0].compile(engine="python")
    sims[1].compile(engine="fused")
    return sims


class TestSimStepKernel:
    @pytest.mark.parametrize("activity", [True, False])
    @pytest.mark.parametrize("trace", [True, False])
    def test_generated_loop_matches_tuple_plan(self, activity, trace):
        ref, fast = _build_pair(activity=activity, trace=trace)
        assert ref._plan is not None and ref._step_fn is None
        assert fast._step_fn is not None and fast._plan is None
        for cycles in (997, 0, 3, 1):
            ref.step(cycles)
            fast.step(cycles)
        assert ref.cycle == fast.cycle
        for name, wr in ref.wires.items():
            wf = fast.wires[name]
            assert wf.value == wr.value, name
            assert wf.commits == wr.commits, name
            assert wf.toggles == wr.toggles, name
        if trace:
            tr, tf = ref._traces[0], fast._traces[0]
            assert tr.cycles == tf.cycles
            for name in ("w0", "sw"):
                assert tr.values(name) == tf.values(name)

    def test_mid_cycle_exception_not_counted(self):
        for engine in ("python", "fused"):
            sim = Simulator(ClockDomain("clk", 1e6))
            w = sim.wire("w", 8)
            sim.add(_Counter("c", w, 5))
            sim.add(_Bomb("b", 7))
            sim.compile(engine=engine)
            with pytest.raises(RuntimeError):
                sim.step(20)
            assert sim.cycle == 7, engine
            assert w.commits == 7, engine

    def test_assembly_invalidates_generated_loop(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        w = sim.wire("w", 8)
        sim.add(_Counter("c", w, 5))
        sim.compile(engine="fused")
        assert sim.compiled
        w2 = sim.wire("w2", 4)
        assert not sim.compiled
        sim.step(10)  # recompiles automatically, includes the new wire
        assert sim.cycle == 10
        assert w.commits == 10 and w2.commits == 10

    def test_activity_toggle_invalidates(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        sim.add(_Counter("c", sim.wire("w", 8), 5))
        sim.compile(engine="fused")
        sim.activity = False
        assert not sim.compiled
        sim.step(5)
        assert sim.cycle == 5

    def test_auto_dispatch_uses_generated_loop(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        sim.add(_Counter("c", sim.wire("w", 8), 5))
        sim.step(5)  # lazy compile under the default (auto) selector
        assert sim._step_fn is not None

    def test_env_python_keeps_tuple_plan(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        sim = Simulator(ClockDomain("clk", 1e6))
        sim.add(_Counter("c", sim.wire("w", 8), 5))
        sim.step(5)
        assert sim._plan is not None and sim._step_fn is None

    def test_empty_design(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        sim.compile(engine="fused")
        sim.step(10)
        assert sim.cycle == 10

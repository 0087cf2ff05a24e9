"""Tests for the cycle-driven simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.simkernel import ClockDomain, Component, Simulator, Wire, WaveTrace
from repro.simkernel.trace import ActivityReport, WireActivity


class Counter(Component):
    """Test component: increments its output wire every cycle."""

    def __init__(self, name: str, out: Wire, step: int = 1) -> None:
        super().__init__(name)
        self.add_output("q", out)
        self._out_wire = out
        self.step_size = step

    def tick(self, cycle: int) -> None:
        nxt = self._out_wire.value + self.step_size
        # wrap manually within the width
        lo, hi = -(1 << (self._out_wire.width - 1)), (1 << (self._out_wire.width - 1)) - 1
        if nxt > hi:
            nxt = lo + (nxt - hi - 1)
        self.write("q", nxt)


class Follower(Component):
    """Test component: registers its input to its output (1-cycle delay)."""

    def __init__(self, name: str, inp: Wire, out: Wire) -> None:
        super().__init__(name)
        self.add_input("d", inp)
        self.add_output("q", out)

    def tick(self, cycle: int) -> None:
        self.write("q", self.read("d"))


class TestClockDomain:
    def test_invalid_frequency(self):
        with pytest.raises(Exception):
            ClockDomain("bad", 0.0)

    def test_negative_frequency_names_the_clock(self):
        with pytest.raises(ConfigurationError, match="clock 'bad'"):
            ClockDomain("bad", -64.512e6)


class TestWire:
    def test_initial_value(self):
        w = Wire("w", 12)
        assert w.value == 0

    def test_drive_commit(self):
        w = Wire("w", 12)
        w.drive(100)
        assert w.value == 0  # not yet committed
        w.commit()
        assert w.value == 100

    def test_hold_without_drive(self):
        w = Wire("w", 12, reset_value=7)
        w.commit()
        assert w.value == 7

    def test_double_drive_rejected(self):
        w = Wire("w", 12)
        w.drive(1, "a")
        with pytest.raises(SimulationError):
            w.drive(2, "b")

    def test_out_of_range_rejected(self):
        w = Wire("w", 4)
        with pytest.raises(SimulationError):
            w.drive(8)

    def test_single_bit_range(self):
        w = Wire("valid", 1)
        w.drive(1)
        w.commit()
        assert w.value == 1
        with pytest.raises(SimulationError):
            w.drive(2)

    def test_toggle_counting(self):
        w = Wire("w", 4)
        w.drive(0b0101)
        w.commit()  # 0000 -> 0101: 2 toggles
        w.drive(0b0110)
        w.commit()  # 0101 -> 0110: 2 toggles
        assert w.toggles == 4
        assert w.commits == 2
        assert w.toggle_rate == pytest.approx(4 / (2 * 4))

    def test_toggle_counting_negative_values(self):
        w = Wire("w", 4)
        w.drive(-1)  # 1111
        w.commit()
        assert w.toggles == 4

    def test_reset(self):
        w = Wire("w", 4, reset_value=3)
        w.drive(5)
        w.commit()
        w.reset()
        assert w.value == 3 and w.toggles == 0 and w.commits == 0

    def test_width_bounds(self):
        with pytest.raises(SimulationError):
            Wire("w", 0)
        with pytest.raises(SimulationError):
            Wire("w", 65)


class TestSimulator:
    def _sim(self):
        return Simulator(ClockDomain("clk", 1e6))

    def test_counter_counts(self):
        sim = self._sim()
        q = sim.wire("q", 16)
        sim.add(Counter("ctr", q))
        sim.step(5)
        assert q.value == 5

    def test_follower_delays_one_cycle(self):
        sim = self._sim()
        a = sim.wire("a", 16)
        b = sim.wire("b", 16)
        sim.add(Counter("ctr", a))
        sim.add(Follower("fol", a, b))
        sim.step(3)
        assert a.value == 3
        assert b.value == 2  # one cycle behind

    def test_component_order_does_not_matter(self):
        """Two-phase update: registering fol before ctr gives same result."""
        sim = self._sim()
        a = sim.wire("a", 16)
        b = sim.wire("b", 16)
        sim.add(Follower("fol", a, b))
        sim.add(Counter("ctr", a))
        sim.step(3)
        assert (a.value, b.value) == (3, 2)

    def test_duplicate_wire_rejected(self):
        sim = self._sim()
        sim.wire("w", 4)
        with pytest.raises(SimulationError):
            sim.wire("w", 4)

    def test_duplicate_component_rejected(self):
        sim = self._sim()
        q = sim.wire("q", 8)
        q2 = sim.wire("q2", 8)
        sim.add(Counter("c", q))
        with pytest.raises(SimulationError):
            sim.add(Counter("c", q2))

    def test_unconnected_read_raises(self):
        class Bad(Component):
            def tick(self, cycle):
                self.read("nope")

        sim = self._sim()
        sim.add(Bad("bad"))
        with pytest.raises(SimulationError):
            sim.step()

    def test_reset(self):
        sim = self._sim()
        q = sim.wire("q", 16)
        sim.add(Counter("ctr", q))
        sim.step(5)
        sim.reset()
        assert sim.cycle == 0 and q.value == 0
        sim.step(2)
        assert q.value == 2

    def test_negative_step_rejected(self):
        sim = self._sim()
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        with pytest.raises(SimulationError, match="cycles must be >= 0"):
            sim.step(-1)
        assert sim.cycle == 0 and q.value == 0

    def test_zero_step_is_a_no_op(self):
        sim = self._sim()
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        sim.step(0)
        assert sim.cycle == 0 and q.value == 0 and q.commits == 0

    def test_wires_and_components_are_copies(self):
        sim = self._sim()
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        sim.wires.clear()
        sim.components.clear()
        assert list(sim.wires) == ["q"] and list(sim.components) == ["ctr"]

    @pytest.mark.parametrize("engine", ["python", "fused"])
    def test_activity_off_counts_commits_not_toggles(self, engine):
        sim = Simulator(ClockDomain("clk", 1e6), activity=False)
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        sim.compile(engine)
        sim.step(6)
        assert q.value == 6
        assert (q.commits, q.toggles) == (6, 0)

    def test_activity_setter_recompiles(self):
        sim = self._sim()
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        sim.step(2)
        toggles = q.toggles
        assert toggles > 0 and sim.compiled
        sim.activity = False
        assert not sim.activity and not sim.compiled
        sim.step(2)
        assert q.toggles == toggles and q.commits == 4
        sim.activity = True
        sim.step(1)
        assert q.toggles > toggles

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 200))
    def test_cycle_count_matches(self, n):
        sim = self._sim()
        q = sim.wire("q", 32)
        sim.add(Counter("ctr", q))
        sim.step(n)
        assert sim.cycle == n and q.value == n


class TestTraceAndActivity:
    def test_wavetrace_records(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        trace = sim.attach_trace(WaveTrace([q]))
        sim.step(4)
        assert trace.values("q") == [1, 2, 3, 4]

    def test_wavetrace_records_cycle_numbers(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        trace = sim.attach_trace(WaveTrace([q]))
        sim.step(3)
        assert trace.cycles == [0, 1, 2]

    def test_simulator_reset_clears_trace(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        q = sim.wire("q", 8)
        sim.add(Counter("ctr", q))
        trace = sim.attach_trace(WaveTrace([q]))
        sim.step(3)
        sim.reset()
        assert trace.cycles == [] and trace.values("q") == []
        sim.step(2)
        assert trace.cycles == [0, 1] and trace.values("q") == [1, 2]

    def test_wavetrace_unknown_wire(self):
        trace = WaveTrace([Wire("a", 4)])
        with pytest.raises(SimulationError):
            trace.values("b")

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            WaveTrace([])

    def test_activity_report_counts(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        q = sim.wire("q", 8)
        idle = sim.wire("idle", 8)
        sim.add(Counter("ctr", q))
        sim.step(16)
        rep = sim.activity_report()
        assert rep.cycles == 16
        assert rep.by_name("idle").toggle_rate == 0.0
        assert rep.by_name("q").toggle_rate > 0.0
        assert 0.0 < rep.mean_toggle_rate < 1.0

    def test_activity_unknown_wire(self):
        rep = ActivityReport(cycles=0)
        with pytest.raises(SimulationError, match="'nope'"):
            rep.by_name("nope")

    def test_idle_activity_rates_are_zero(self):
        assert ActivityReport(cycles=0).mean_toggle_rate == 0.0
        assert WireActivity("w", 8, toggles=0, commits=0).toggle_rate == 0.0

    def test_mean_toggle_rate_is_bit_weighted(self):
        rep = ActivityReport(cycles=10, wires=(
            WireActivity("narrow", 1, toggles=10, commits=10),
            WireActivity("wide", 9, toggles=0, commits=10),
        ))
        assert rep.by_name("narrow").toggle_rate == 1.0
        assert rep.mean_toggle_rate == pytest.approx(10 / 100)

    def test_activity_busiest(self):
        sim = Simulator(ClockDomain("clk", 1e6))
        fast = sim.wire("fast", 4)
        sim.wire("slow", 4)
        sim.add(Counter("ctr", fast))
        sim.step(8)
        rep = sim.activity_report()
        assert rep.busiest(1)[0].name == "fast"

    def test_counter_lsb_toggle_rate(self):
        """A binary counter toggles ~2 bits/cycle -> rate ~2/width."""
        sim = Simulator(ClockDomain("clk", 1e6))
        q = sim.wire("q", 16)
        sim.add(Counter("ctr", q))
        sim.step(1024)
        rate = sim.activity_report().by_name("q").toggle_rate
        assert rate == pytest.approx(2 / 16, rel=0.05)

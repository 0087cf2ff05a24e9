"""The cycle-driven simulator.

:class:`Simulator` owns one clock domain, a set of wires and a set of
components.  :meth:`Simulator.step` advances one clock edge in two phases:

1. evaluate — every component's ``tick`` runs, reading committed wire
   values and scheduling next values;
2. commit — every wire latches its next value and updates toggle counts.

The kernel is deliberately small: all behaviour lives in components, all
observability in wires and traces.

Execution speed
---------------
``step`` is the hot loop of every RTL run (one Python iteration per clock
edge), so the simulator *compiles* itself before running: the component
``tick`` and wire ``commit`` bound methods are snapshotted into flat tuples
(:meth:`compile`), removing all per-cycle dict iteration and attribute
lookups.  The compiled plan is built lazily on first ``step`` and
invalidated automatically whenever a wire, component or trace is added, so
callers never have to manage it — but may call :meth:`compile` explicitly
after assembly to pay the (tiny) cost up front.

Activity tracing is opt-out-able: constructing with ``activity=False``
commits wires through a latching-only fast path that skips toggle counting
entirely.  Only power-model runs (the paper's Table 5) consume toggle
statistics; functional and throughput runs should switch it off.
"""

from __future__ import annotations


from ..errors import SimulationError
from .clock import ClockDomain
from .component import Component
from .trace import ActivityReport, WaveTrace
from .wire import Wire


class Simulator:
    """Synchronous single-clock simulator."""

    def __init__(self, clock: ClockDomain, activity: bool = True) -> None:
        self.clock = clock
        self._wires: dict[str, Wire] = {}
        self._components: dict[str, Component] = {}
        self._traces: list[WaveTrace] = []
        self._activity = bool(activity)
        self._plan: tuple[tuple, tuple, tuple] | None = None
        self._step_fn = None
        self.cycle = 0

    # ------------------------------------------------------------- assembly
    def wire(self, name: str, width: int = 1, reset_value: int = 0) -> Wire:
        """Create and register a wire (names must be unique)."""
        if name in self._wires:
            raise SimulationError(f"duplicate wire name {name!r}")
        w = Wire(name, width, reset_value)
        self._wires[name] = w
        self._invalidate()
        return w

    def _invalidate(self) -> None:
        self._plan = None
        self._step_fn = None

    def add(self, component: Component) -> Component:
        """Register a component (names must be unique)."""
        if component.name in self._components:
            raise SimulationError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component
        self._invalidate()
        return component

    def attach_trace(self, trace: WaveTrace) -> WaveTrace:
        """Record the given trace every cycle."""
        self._traces.append(trace)
        self._invalidate()
        return trace

    @property
    def wires(self) -> dict[str, Wire]:
        """Registered wires by name."""
        return dict(self._wires)

    @property
    def components(self) -> dict[str, Component]:
        """Registered components by name."""
        return dict(self._components)

    @property
    def activity(self) -> bool:
        """Whether wire toggle activity is being accumulated."""
        return self._activity

    @activity.setter
    def activity(self, enabled: bool) -> None:
        enabled = bool(enabled)
        if enabled != self._activity:
            self._activity = enabled
            self._invalidate()

    # ------------------------------------------------------------ compiling
    def compile(self, engine: str = "fused") -> "Simulator":
        """Snapshot the design into an executable step plan.

        Idempotent and safe to call at any time; assembly methods
        invalidate the plan so a stale snapshot can never run.

        ``engine`` selects the kernel tier (``python`` = the flat tuple
        plan below, ``fused`` = a generated single-function step loop with
        the latch bodies inlined, the default).  Both tiers are cycle- and
        state-identical, including partial-cycle semantics on a mid-cycle
        exception.
        """
        from .. import kernels

        if kernels.dispatch("sim_step", engine):
            from ..kernels.simloop import build_step_fn

            self._step_fn = build_step_fn(self)
            self._plan = None
            return self
        wires = tuple(self._wires.values())
        latches = (
            tuple(w._latch for w in wires)
            if self._activity
            else tuple(w._latch_no_activity for w in wires)
        )
        self._plan = (
            tuple(c.tick for c in self._components.values()),
            latches,
            wires,
        )
        self._step_fn = None
        return self

    @property
    def compiled(self) -> bool:
        """True while a current compiled plan exists."""
        return self._plan is not None or self._step_fn is not None

    # -------------------------------------------------------------- running
    def step(self, cycles: int = 1) -> None:
        """Advance ``cycles`` clock edges."""
        if cycles < 0:
            raise SimulationError("cycles must be >= 0")
        if self._plan is None and self._step_fn is None:
            self.compile()
        if self._step_fn is not None:
            self._step_fn(self, cycles)
            return
        assert self._plan is not None
        ticks, latches, wires = self._plan
        traces = self._traces
        cycle = self.cycle
        try:
            if traces:
                for _ in range(cycles):
                    for tick in ticks:
                        tick(cycle)
                    for latch in latches:
                        latch()
                    for t in traces:
                        t.sample(cycle)
                    cycle += 1
            else:
                for _ in range(cycles):
                    for tick in ticks:
                        tick(cycle)
                    for latch in latches:
                        latch()
                    cycle += 1
        finally:
            # On a mid-cycle exception the partially evaluated cycle is not
            # counted, matching the uncompiled per-cycle loop's behaviour.
            # Commit counters are bulk-added here (every wire commits every
            # completed cycle), which is what makes the latch loop cheap.
            done = cycle - self.cycle
            if done:
                for w in wires:
                    w.commits += done
            self.cycle = cycle

    def reset(self) -> None:
        """Reset wires, components, traces and the cycle counter."""
        for w in self._wires.values():
            w.reset()
        for c in self._components.values():
            c.reset()
        for t in self._traces:
            t.clear()
        self.cycle = 0

    # ---------------------------------------------------------------- stats
    def activity_report(self) -> ActivityReport:
        """Per-wire and aggregate toggle statistics for the run so far."""
        return ActivityReport.from_wires(self._wires.values(), self.cycle)

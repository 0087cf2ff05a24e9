"""Code-generated ``Simulator.step`` loop: the sim_step fused tier.

The tuple-plan loop the simulator compiles itself into (PR 1) still pays
one Python *call* per wire per cycle just to discover that most wires
were not driven.  This module generates a specialised step function for
one exact design instead: component ``tick`` bound methods and every
wire's latch body are flattened into a single Python function body
(wires unpacked into locals once per call, latch logic inlined with the
wire's width mask as a literal), then compiled with :func:`exec`.  The
per-cycle cost of an idle wire drops from a bound-method call to two
bytecode-level attribute loads and an ``is None`` test.

Semantics are identical to the tuple-plan loop by construction:

- two-phase evaluate/commit per cycle, ticks in registration order,
  latches in wire-registration order, traces sampled after commit;
- toggle accounting matches ``Wire._latch`` exactly (or is skipped for
  ``activity=False`` designs, matching ``Wire._latch_no_activity``);
- on a mid-cycle exception the partial cycle is not counted;
- ``commits`` counters are bulk-added for completed cycles only.

``tests/test_kernels.py`` pins the generated loop against the tuple
plan on randomised designs, including exception and trace paths.
"""

from __future__ import annotations

from typing import Callable

from ..simkernel.wire import _popcount

_ACTIVITY_LATCH = """\
            _n = {w}._next
            if _n is not None:
                _o = {w}.value
                if _n != _o:
                    {w}.toggles += _pc((_o ^ _n) & {mask})
                    {w}.value = _n
                {w}._next = None
                {w}._driver = None
"""

_PLAIN_LATCH = """\
            _n = {w}._next
            if _n is not None:
                {w}.value = _n
                {w}._next = None
                {w}._driver = None
"""


def build_step_fn(sim) -> Callable:
    """Compile a specialised ``step(sim, cycles)`` for ``sim``'s design.

    Snapshots the current components, wires, traces and activity mode —
    the caller (``Simulator.compile``) is responsible for invalidating
    the result when the design changes, exactly as for the tuple plan.
    """
    wires = tuple(sim._wires.values())
    ticks = tuple(c.tick for c in sim._components.values())
    traces = tuple(sim._traces)
    latch_tmpl = _ACTIVITY_LATCH if sim._activity else _PLAIN_LATCH

    lines = ["def _step(sim, cycles):"]
    if ticks:
        names = ", ".join(f"_t{i}" for i in range(len(ticks)))
        lines.append(f"    {names}{',' if len(ticks) == 1 else ''} = _ticks")
    if wires:
        names = ", ".join(f"_w{i}" for i in range(len(wires)))
        lines.append(f"    {names}{',' if len(wires) == 1 else ''} = _wires")
    if traces:
        names = ", ".join(f"_tr{i}" for i in range(len(traces)))
        lines.append(
            f"    {names}{',' if len(traces) == 1 else ''} = _traces"
        )
    lines.append("    cycle = sim.cycle")
    lines.append("    try:")
    lines.append("        for _ in range(cycles):")
    for i in range(len(ticks)):
        lines.append(f"            _t{i}(cycle)")
    for i, w in enumerate(wires):
        lines.append(
            latch_tmpl.format(w=f"_w{i}", mask=(1 << w.width) - 1).rstrip()
        )
    for i in range(len(traces)):
        lines.append(f"            _tr{i}.sample(cycle)")
    lines.append("            cycle += 1")
    lines.append("    finally:")
    lines.append("        done = cycle - sim.cycle")
    lines.append("        if done:")
    lines.append("            for _w in _wires:")
    lines.append("                _w.commits += done")
    lines.append("        sim.cycle = cycle")

    namespace = {
        "_ticks": ticks,
        "_wires": wires,
        "_traces": traces,
        "_pc": _popcount,
    }
    exec(compile("\n".join(lines), "<repro.kernels.simloop>", "exec"), namespace)
    return namespace["_step"]

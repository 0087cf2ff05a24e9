"""Benchmark runner: times the bit-true stack's fast paths against oracles.

The suite is the declarative :data:`BENCHES` table.  Each row's
``prepare(ctx)`` builds its inputs and returns the fast-path thunk plus,
where a seed-equivalent slow path still exists in-tree, a ``baseline``
thunk; :func:`run_dsp_suite` times both with :func:`time_fn`, which runs
a thunk ``repeats`` times after a warmup and keeps the *best* wall-clock
time (the standard way to suppress scheduler noise on shared machines).
The JSON thus records a true before/after pair instead of a single
unanchored number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import telemetry
from ..config import REFERENCE_DDC, DDCConfig
from ..dsp.cic import FixedCICDecimator
from ..dsp.ddc import DDC, FixedDDC
from ..dsp.fir import FixedPolyphaseDecimator
from ..dsp.firdesign import quantize_taps, reference_fir_taps
from ..dsp.nco import NCO
from ..dsp.signals import quantize_to_adc, tone
from ..errors import ConfigurationError
from ..simkernel import ClockDomain, Component, Simulator, Wire

#: The reference bench input: 32 full output periods, ~86k ADC samples.
FULL_SAMPLES = 2688 * 32
QUICK_SAMPLES = 2688 * 4


@dataclass
class BenchResult:
    """Throughput of one bench, with an optional seed-path baseline."""

    name: str
    samples_per_sec: float
    seconds: float
    repeats: int
    n_samples: int
    baseline_samples_per_sec: float | None = None
    baseline_seconds: float | None = None
    notes: str = ""
    #: What one "sample" counts (cycles, grid cells, ...); display only.
    unit: str = "samples/s"

    @property
    def speedup(self) -> float | None:
        """Throughput ratio vs the measured seed-equivalent path."""
        if not self.baseline_samples_per_sec:
            return None
        return self.samples_per_sec / self.baseline_samples_per_sec

    def to_json(self) -> dict:
        out = {
            "samples_per_sec": round(self.samples_per_sec, 3),
            "seconds": self.seconds,
            "repeats": self.repeats,
            "n_samples": self.n_samples,
        }
        if self.baseline_samples_per_sec is not None:
            out["baseline_samples_per_sec"] = round(
                self.baseline_samples_per_sec, 3
            )
            out["baseline_seconds"] = self.baseline_seconds
            out["speedup"] = round(self.speedup, 3)  # type: ignore[arg-type]
        if self.notes:
            out["notes"] = self.notes
        return out


def time_fn(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------- the suite
class _StepPlayer(Component):
    """Microbench component: a free-running counter on one bus.

    The output wire is cached and driven directly (no per-tick port
    lookup) so the bench isolates the scheduler + commit overhead that
    ``Simulator.step`` is responsible for.
    """

    def __init__(self, name: str, out: Wire) -> None:
        super().__init__(name)
        self._q = self.add_output("q", out)
        self._mask = (1 << (out.width - 1)) - 1

    def tick(self, cycle: int) -> None:
        self._q.drive(cycle & self._mask, self.name)


def _build_step_sim(n_chains: int = 8, n_idle: int = 24) -> Simulator:
    """A design with the RTL top level's shape: ~9 components, ~30 wires.

    The idle wires stand in for probe/valid buses that are only driven on
    a fraction of cycles — the commit-dominated regime the compiled fast
    path targets.
    """
    sim = Simulator(ClockDomain("clk", 64.512e6))
    for k in range(n_chains):
        sim.add(_StepPlayer(f"p{k}", sim.wire(f"w{k}", 16)))
    for k in range(n_idle):
        sim.wire(f"idle{k}", 16)
    return sim


def _seed_commit(w: Wire) -> None:
    """The seed's Wire.commit: unconditional mask/XOR/popcount per cycle."""
    new = w.value if w._next is None else w._next
    mask = (1 << w.width) - 1
    diff = (w.value ^ new) & mask
    w.toggles += diff.bit_count()
    w.commits += 1
    w.value = new
    w._next = None
    w._driver = None


def _seed_step(sim: Simulator, cycles: int) -> None:
    """The seed scheduler's per-cycle dict-iteration loop, for baselines."""
    for _ in range(cycles):
        for comp in sim._components.values():
            comp.tick(sim.cycle)
        for w in sim._wires.values():
            _seed_commit(w)
        sim.cycle += 1


# --------------------------------------------------------------- the table
@dataclass(frozen=True)
class Timed:
    """One side of a bench pair: a thunk, its samples per call, its timing."""

    fn: Callable[[], object]
    n_samples: int
    repeats: int
    warmup: int = 1


def _once(fn, n_samples: int) -> Timed:
    """A slow baseline: one unwarmed run is already long enough."""
    return Timed(fn, n_samples, repeats=1, warmup=0)


def _paired(fast, seed, n_samples: int, repeats: int) -> tuple[Timed, Timed]:
    """A fast path and a baseline timed alike over the same input."""
    return Timed(fast, n_samples, repeats), Timed(seed, n_samples, repeats)


@dataclass(frozen=True)
class BenchContext:
    """The shared inputs every ``prepare`` draws from."""

    quick: bool
    #: The input length of the unguarded benches and slow baselines.
    n: int
    #: Best-of repeats for the millisecond-scale vectorised benches: many
    #: repeats cost nothing and keep the committed pairs out of the noise.
    repeats: int
    #: Best-of repeats for the benches that cost tens of milliseconds.
    few: int
    cfg: DDCConfig
    #: The 86k-sample reference input, as a float tone and 12-bit ADC codes.
    xf_full: np.ndarray
    adc_full: np.ndarray

    @classmethod
    def build(cls, quick: bool) -> BenchContext:
        repeats = 3 if quick else 15
        cfg = REFERENCE_DDC
        xf = tone(FULL_SAMPLES, cfg.nco_frequency_hz + 5e3, cfg.input_rate_hz, 0.8)
        n = QUICK_SAMPLES if quick else FULL_SAMPLES
        return cls(quick, n, repeats, min(7, repeats), cfg, xf, quantize_to_adc(xf, 12))


@dataclass(frozen=True)
class Bench:
    """A row of :data:`BENCHES`; ``prepare`` returns the fast path and its
    baseline (``None`` where no seed-equivalent path exists)."""

    name: str
    prepare: Callable[[BenchContext], tuple[Timed, Timed | None]]
    notes: str
    guarded: bool = True
    unit: str = "samples/s"


# Every guarded bench runs its full reference input or grid even in
# --quick, so quick-mode CI numbers stay comparable to the committed file.
# Quick mode only shortens the unguarded benches and the slow baselines,
# whose throughput does not depend on the input length.
#
# The streaming benches' fast path is the fused kernel tier (the default
# engine); their baselines are the python oracles or frozen seed
# loops, pinned in seed_paths so later optimisation of the live
# primitives cannot drift them.  All are vectorised and cost milliseconds.
def _nco(ctx):
    args = (ctx.cfg.input_rate_hz, ctx.cfg.nco_frequency_hz)
    nco, nco_seed = NCO(*args), NCO(*args)
    fast = lambda: nco.generate(FULL_SAMPLES, engine="fused")
    seed = lambda: nco_seed.generate(FULL_SAMPLES, engine="python")
    return _paired(fast, seed, FULL_SAMPLES, ctx.repeats)


def _cic(ctx):
    from .seed_paths import seed_fixed_cic_process

    cic = FixedCICDecimator(2, 16, input_width=12)
    cic_seed = FixedCICDecimator(2, 16, input_width=12)
    fast = lambda: cic.process(ctx.adc_full, engine="fused")
    seed = lambda: seed_fixed_cic_process(cic_seed, ctx.adc_full)
    return _paired(fast, seed, FULL_SAMPLES, ctx.repeats)


def _fir(ctx):
    from .seed_paths import seed_fixed_fir_process

    # A realistic streaming block at the 384 kHz FIR stage rate.  The
    # seed harness used 500 samples, which is per-call-overhead dominated
    # (~45 us both paths) and made the pair noise; 10752 samples puts
    # both loops firmly in the vectorised regime.
    x = ctx.adc_full[: FULL_SAMPLES // 8]
    raw, fmt = quantize_taps(reference_fir_taps(), 12)
    fir = FixedPolyphaseDecimator(raw, 8, output_shift=max(0, fmt.frac))
    fir_seed = FixedPolyphaseDecimator(raw, 8, output_shift=max(0, fmt.frac))
    fast = lambda: fir.process(x, engine="fused")
    seed = lambda: seed_fixed_fir_process(fir_seed, x)
    return _paired(fast, seed, len(x), ctx.repeats)


def _ddc_gold(ctx):
    gold, xf = DDC(ctx.cfg), ctx.xf_full[: ctx.n]
    return Timed(lambda: gold.process(xf), ctx.n, ctx.repeats), None


def _fixed_ddc(ctx):
    fixed, fixed_seed = FixedDDC(ctx.cfg), FixedDDC(ctx.cfg)
    adc32 = ctx.adc_full.astype(np.int32)  # forces the seed's input copy
    fast = lambda: fixed.process(ctx.adc_full, engine="fused")
    seed = lambda: fixed_seed.process(adc32, engine="python")
    return _paired(fast, seed, FULL_SAMPLES, ctx.repeats)


def _rtl_ddc(ctx):
    # The RTL DDC's block engine vs the seed cycle-accurate path.
    from ..archs.fpga.rtl_ddc import RTLDDC

    block, cycle, adc = RTLDDC(ctx.cfg), RTLDDC(ctx.cfg), ctx.adc_full[: ctx.n]
    fast = lambda: (block.reset(), block.run(ctx.adc_full, engine="block"))
    seed = lambda: (cycle.reset(), cycle.run(adc))
    return Timed(fast, FULL_SAMPLES, ctx.few), _once(seed, ctx.n)


def _sim_step(ctx):
    # The Simulator.step microkernel: the code-generated fused step loop
    # vs the seed dict loop.  Units are clock cycles.
    cycles, base_cycles = 20_000, 2_000 if ctx.quick else 20_000
    sim, sim_seed = _build_step_sim(), _build_step_sim()
    sim.compile(engine="fused")
    fast = lambda: sim.step(cycles)
    seed = lambda: _seed_step(sim_seed, base_cycles)
    return Timed(fast, cycles, ctx.few), Timed(seed, base_cycles, ctx.few)


def _gpp_ddc(ctx):
    # The instruction-set simulation of the generated DDC program.  The
    # trace-compiled engine runs the full 2688-sample steady-state block
    # even in quick mode (the seed could only afford 336 there); the
    # baseline is the seed interpreter over the *same* input.
    from ..archs.gpp.profiler import profile_ddc

    n = 2688
    fast = lambda: profile_ddc(n_samples=n, engine="auto")
    seed = lambda: profile_ddc(n_samples=n, engine="interp")
    return Timed(fast, n, ctx.few), _once(seed, n)


def _montium_ddc(ctx):
    # The Montium tile DDC mapping, block engine vs the stepped tile.
    from ..archs.montium import run_ddc_on_tile

    x = ctx.adc_full[: 2688 * 8]
    x_seed = ctx.adc_full[: 2688 if ctx.quick else 2688 * 8]
    fast = lambda: run_ddc_on_tile(x, ctx.cfg, engine="block")
    seed = lambda: run_ddc_on_tile(x_seed, ctx.cfg, engine="step")
    return Timed(fast, len(x), ctx.few), _once(seed, len(x_seed))


def _scenario_sweep(ctx):
    # The batched duty-cycle x candidate grid of repro.sweep over the
    # 20001-step Table 7 grid vs the scalar Section 7 loop it replaced.
    # Units are grid cells (duty cycle x candidate).
    from ..energy.scenarios import ScenarioAnalysis
    from ..sweep import duty_cycle_grid
    from ..workloads import get

    ev = get("ddc").shared_evaluator()
    analysis = ScenarioAnalysis(ev.scenario_candidates(ctx.cfg))
    steps, base_steps = 20_001, 2_001 if ctx.quick else 20_001
    n_cand = len(analysis.candidates)
    fast = lambda: duty_cycle_grid(analysis, steps).winners()
    seed = lambda: [
        analysis.evaluate(i / (base_steps - 1)) for i in range(base_steps)
    ]
    return Timed(fast, steps * n_cand, ctx.few), Timed(seed, base_steps * n_cand, 3)


def _evaluator_batch(ctx):
    # The architecture-model layer: implement_batch over a Table 7 config
    # grid vs the scalar implement loop (the implement_batch_scalar
    # oracle).  Units are implementation reports (config x model); both
    # paths run uncached so the pair isolates the batched model layer
    # itself, not the report cache.
    import dataclasses

    from ..core.evaluator import DDCEvaluator

    grid = [dataclasses.replace(ctx.cfg, data_width=w) for w in range(8, 16)]
    grid_seed = grid[:2] if ctx.quick else grid
    models = DDCEvaluator().models
    n = len(models)
    fast = lambda: [m.implement_batch(grid) for m in models]
    seed = lambda: [m.implement_batch_scalar(grid_seed) for m in models]
    return Timed(fast, len(grid) * n, ctx.few), _once(seed, len(grid_seed) * n)


def _explore_frontier(ctx):
    # Design-space exploration: adaptive refinement vs the dense scalar
    # oracle on the reference input-rate space.  Units are delivered
    # target-resolution cells — both engines answer for every cell; the
    # adaptive engine just evaluates far fewer of them (and batches what
    # it does evaluate).  Fresh evaluators/caches per run keep the pair
    # honest (no report-cache carry-over between repeats).
    from ..core.evaluator import DDCEvaluator, ReportCache
    from ..explore import ExploreSpec, run_explore

    spec = ExploreSpec()
    spec_seed = ExploreSpec(target_steps=17) if ctx.quick else spec
    fast = lambda: run_explore(spec, "adaptive", DDCEvaluator(cache=ReportCache()))
    seed = lambda: run_explore(spec_seed, "dense", DDCEvaluator())
    return Timed(fast, spec.n_cells, ctx.few), _once(seed, spec_seed.n_cells)


def _sweep_faulty(ctx):
    # Fault-tolerant sweep: the batched scenario grid with a transient
    # injected failure recovered by on_error="retry", against the
    # fault-free strict run.  The pair prices the resilience layer itself
    # — the fault_point probes on the hot path plus one retried point —
    # so a regression here means recovery got expensive, not the sweep.
    # A fresh inject() per timed run resets the firing counters, keeping
    # every repeat deterministic (exactly one injected failure each).
    from .. import faults
    from ..sweep import SweepSpec, run_sweep

    axes = {"fir_taps": (63, 127, 255)}
    spec = SweepSpec.from_axes(axes, duty_cycle_steps=2_001, on_error="retry")
    spec_seed = SweepSpec.from_axes(axes, duty_cycle_steps=2_001)
    plan = faults.FaultPlan((faults.FaultSpec("sweep.point", keys=(1,)),))

    def fast():
        with faults.inject(plan):
            run_sweep(spec)

    seed = lambda: run_sweep(spec_seed)
    return _paired(fast, seed, spec.n_grid_cells, ctx.few)  # the same grid


def _workload_sweep(workload_name: str):
    # A non-default workload's scenario grid through the batch engine
    # (report cache cleared per repetition, so the number is model
    # evaluation + grid math, not cache hits) vs the scalar oracle path
    # over the same spec.
    def prepare(ctx):
        from ..sweep import SweepSpec, run_sweep
        from ..workloads import get as get_workload

        workload = get_workload(workload_name)
        spec = SweepSpec.from_axes(
            dict(workload.scenario_axes()),
            duty_cycle_steps=2_001,
            workload=workload_name,
        )
        cache = workload.shared_evaluator().cache

        def fast():
            cache.clear()
            return run_sweep(spec, engine="batch")

        seed = lambda: run_sweep(spec, engine="scalar")
        return _paired(fast, seed, spec.n_grid_cells, ctx.few)

    return Bench(
        f"{workload_name}_sweep",
        prepare,
        f"{workload_name} workload scenario grid (cells/sec), batch engine "
        "with the report cache cleared per repetition vs the scalar oracle "
        "over the same spec",
        unit="cells/s",
    )


def _montecarlo_population(ctx):
    # Population Monte-Carlo: a 10^6-user ddc population through the
    # vectorised engine (dedup to distinct configs + chunked fused
    # streaming pass, report cache cleared per repetition) vs the
    # per-sample scalar oracle loop — the naive seed-API program: one
    # dataclasses.replace + scenario_candidates + ScenarioAnalysis
    # .evaluate per user.  The scalar loop's rate is population-size
    # independent, so it runs a much smaller population.
    from ..montecarlo import PopulationSpec, run_population
    from ..workloads import get as get_workload

    spec = PopulationSpec(workload="ddc", n_samples=1_000_000, seed=7)
    spec_seed = PopulationSpec(workload="ddc", n_samples=10_000, seed=7)
    cache = get_workload("ddc").shared_evaluator().cache

    def fast():
        cache.clear()
        return run_population(spec)

    seed = lambda: run_population(spec_seed, engine="scalar")
    return Timed(fast, spec.n_samples, ctx.few), _once(seed, spec_seed.n_samples)


#: The suite, in run (and ``--list``) order.  ``guarded`` rows are the
#: fast paths CI holds to the committed ``BENCH_dsp.json``.
BENCHES: tuple[Bench, ...] = (
    Bench(
        "nco",
        _nco,
        "vectorised LUT NCO, fused shift/mask kernel; baseline = the python "
        "oracle (unchanged since seed)",
    ),
    Bench(
        "cic",
        _cic,
        "FixedCICDecimator(2,16), fused int32 in-place kernel; baseline = "
        "frozen seed loop",
    ),
    Bench(
        "fir",
        _fir,
        "FixedPolyphaseDecimator at the 384 kHz stage rate, fused "
        "strided-window kernel over a 10752-sample streaming block; "
        "baseline = frozen seed loop",
    ),
    Bench("ddc_gold", _ddc_gold, "float64 gold model", guarded=False),
    Bench(
        "fixed_ddc",
        _fixed_ddc,
        "bit-true DDC, fused end-to-end kernel (integer-LUT mixer + int32 CIC "
        "rails + strided FIR); baseline = the python oracle with the seed's "
        "input copy re-added",
    ),
    Bench(
        "rtl_ddc",
        _rtl_ddc,
        "block mode vs cycle-accurate, both with activity tracking",
    ),
    Bench(
        "sim_step",
        _sim_step,
        "cycles/sec, 8-component design; generated inline-latch step loop vs "
        "the seed per-cycle dict loop",
        unit="cycles/s",
    ),
    Bench(
        "gpp_ddc",
        _gpp_ddc,
        "ARM-like ISS executing the generated I-rail DDC program; "
        "trace-compiled engine vs the seed per-instruction interpreter",
    ),
    Bench(
        "montium_ddc",
        _montium_ddc,
        "Montium tile DDC mapping; vectorised block engine vs the per-cycle "
        "stepped tile",
    ),
    Bench(
        "scenario_sweep",
        _scenario_sweep,
        "Table 7 duty-cycle x candidate grid (cells/sec); batched "
        "evaluate_batch + winner extraction vs the scalar "
        "ScenarioAnalysis.evaluate loop",
        unit="cells/s",
    ),
    Bench(
        "evaluator_batch",
        _evaluator_batch,
        "Table 7 data-width config grid x all six architecture models "
        "(reports/sec); implement_batch (analytic ARM profile, deduped "
        "Montium schedules, vectorised power arithmetic) vs the scalar "
        "implement loop",
        unit="reports/s",
    ),
    Bench(
        "explore_frontier",
        _explore_frontier,
        "reference input-rate design space, target cells/sec; adaptive "
        "refinement (batched model passes, vectorised Pareto) vs the dense "
        "scalar-oracle grid",
        unit="cells/s",
    ),
    Bench(
        "sweep_faulty",
        _sweep_faulty,
        "fir_taps sweep (cells/sec) with one injected point failure "
        "recovered under on_error=retry vs the fault-free strict sweep; "
        "prices the fault_point probes + one retry",
        unit="cells/s",
    ),
    _workload_sweep("drm"),
    _workload_sweep("ofdm"),
    Bench(
        "montecarlo_population",
        _montecarlo_population,
        "10^6-user ddc population (samples/sec); deduplicating chunked "
        "vector engine (cache cleared per repetition) vs the per-sample "
        "scalar oracle loop on 10^4 users (its rate is size-independent); "
        "both include sampling, model evaluation and winner/percentile "
        "aggregation",
    ),
)

#: Every bench name the suite can produce, in run order.
BENCH_NAMES = tuple(b.name for b in BENCHES)
#: The benches CI guards (``python -m repro.bench --check``).
GUARDED_BENCHES = tuple(b.name for b in BENCHES if b.guarded)


def select(only: set[str] | None) -> tuple[Bench, ...]:
    """The rows named in ``only`` (``None``: all), in table order."""
    if only is not None and not only:
        raise ConfigurationError("no bench names given")
    unknown = sorted(set(only or ()) - set(BENCH_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown bench name(s): {', '.join(unknown)} "
            f"(known: {', '.join(BENCH_NAMES)})"
        )
    return tuple(b for b in BENCHES if only is None or b.name in only)


def run_dsp_suite(
    quick: bool = False, progress=None, only: set[str] | None = None
) -> dict[str, BenchResult]:
    """Run every bench; returns results keyed by bench name.

    ``only`` restricts the run to the named benches (see
    :data:`BENCH_NAMES`); ``None`` runs everything.  Each bench runs in
    one ``bench.run`` telemetry span (preparation, warmup and repeats
    included).
    """
    # Keep the old suite's order up to the first bench (these imports, the
    # inputs, then seed_paths): it leaves glibc's malloc serving the
    # kernels' per-call arrays from the heap.  In other orders most
    # processes page-faulted them back on every call, halving nco.
    from ..archs.fpga.rtl_ddc import RTLDDC  # noqa: F401
    from ..archs.gpp.profiler import profile_ddc  # noqa: F401

    say = progress or (lambda msg: None)
    ctx = BenchContext.build(quick)
    from . import seed_paths  # noqa: F401

    results: dict[str, BenchResult] = {}
    for bench in select(only):
        with telemetry.span("bench.run", bench=bench.name):
            say(f"bench {bench.name} ...")
            fast, base = bench.prepare(ctx)
            secs = time_fn(fast.fn, fast.repeats, fast.warmup)
            r = results[bench.name] = BenchResult(
                bench.name,
                fast.n_samples / secs,
                secs,
                fast.repeats,
                fast.n_samples,
                notes=bench.notes,
                unit=bench.unit,
            )
            if base is not None:
                say(f"bench {bench.name} (baseline) ...")
                r.baseline_seconds = time_fn(base.fn, base.repeats, base.warmup)
                r.baseline_samples_per_sec = base.n_samples / r.baseline_seconds
    return results

"""Benchmark runner: times the bit-true stack and reports samples/second.

Each bench is a closure over a prepared input block; :func:`time_fn` runs
it ``repeats`` times after a warmup and keeps the *best* wall-clock time
(the standard way to suppress scheduler noise on shared machines).  Where a
seed-equivalent slow path still exists in-tree — the cycle-accurate RTL
run and the uncompiled per-cycle ``Simulator`` loop — it is measured too
and reported as the ``baseline``, so the JSON records a true before/after
pair instead of a single unanchored number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..config import REFERENCE_DDC
from ..dsp.cic import FixedCICDecimator
from ..dsp.ddc import DDC, FixedDDC
from ..dsp.fir import FixedPolyphaseDecimator
from ..dsp.firdesign import quantize_taps, reference_fir_taps
from ..dsp.nco import NCO
from ..dsp.signals import quantize_to_adc, tone
from ..simkernel import ClockDomain, Component, Simulator, Wire

#: The reference bench input: 32 full output periods, ~86k ADC samples.
FULL_SAMPLES = 2688 * 32
QUICK_SAMPLES = 2688 * 4

#: Every bench name the suite can produce (validates ``--only``).
BENCH_NAMES = (
    "nco",
    "cic",
    "fir",
    "ddc_gold",
    "fixed_ddc",
    "rtl_ddc",
    "sim_step",
    "gpp_ddc",
    "montium_ddc",
    "scenario_sweep",
    "evaluator_batch",
    "explore_frontier",
    "sweep_faulty",
    "drm_sweep",
    "ofdm_sweep",
    "montecarlo_population",
)


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


def run_dsp_suite(
    quick: bool = False, progress=None, only: set[str] | None = None
) -> dict[str, BenchResult]:
    """Run every bench; returns results keyed by bench name.

    ``only`` restricts the run to the named benches (see
    :data:`BENCH_NAMES`); ``None`` runs everything.
    """
    from ..archs.fpga.rtl_ddc import RTLDDC
    from ..archs.gpp.profiler import profile_ddc

    if only is not None:
        unknown = sorted(set(only) - set(BENCH_NAMES))
        if unknown:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"unknown bench name(s): {', '.join(unknown)} "
                f"(expected among {', '.join(BENCH_NAMES)})"
            )

    # Per-bench wall-time spans: ``want(name)`` is called once at the
    # top of every bench block in suite order, so each call closes the
    # previous bench's span and opens the next.  ``record_span`` emits
    # retroactively from the measured interval — when telemetry is
    # disabled the tracker stays empty and nothing is timed.
    _active: list[tuple[str, float, float]] = []

    def _close_bench() -> None:
        if _active:
            bench, t0, p0 = _active.pop()
            telemetry.record_span(
                "bench.run", t0, time.perf_counter() - p0, bench=bench
            )

    def want(name: str) -> bool:
        run = only is None or name in only
        _close_bench()
        if run and telemetry.enabled():
            _active.append((name, time.time(), time.perf_counter()))
        return run

    n = QUICK_SAMPLES if quick else FULL_SAMPLES
    # The vectorised benches cost milliseconds: many repeats (best-of) cost
    # nothing and keep the committed before/after pairs out of the noise.
    repeats = 3 if quick else 15
    cfg = REFERENCE_DDC
    # The guarded rtl_ddc block bench always runs on the full 86k reference
    # input so quick-mode CI numbers stay comparable to the committed file;
    # quick mode only shortens the unguarded benches and the slow
    # cycle-accurate baseline.
    xf_full = tone(
        FULL_SAMPLES, cfg.nco_frequency_hz + 5e3, cfg.input_rate_hz, 0.8
    )
    adc_full = quantize_to_adc(xf_full, 12)
    xf = xf_full[:n]
    adc = adc_full[:n]
    results: dict[str, BenchResult] = {}

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def add(
        name: str,
        fn,
        n_samples: int,
        reps: int = repeats,
        baseline_fn=None,
        **kw,
    ) -> None:
        say(f"bench {name} ...")
        secs = time_fn(fn, repeats=reps)
        if baseline_fn is not None:
            base = time_fn(baseline_fn, repeats=reps)
            kw.setdefault("baseline_samples_per_sec", n_samples / base)
            kw.setdefault("baseline_seconds", base)
        results[name] = BenchResult(
            name=name,
            samples_per_sec=n_samples / secs,
            seconds=secs,
            repeats=reps,
            n_samples=n_samples,
            **kw,
        )

    from .seed_paths import seed_fixed_cic_process, seed_fixed_fir_process

    # The five streaming benches below are guarded (GUARDED_BENCHES), so
    # they always run the full reference input even in --quick: quick-mode
    # CI numbers must stay comparable to the committed file.  All are
    # vectorised and cost milliseconds.  The fast path is the fused kernel
    # tier (what auto dispatch picks); baselines
    # are frozen seed loops, pinned in seed_paths so later optimisation of
    # the live primitives cannot drift them.
    if want("nco"):
        nco = NCO(cfg.input_rate_hz, cfg.nco_frequency_hz)
        nco_seed = NCO(cfg.input_rate_hz, cfg.nco_frequency_hz)
        add("nco", lambda: nco.generate(FULL_SAMPLES, engine="fused"),
            FULL_SAMPLES,
            baseline_fn=lambda: nco_seed.generate(
                FULL_SAMPLES, engine="python"
            ),
            notes="vectorised LUT NCO, fused shift/mask kernel; baseline "
            "= the python oracle (unchanged since seed)")

    if want("cic"):
        cic = FixedCICDecimator(2, 16, input_width=12)
        cic_seed = FixedCICDecimator(2, 16, input_width=12)
        add("cic", lambda: cic.process(adc_full, engine="fused"),
            FULL_SAMPLES,
            baseline_fn=lambda: seed_fixed_cic_process(cic_seed, adc_full),
            notes="FixedCICDecimator(2,16), fused int32 in-place kernel; "
            "baseline = frozen seed loop")

    taps = reference_fir_taps()
    raw, fmt = quantize_taps(taps, 12)
    if want("fir"):
        # A realistic streaming block at the 384 kHz FIR stage rate.  The
        # seed harness used 500 samples, which is per-call-overhead
        # dominated (~45 us both paths) and made the pair noise; 10752
        # samples puts both loops firmly in the vectorised regime.
        fir_in = adc_full[: FULL_SAMPLES // 8]
        fir = FixedPolyphaseDecimator(raw, 8, output_shift=max(0, fmt.frac))
        fir_seed = FixedPolyphaseDecimator(
            raw, 8, output_shift=max(0, fmt.frac)
        )
        add("fir", lambda: fir.process(fir_in, engine="fused"), len(fir_in),
            baseline_fn=lambda: seed_fixed_fir_process(fir_seed, fir_in),
            notes="FixedPolyphaseDecimator at the 384 kHz stage rate, "
            "fused strided-window kernel over a 10752-sample streaming "
            "block; baseline = frozen seed loop")

    if want("ddc_gold"):
        gold = DDC(cfg)
        add("ddc_gold", lambda: gold.process(xf), n,
            notes="float64 gold model")

    if want("fixed_ddc"):
        fixed = FixedDDC(cfg)
        adc32 = adc_full.astype(np.int32)  # forces the seed's input copy
        fixed_seed = FixedDDC(cfg)
        add("fixed_ddc",
            lambda: fixed.process(adc_full, engine="fused"), FULL_SAMPLES,
            baseline_fn=lambda: fixed_seed.process(adc32, engine="python"),
            notes="bit-true DDC, fused end-to-end kernel (integer-LUT "
            "mixer + int32 CIC rails + strided FIR); baseline = the "
            "python oracle with the seed's input copy re-added")

    # RTL DDC: the block engine vs the seed cycle-accurate path.  The
    # cycle baseline is throughput-linear in the input length, so quick
    # mode may shorten it; the block measurement always uses the full
    # reference input (see above).
    if want("rtl_ddc"):
        say("bench rtl_ddc (cycle-accurate baseline, slow) ...")
        rtl = RTLDDC(cfg)
        base_secs = time_fn(
            lambda: (rtl.reset(), rtl.run(adc))[1], repeats=1, warmup=0
        )
        rtl_b = RTLDDC(cfg)
        say("bench rtl_ddc (block mode) ...")
        rtl_reps = min(7, max(3, repeats))
        blk_secs = time_fn(
            lambda: (rtl_b.reset(), rtl_b.run(adc_full, engine="block"))[1],
            repeats=rtl_reps,
        )
        results["rtl_ddc"] = BenchResult(
            name="rtl_ddc",
            samples_per_sec=FULL_SAMPLES / blk_secs,
            seconds=blk_secs,
            repeats=rtl_reps,
            n_samples=FULL_SAMPLES,
            baseline_samples_per_sec=n / base_secs,
            baseline_seconds=base_secs,
            notes="block mode vs cycle-accurate, both with activity tracking",
        )

    # Simulator.step microkernel: the code-generated fused step loop vs
    # the seed dict loop.  Guarded, so the fast measurement always runs
    # the full cycle count; the seed baseline is throughput-linear in
    # cycles and may be shortened in quick mode.
    if want("sim_step"):
        step_cycles = 20_000
        base_cycles = 2_000 if quick else step_cycles
        step_reps = min(7, repeats)
        sim_fast = _build_step_sim()
        sim_fast.compile(engine="fused")
        say("bench sim_step ...")
        fast_secs = time_fn(
            lambda: sim_fast.step(step_cycles), repeats=step_reps
        )
        sim_ref = _build_step_sim()
        ref_secs = time_fn(
            lambda: _seed_step(sim_ref, base_cycles), repeats=step_reps
        )
        results["sim_step"] = BenchResult(
            name="sim_step",
            samples_per_sec=step_cycles / fast_secs,
            seconds=fast_secs,
            repeats=step_reps,
            n_samples=step_cycles,
            baseline_samples_per_sec=base_cycles / ref_secs,
            baseline_seconds=ref_secs,
            notes="cycles/sec, 8-component design; generated inline-latch "
            "step loop vs the seed per-cycle dict loop",
        )

    # GPP: the instruction-set simulation of the generated DDC program.
    # The trace-compiled engine runs the full 2688-sample steady-state
    # block even in quick mode (the seed could only afford 336 there);
    # the baseline is the seed interpreter over the *same* input.
    if want("gpp_ddc"):
        gpp_n = 2688
        say("bench gpp_ddc (vectorised kernel) ...")
        gpp_reps = 3 if quick else 7
        gpp_secs = time_fn(
            lambda: profile_ddc(n_samples=gpp_n, engine="auto"),
            repeats=gpp_reps,
        )
        say("bench gpp_ddc (seed interpreter baseline, slow) ...")
        gpp_base = time_fn(
            lambda: profile_ddc(n_samples=gpp_n, engine="interp"),
            repeats=1, warmup=0,
        )
        results["gpp_ddc"] = BenchResult(
            name="gpp_ddc",
            samples_per_sec=gpp_n / gpp_secs,
            seconds=gpp_secs,
            repeats=gpp_reps,
            n_samples=gpp_n,
            baseline_samples_per_sec=gpp_n / gpp_base,
            baseline_seconds=gpp_base,
            notes="ARM-like ISS executing the generated I-rail DDC program; "
            "trace-compiled engine vs the seed per-instruction interpreter",
        )

    # Montium: the tile DDC mapping, block engine vs the stepped tile.
    # Like rtl_ddc, the guarded block measurement always runs the full
    # reference input so quick-mode CI numbers stay comparable to the
    # committed file; quick mode only shortens the slow stepped baseline
    # (throughput there is length-independent).
    if want("montium_ddc"):
        from ..archs.montium import run_ddc_on_tile

        mont_n = 2688 * 8
        mont_x = adc_full[:mont_n]
        mont_base_x = adc_full[: 2688 if quick else mont_n]
        say("bench montium_ddc (block engine) ...")
        mont_reps = 3 if quick else 7
        mont_secs = time_fn(
            lambda: run_ddc_on_tile(mont_x, cfg, engine="block"),
            repeats=mont_reps,
        )
        say("bench montium_ddc (stepped tile baseline, slow) ...")
        mont_base = time_fn(
            lambda: run_ddc_on_tile(mont_base_x, cfg, engine="step"),
            repeats=1, warmup=0,
        )
        results["montium_ddc"] = BenchResult(
            name="montium_ddc",
            samples_per_sec=mont_n / mont_secs,
            seconds=mont_secs,
            repeats=mont_reps,
            n_samples=mont_n,
            baseline_samples_per_sec=len(mont_base_x) / mont_base,
            baseline_seconds=mont_base,
            notes="Montium tile DDC mapping; vectorised block engine vs the "
            "per-cycle stepped tile",
        )

    # Scenario sweep: the batched duty-cycle x candidate grid of the
    # repro.sweep subsystem vs the scalar Section 7 loop it replaced.
    # Units are grid cells (duty cycle x candidate) per second.  The
    # guarded batched measurement always runs the full 20001-step Table 7
    # grid so quick-mode CI numbers stay comparable to the committed
    # file; quick mode only shortens the scalar baseline (its throughput
    # is step-count independent).
    if want("scenario_sweep"):
        from ..core.evaluator import DDCEvaluator
        from ..sweep import duty_cycle_grid

        say("bench scenario_sweep (batched grid) ...")
        analysis = DDCEvaluator().scenario_analysis(cfg)
        sweep_steps = 20_001
        n_cand = len(analysis.candidates)
        sweep_reps = min(7, repeats)
        sweep_secs = time_fn(
            lambda: duty_cycle_grid(analysis, sweep_steps).winners(),
            repeats=sweep_reps,
        )
        say("bench scenario_sweep (scalar loop baseline) ...")
        base_steps = 2_001 if quick else sweep_steps
        sweep_base = time_fn(
            lambda: [
                analysis.evaluate(i / (base_steps - 1))
                for i in range(base_steps)
            ],
            repeats=3,
        )
        results["scenario_sweep"] = BenchResult(
            name="scenario_sweep",
            samples_per_sec=sweep_steps * n_cand / sweep_secs,
            seconds=sweep_secs,
            repeats=sweep_reps,
            n_samples=sweep_steps * n_cand,
            baseline_samples_per_sec=base_steps * n_cand / sweep_base,
            baseline_seconds=sweep_base,
            notes="Table 7 duty-cycle x candidate grid (cells/sec); batched "
            "evaluate_batch + winner extraction vs the scalar "
            "ScenarioAnalysis.evaluate loop",
        )

    # Architecture-model layer: implement_batch over a Table 7 config grid
    # vs the scalar implement loop (the implement_batch_scalar oracle).
    # Units are implementation reports (config x model) per second; both
    # paths run uncached so the pair isolates the batched model layer
    # itself, not the report cache.  The guarded batched measurement
    # always runs the full grid so quick-mode CI numbers stay comparable
    # to the committed file; quick mode only shortens the slow scalar
    # baseline (its throughput is grid-size independent).
    if want("evaluator_batch"):
        import dataclasses

        say("bench evaluator_batch (batched model layer) ...")
        eval_grid = [
            dataclasses.replace(cfg, data_width=w) for w in range(8, 16)
        ]
        models = DDCEvaluator().models
        n_reports = len(eval_grid) * len(models)
        eval_reps = 3 if quick else min(7, repeats)
        eval_secs = time_fn(
            lambda: [m.implement_batch(eval_grid) for m in models],
            repeats=eval_reps,
        )
        say("bench evaluator_batch (scalar model loop baseline, slow) ...")
        base_grid = eval_grid[:2] if quick else eval_grid
        eval_base = time_fn(
            lambda: [m.implement_batch_scalar(base_grid) for m in models],
            repeats=1, warmup=0,
        )
        results["evaluator_batch"] = BenchResult(
            name="evaluator_batch",
            samples_per_sec=n_reports / eval_secs,
            seconds=eval_secs,
            repeats=eval_reps,
            n_samples=n_reports,
            baseline_samples_per_sec=len(base_grid) * len(models) / eval_base,
            baseline_seconds=eval_base,
            notes="Table 7 data-width config grid x all six architecture "
            "models (reports/sec); implement_batch (analytic ARM profile, "
            "deduped Montium schedules, vectorised power arithmetic) vs the "
            "scalar implement loop",
        )

    # Design-space exploration: adaptive refinement vs the dense scalar
    # oracle on the reference input-rate space.  Units are delivered
    # target-resolution cells per second — both engines answer for every
    # cell; the adaptive engine just evaluates far fewer of them (and
    # batches what it does evaluate).  Fresh evaluators/caches per run
    # keep the pair honest (no report-cache carry-over between repeats).
    # The guarded adaptive measurement always runs the full reference
    # space; quick mode only shortens the slow dense baseline (its
    # cells/sec throughput is resolution-independent).
    if want("explore_frontier"):
        from ..core.evaluator import ReportCache
        from ..explore import ExploreSpec, run_explore

        say("bench explore_frontier (adaptive engine) ...")
        explore_spec = ExploreSpec()
        exp_reps = 3 if quick else min(7, repeats)
        exp_secs = time_fn(
            lambda: run_explore(
                explore_spec, "adaptive", DDCEvaluator(cache=ReportCache())
            ),
            repeats=exp_reps,
        )
        say("bench explore_frontier (dense scalar oracle baseline, slow) ...")
        base_spec = (
            ExploreSpec(target_steps=17) if quick else explore_spec
        )
        exp_base = time_fn(
            lambda: run_explore(base_spec, "dense", DDCEvaluator()),
            repeats=1, warmup=0,
        )
        results["explore_frontier"] = BenchResult(
            name="explore_frontier",
            samples_per_sec=explore_spec.n_cells / exp_secs,
            seconds=exp_secs,
            repeats=exp_reps,
            n_samples=explore_spec.n_cells,
            baseline_samples_per_sec=base_spec.n_cells / exp_base,
            baseline_seconds=exp_base,
            notes="reference input-rate design space, target cells/sec; "
            "adaptive refinement (batched model passes, vectorised Pareto) "
            "vs the dense scalar-oracle grid",
        )

    # Fault-tolerant sweep: the same batched scenario grid with a
    # transient injected failure recovered by on_error="retry", against
    # the fault-free strict run.  Units are grid cells (duty cycle x
    # point) per second; the pair prices the resilience layer itself —
    # the fault_point probes on the hot path plus one retried point —
    # so a regression here means recovery got expensive, not the sweep.
    # A fresh inject() per timed run resets the firing counters, keeping
    # every repeat deterministic (exactly one injected failure each).
    if want("sweep_faulty"):
        from .. import faults
        from ..sweep import SweepSpec, run_sweep

        say("bench sweep_faulty (retry recovery under injection) ...")
        faulty_spec = SweepSpec.from_axes(
            {"fir_taps": (63, 127, 255)},
            duty_cycle_steps=2_001,
            on_error="retry",
        )
        fault_plan = faults.FaultPlan(
            (faults.FaultSpec("sweep.point", keys=(1,)),)
        )

        def _run_faulty():
            with faults.inject(fault_plan):
                run_sweep(faulty_spec)

        faulty_reps = 3 if quick else min(7, repeats)
        faulty_secs = time_fn(_run_faulty, repeats=faulty_reps)
        say("bench sweep_faulty (fault-free strict baseline) ...")
        strict_spec = SweepSpec.from_axes(
            {"fir_taps": (63, 127, 255)}, duty_cycle_steps=2_001
        )
        strict_secs = time_fn(
            lambda: run_sweep(strict_spec), repeats=faulty_reps
        )
        results["sweep_faulty"] = BenchResult(
            name="sweep_faulty",
            samples_per_sec=faulty_spec.n_grid_cells / faulty_secs,
            seconds=faulty_secs,
            repeats=faulty_reps,
            n_samples=faulty_spec.n_grid_cells,
            baseline_samples_per_sec=strict_spec.n_grid_cells / strict_secs,
            baseline_seconds=strict_secs,
            notes="fir_taps sweep (cells/sec) with one injected point "
            "failure recovered under on_error=retry vs the fault-free "
            "strict sweep; prices the fault_point probes + one retry",
        )

    # Workload sweeps: each non-default workload's scenario grid through
    # the batch engine (cache cleared per repetition, so the number is
    # model evaluation + grid math, not cache hits) vs the scalar
    # oracle path over the same spec.
    for wl_name in ("drm", "ofdm"):
        bench_name = f"{wl_name}_sweep"
        if not want(bench_name):
            continue
        from ..sweep import SweepSpec, run_sweep
        from ..workloads import get as get_workload

        workload = get_workload(wl_name)
        wl_spec = SweepSpec.from_axes(
            dict(workload.scenario_axes()),
            duty_cycle_steps=2_001,
            workload=wl_name,
        )
        cache = workload.shared_evaluator().cache

        def _run_wl(spec=wl_spec, cache=cache):
            cache.clear()
            return run_sweep(spec, engine="batch")

        say(f"bench {bench_name} (batch engine) ...")
        wl_reps = 3 if quick else min(7, repeats)
        wl_secs = time_fn(_run_wl, repeats=wl_reps)
        say(f"bench {bench_name} (scalar oracle baseline) ...")
        wl_base = time_fn(
            lambda spec=wl_spec: run_sweep(spec, engine="scalar"),
            repeats=wl_reps,
        )
        results[bench_name] = BenchResult(
            name=bench_name,
            samples_per_sec=wl_spec.n_grid_cells / wl_secs,
            seconds=wl_secs,
            repeats=wl_reps,
            n_samples=wl_spec.n_grid_cells,
            baseline_samples_per_sec=wl_spec.n_grid_cells / wl_base,
            baseline_seconds=wl_base,
            notes=f"{wl_name} workload scenario grid (cells/sec), batch "
            "engine with the report cache cleared per repetition vs the "
            "scalar oracle over the same spec",
        )

    # Population Monte-Carlo: a 10^6-user ddc population through the
    # vectorised engine (dedup to distinct configs + chunked fused
    # streaming pass, report cache cleared per repetition) vs the
    # per-sample scalar oracle loop — the naive seed-API program: one
    # dataclasses.replace + scenario_candidates + ScenarioAnalysis
    # .evaluate per user.  Units are population samples per second; the
    # scalar loop's rate is population-size independent, so its
    # measurement runs a much smaller population (and quick mode only
    # shortens that slow baseline).  The guarded vector measurement
    # always runs the full million samples so quick-mode CI numbers
    # stay comparable to the committed file.
    if want("montecarlo_population"):
        from ..montecarlo import PopulationSpec, run_population
        from ..workloads import get as get_workload

        mc_spec = PopulationSpec(workload="ddc", n_samples=1_000_000, seed=7)
        mc_base_spec = PopulationSpec(workload="ddc", n_samples=10_000, seed=7)
        mc_cache = get_workload("ddc").shared_evaluator().cache

        def _run_mc(spec=mc_spec, cache=mc_cache):
            cache.clear()
            return run_population(spec)

        say("bench montecarlo_population (vector engine, 10^6 users) ...")
        mc_reps = 3 if quick else min(7, repeats)
        mc_secs = time_fn(_run_mc, repeats=mc_reps)
        say("bench montecarlo_population (scalar oracle baseline, slow) ...")
        mc_base = time_fn(
            lambda: run_population(mc_base_spec, engine="scalar"),
            repeats=1, warmup=0,
        )
        results["montecarlo_population"] = BenchResult(
            name="montecarlo_population",
            samples_per_sec=mc_spec.n_samples / mc_secs,
            seconds=mc_secs,
            repeats=mc_reps,
            n_samples=mc_spec.n_samples,
            baseline_samples_per_sec=mc_base_spec.n_samples / mc_base,
            baseline_seconds=mc_base,
            notes="10^6-user ddc population (samples/sec); deduplicating "
            "chunked vector engine (cache cleared per repetition) vs the "
            "per-sample scalar oracle loop on 10^4 users (its rate is "
            "size-independent); both include sampling, model evaluation "
            "and winner/percentile aggregation",
        )
    _close_bench()
    return results

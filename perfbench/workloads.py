"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
pass over a fixed operation sequence in :meth:`run_pass` (the timed
part) and checks that pass's outputs in :meth:`check` (untimed).  The
package only ever sees the generated inputs.  ``tiny`` shrinks every
input for the self-test.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digest(data) -> str:
    """Content digest of a report string or of a tuple of int arrays."""
    h = hashlib.sha256()
    if isinstance(data, str):
        h.update(data.encode())
    else:
        for array in data:
            h.update(array.tobytes())
    return h.hexdigest()


def flip_byte(text: str) -> str:
    """The same report with its first byte changed."""
    return chr(ord(text[0]) ^ 1) + text[1:]


class Stopwatch:
    """Back-to-back operation wall times within one pass."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.walls.append(now - self._last)
        self._last = now


class Workload:
    """One seeded operation sequence; subclasses fill in the four hooks."""

    name = "abstract"
    #: Whether the work runs in child processes, whose peak RSS counts.
    children_rss = False

    def __init__(self, seed: int, tiny: bool, root: Path, tmp: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.root = root
        self.tmp = tmp
        #: Work units (invocations, cells, users, samples) per pass.
        self.units_per_pass = 0
        #: Per-layer figures known without spans (stimulus time, store size).
        self.layer_extras: dict[str, float] = {}

    def setup(self, traced: bool) -> None:
        """Imports, inputs, references and warm-up (untimed by the pass)."""

    def run_pass(self, traced: bool) -> tuple[list[float], dict]:
        """One timed pass: (wall time of each operation, raw outputs)."""
        raise NotImplementedError

    def check(self, index: int, outputs: dict) -> dict[str, bool]:
        """Operation name -> whether its output is correct."""
        raise NotImplementedError

    @staticmethod
    def corrupt(outputs: dict) -> None:
        """Flip one byte of the pass's first output (self-test only)."""
        raise NotImplementedError

    def probe(self, tracer) -> None:
        """Extra traced calls made after a traced pass, outside its wall."""

    def trace_figures(self) -> dict[str, float]:
        """Per-layer figures the workload measures itself."""
        return dict(self.layer_extras)


# --------------------------------------------------------------- cli_cold
class CliCold(Workload):
    """The four default CLIs as fresh ``python -m`` processes."""

    name = "cli_cold"
    children_rss = True

    def setup(self, traced: bool) -> None:
        import importlib

        self.commands = (
            ("sweep", []),
            ("explore", []),
            ("montecarlo", ["--seed", str(self.seed)]),
            ("paper", ["--check", "tests/goldens"]),
        )
        # The report each command must print, rendered in-process from
        # the same arguments.
        self.expected = {}
        for cli, argv in self.commands:
            module = importlib.import_module(f"repro.{cli}.__main__")
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = module.main(list(argv))
            if code != 0:
                raise RuntimeError(f"in-process {cli} exited {code}")
            self.expected[cli] = buffer.getvalue().encode()
        self.units_per_pass = len(self.commands)
        self.cli_times: list[dict] = []

    def run_pass(self, traced: bool) -> tuple[list[float], dict]:
        walls, results = [], []
        for cli, argv in self.commands:
            if traced:
                times = self.tmp / f"cli-{cli}.json"
                command = [
                    sys.executable, str(HERE / "clichild.py"), cli,
                    str(times), *argv,
                ]
            else:
                command = [sys.executable, "-m", f"repro.{cli}", *argv]
            start = time.perf_counter()
            proc = subprocess.run(
                command, cwd=self.root, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=120,
            )
            wall = time.perf_counter() - start
            walls.append(wall)
            results.append((cli, proc.returncode, proc.stdout))
            if traced:
                record = json.loads(times.read_text())
                record["wall_s"] = wall
                self.cli_times.append(record)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
        return walls, {"results": results}

    def check(self, index: int, outputs: dict) -> dict[str, bool]:
        return {
            cli: code == 0 and stdout == self.expected[cli]
            for cli, code, stdout in outputs["results"]
        }

    @staticmethod
    def corrupt(outputs: dict) -> None:
        cli, code, stdout = outputs["results"][0]
        outputs["results"][0] = (cli, code, bytes([stdout[0] ^ 1]) + stdout[1:])

    def trace_figures(self) -> dict[str, float]:
        """Per-invocation CLI import/main times and the CLI coverage."""
        out: dict[str, float] = {}
        for cli, _ in self.commands:
            runs = [t for t in self.cli_times if t["cli"] == cli]
            for part in ("import_s", "main_s"):
                out[f"cli.{cli}.{part}"] = sum(t[part] for t in runs) / len(runs)
        papers = [t for t in self.cli_times if t["cli"] == "paper"]
        out["paper.render_tables_s"] = (
            sum(t["render_tables_s"] for t in papers) / len(papers)
        )
        walls = sum(t["wall_s"] for t in self.cli_times)
        out["trace.coverage"] = sum(
            t["import_s"] + t["main_s"] for t in self.cli_times
        ) / walls
        return out


# ----------------------------------------------------------- design_space
#: Sweep axes as strata: the seed draws one value from each stratum, so
#: every seed gives a grid of the same size and a similar feasibility
#: mix (3 x 4 x 3 x 4 x 10 rate strata = 1440 points).  Every value
#: combination keeps at least one architecture feasible, so no study
#: fails.
SWEEP_STRATA = {
    "fir_taps": ((31, 47, 63), (95, 125, 127), (191, 255)),
    "data_width": ((8, 10), (11, 12), (13, 14), (16,)),
    "cic5_order": ((3, 4), (5,), (6,)),
    "cic2_decimation": ((8, 12), (16,), (24,), (32,)),
}
RATE_STRATA = 10
#: Strata of the explore's two discrete axes.
EXPLORE_STRATA = {
    "fir_taps": ((31, 47, 63), (95, 125, 127), (191, 255)),
    "data_width": ((8, 10), (11, 12, 13), (14, 16)),
}
SWEEP_DUTY_STEPS = 21
#: The reference explore span (both Cyclone f_max thresholds), in kHz.
RATE_KHZ = (24_192, 96_768)


def draw_strata(rng, strata, tiny: bool) -> tuple[int, ...]:
    """One seeded value per stratum (the first two strata when tiny)."""
    chosen = strata[:2] if tiny else strata
    return tuple(int(rng.choice(stratum)) for stratum in chosen)


class DesignSpace(Workload):
    """Multi-axis sweep, adaptive explore with a store round trip, and
    the drm/ofdm scenario sweeps, each on a cleared report cache."""

    name = "design_space"

    def setup(self, traced: bool) -> None:
        import numpy as np

        from repro.explore import ExploreSpec
        from repro.sweep import SweepSpec
        from repro.workloads import get

        rng = np.random.default_rng(self.seed)
        axes = {
            field: draw_strata(rng, strata, self.tiny)
            for field, strata in SWEEP_STRATA.items()
        }
        n_rates = 2 if self.tiny else RATE_STRATA
        edges = np.linspace(RATE_KHZ[0], RATE_KHZ[1], n_rates + 1)
        axes["input_rate_hz"] = tuple(
            float(rng.integers(lo, hi)) * 1e3
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        # A coarse duty grid keeps the 1440-point report (and its JSON
        # rendering) from drowning the model and evaluator layers.
        self.sweep_spec = SweepSpec.from_axes(
            axes, duty_cycle_steps=SWEEP_DUTY_STEPS
        )
        discrete = tuple(
            (field, draw_strata(rng, strata, self.tiny))
            for field, strata in EXPLORE_STRATA.items()
        )
        self.explore_spec = ExploreSpec(
            target_steps=17 if self.tiny else 129,
            discrete_axes=discrete,
            probe_points=4,
            seed=int(rng.integers(2**31)),
        )
        self.scenario_specs = [
            SweepSpec.from_axes(dict(get(w).scenario_axes()), workload=w)
            for w in ("drm", "ofdm")
        ]
        self.store_path = self.tmp / "explore-store.jsonl"
        self.units_per_pass = (
            self.sweep_spec.n_grid_cells
            + 2 * self.explore_spec.n_cells
            * self.explore_spec.duty_cycle_steps
            + sum(s.n_grid_cells for s in self.scenario_specs)
        )
        # Warm-up: one small study of each kind, so the first pass pays
        # no lazy imports or first-call costs.
        self._run_studies(
            replace(self.sweep_spec, axes=(("fir_taps", (63,)),)),
            replace(self.explore_spec, target_steps=5, discrete_axes=()),
        )
        self.reference: dict[str, str] = {}

    def _clear_caches(self) -> None:
        from repro.workloads import get

        for workload in ("ddc", "drm", "ofdm"):
            get(workload).shared_evaluator().cache.clear()

    def _run_studies(self, sweep_spec, explore_spec, lap=None) -> dict:
        from repro.core.evaluator import ReportCache
        from repro.explore import refine, store
        from repro.sweep import engine
        from repro.workloads import get

        lap = lap or (lambda: None)
        self._clear_caches()
        out = {"sweep": engine.run_sweep(sweep_spec).render("json")}
        lap()
        ddc = get("ddc")
        evaluator = ddc.evaluator(cache=ReportCache())
        cold = refine.run_explore(explore_spec, "adaptive", evaluator)
        out["explore"] = cold.render("json")
        lap()
        self.store_path.unlink(missing_ok=True)
        report_store = store.ReportStore(self.store_path)
        report_store.save(evaluator.cache)
        report_store.save_frontier(
            explore_spec, evaluator.models, cold.to_json_doc()
        )
        warm_evaluator = ddc.evaluator(cache=ReportCache())
        report_store.load(warm_evaluator.cache, warm_evaluator.models)
        warm = refine.run_explore(explore_spec, "adaptive", warm_evaluator)
        out["explore_warm"] = warm.render("json")
        cache = warm_evaluator.cache
        out["warm_hits"] = (cache.hits, cache.misses)
        lap()
        for spec in self.scenario_specs:
            out[spec.workload] = engine.run_sweep(spec).render("json")
            lap()
        return out

    def run_pass(self, traced: bool) -> tuple[list[float], dict]:
        watch = Stopwatch()
        out = self._run_studies(self.sweep_spec, self.explore_spec, watch.lap)
        hits, misses = out.pop("warm_hits")
        self.layer_extras["store.bytes"] = self.store_path.stat().st_size
        self.layer_extras["store.warm_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        return watch.walls, out

    def check(self, index: int, outputs: dict) -> dict[str, bool]:
        digests = {k: digest(v) for k, v in outputs.items()}
        if not self.reference:
            self.reference = dict(digests)
            self.reference["explore_warm"] = digest(outputs["explore"])
        return {k: digests[k] == self.reference[k] for k in digests}

    @staticmethod
    def corrupt(outputs: dict) -> None:
        outputs["sweep"] = flip_byte(outputs["sweep"])


# ------------------------------------------------------------- population
#: Wide-axis pools: 5 x 6 x 2 = 60 distinct configurations.
WIDE_POOLS = {
    "fir_taps": ((31, 47, 63, 95, 125, 127, 191, 255), 5),
    "data_width": ((8, 10, 11, 12, 13, 14, 16), 6),
    "cic5_order": ((3, 4, 5, 6), 2),
}


class Population(Workload):
    """Seeded Monte-Carlo populations: default ddc at 4e6 users, a
    60-config wide-axis ddc population and the default drm population."""

    name = "population"

    def setup(self, traced: bool) -> None:
        import numpy as np

        from repro.montecarlo import PopulationSpec
        from repro.montecarlo.engine import run_population
        from repro.montecarlo.spec import Choice

        rng = np.random.default_rng(self.seed)
        scale = 1_000 if self.tiny else 1_000_000
        wide = tuple(
            (field, Choice(values=tuple(
                sorted(int(v) for v in rng.choice(pool, count, False))
            )))
            for field, (pool, count) in WIDE_POOLS.items()
        )
        seeds = rng.integers(2**31, size=3)
        self.specs = [
            PopulationSpec(workload="ddc", n_samples=4 * scale,
                           seed=int(seeds[0])),
            PopulationSpec(workload="ddc", n_samples=scale,
                           seed=int(seeds[1]), axes=wide),
            PopulationSpec(workload="drm", n_samples=2 * scale,
                           seed=int(seeds[2])),
        ]
        self.units_per_pass = sum(s.n_samples for s in self.specs)
        for spec in self.specs:  # warm-up: imports and the report cache
            run_population(replace(spec, n_samples=2_000)).render()
        self.reference: list[str] = []

    def run_pass(self, traced: bool) -> tuple[list[float], dict]:
        from repro.montecarlo import engine

        watch = Stopwatch()
        texts = []
        for spec in self.specs:
            texts.append(engine.run_population(spec).render())
            watch.lap()
        return watch.walls, {"reports": texts}

    def check(self, index: int, outputs: dict) -> dict[str, bool]:
        digests = [digest(text) for text in outputs["reports"]]
        if not self.reference:
            self.reference = digests
        names = ("ddc_default", "ddc_wide", "drm_default")
        return {
            name: d == ref
            for name, d, ref in zip(names, digests, self.reference)
        }

    @staticmethod
    def corrupt(outputs: dict) -> None:
        outputs["reports"][0] = flip_byte(outputs["reports"][0])


# -------------------------------------------------------- bit_true_stream
#: Input samples per DDC output period of the reference configuration.
PERIOD = 2688
#: Output periods the slow oracles replay during set-up.
ORACLE_PERIODS = 2


class BitTrueStream(Workload):
    """A seeded DRM-like stimulus through the five bit-true simulators
    plus one short cycle-accurate RTL run."""

    name = "bit_true_stream"

    def setup(self, traced: bool) -> None:
        from repro import REFERENCE_DDC, FixedDDC
        from repro.archs.fpga.rtl_ddc import RTLDDC
        from repro.archs.gpp.profiler import profile_ddc
        from repro.archs.montium.ddc_mapping import run_ddc_on_tile
        from repro.dsp import drm_like_ofdm
        from repro.dsp.signals import quantize_to_adc
        from repro.workloads.drm import DRMReceiverConfig, drm_receive

        self.config = cfg = REFERENCE_DDC
        periods = 4 if self.tiny else 128
        self.n = n = PERIOD * periods
        self.n_cycle = PERIOD * (1 if self.tiny else 2)
        start = time.perf_counter()
        analog = drm_like_ofdm(
            n, cfg.input_rate_hz, carrier_hz=cfg.nco_frequency_hz,
            seed=self.seed,
        )
        self.x = quantize_to_adc(analog, cfg.data_width)
        self.layer_extras["dsp.stimulus_s"] = time.perf_counter() - start
        self.drm_config = DRMReceiverConfig()
        if self.drm_config.ddc_config(0) != cfg:
            raise RuntimeError("drm rail 0 is not the reference DDC")
        self.units_per_pass = (
            4 * n + self.drm_config.n_channels * n + self.n_cycle
        )
        # Oracles on a prefix: the python kernel tier, the GPP
        # per-instruction interpreter and the stepped Montium tile.
        m = PERIOD * ORACLE_PERIODS
        prefix = self.x[:m]
        self.ref_fixed = FixedDDC(cfg).process(prefix, engine="python")
        self.ref_gpp = profile_ddc(
            cfg, n_samples=m, input_samples=prefix, engine="interp"
        ).out_samples
        tile = run_ddc_on_tile(prefix, cfg, engine="step")
        self.ref_tile = (tile.i, tile.q)
        self.ref_cycle = FixedDDC(cfg).process(self.x[:self.n_cycle])
        # Warm-up: every path once on the prefix.
        RTLDDC(cfg).run(prefix, engine="block")
        RTLDDC(cfg).run(prefix, engine="cycle")
        profile_ddc(cfg, n_samples=m, input_samples=prefix)
        run_ddc_on_tile(prefix, cfg, engine="block")
        drm_receive(prefix, self.drm_config)
        self.reference: str | None = None
        if traced:
            self._stage_inputs()

    def _stage_inputs(self) -> None:
        """Each DSP primitive's input, for the traced per-primitive probe."""
        import numpy as np

        from repro import FixedDDC
        from repro.fixedpoint import QFormat, quantize, saturate
        from repro.fixedpoint.ops import Rounding

        ddc = FixedDDC(self.config)
        w = self.config.data_width
        scale = QFormat(w, w - 1).scale
        cos_f, sin_f = ddc.nco.generate(self.n)
        cos_raw = np.round(cos_f / scale).astype(np.int64)
        sin_raw = np.round(sin_f / scale).astype(np.int64)
        x = self.x.astype(np.int64)
        bus = QFormat(w, 0)
        mixed_i = saturate(quantize(x * cos_raw, w - 1, Rounding.TRUNCATE), bus)
        mixed_q = saturate(
            quantize(-(x * sin_raw), w - 1, Rounding.TRUNCATE), bus
        )
        c2 = (ddc.cic2_i.process(mixed_i), ddc.cic2_q.process(mixed_q))
        c5 = (ddc.cic5_i.process(c2[0]), ddc.cic5_q.process(c2[1]))
        self.stage_inputs = {"mixed": (mixed_i, mixed_q), "cic2": c2,
                             "cic5": c5}

    def run_pass(self, traced: bool) -> tuple[list[float], dict]:
        from repro.archs.fpga import rtl_ddc
        from repro.archs.gpp import profiler
        from repro.archs.montium import ddc_mapping
        from repro.dsp import ddc
        from repro.workloads import drm

        cfg, x = self.config, self.x
        watch = Stopwatch()
        out = {"fixed_ddc": ddc.FixedDDC(cfg).process(x)}
        watch.lap()
        block = rtl_ddc.RTLDDC(cfg).run(x, engine="block", activity=True)
        out["rtl_block"] = (block.i, block.q)
        watch.lap()
        out["gpp_iss"] = profiler.profile_ddc(
            cfg, n_samples=self.n, input_samples=x
        ).out_samples
        watch.lap()
        tile = ddc_mapping.run_ddc_on_tile(x, cfg, engine="block")
        out["montium_tile"] = (tile.i, tile.q)
        watch.lap()
        out["drm_receive"] = drm.drm_receive(x, self.drm_config)
        watch.lap()
        cycle = rtl_ddc.RTLDDC(cfg).run(x[:self.n_cycle], engine="cycle")
        out["rtl_cycle"] = (cycle.i, cycle.q)
        watch.lap()
        return watch.walls, out

    def check(self, index: int, outputs: dict) -> dict[str, bool]:
        import numpy as np

        def equal(a, b) -> bool:
            return len(a) == len(b) and all(
                np.array_equal(u, v) for u, v in zip(a, b)
            )

        fixed = outputs["fixed_ddc"]
        k = len(self.ref_fixed[0])
        rails = outputs["drm_receive"]
        if self.reference is None:
            self.reference = digest((rails.real, rails.imag))
        return {
            "fixed_ddc": equal([a[:k] for a in fixed], self.ref_fixed),
            "rtl_block": equal(outputs["rtl_block"], fixed),
            "gpp_iss": equal(
                [outputs["gpp_iss"][:len(self.ref_gpp)]], [self.ref_gpp]
            ),
            "montium_tile": equal(
                [a[:len(self.ref_tile[0])] for a in outputs["montium_tile"]],
                self.ref_tile,
            ),
            "drm_receive": equal(
                [rails[0].real, rails[0].imag], fixed
            ) and digest((rails.real, rails.imag)) == self.reference,
            "rtl_cycle": equal(outputs["rtl_cycle"], self.ref_cycle),
        }

    @staticmethod
    def corrupt(outputs: dict) -> None:
        i, q = outputs["fixed_ddc"]
        i = i.copy()
        i[0] ^= 1
        outputs["fixed_ddc"] = (i, q)

    def probe(self, tracer) -> None:
        from repro import FixedDDC

        ddc = FixedDDC(self.config)
        stages = self.stage_inputs
        with tracer.span("dsp.nco"):
            ddc.nco.generate(self.n)
        with tracer.span("dsp.cic"):
            ddc.cic2_i.process(stages["mixed"][0])
            ddc.cic2_q.process(stages["mixed"][1])
            ddc.cic5_i.process(stages["cic2"][0])
            ddc.cic5_q.process(stages["cic2"][1])
        with tracer.span("dsp.fir"):
            ddc.fir_i.process(stages["cic5"][0])
            ddc.fir_q.process(stages["cic5"][1])


WORKLOADS = {
    cls.name: cls for cls in (CliCold, DesignSpace, Population, BitTrueStream)
}

"""Tests for repro.montecarlo: distributions, spec, engines, CLI.

The load-bearing property is *byte-identity*: the vectorised population
engine (dedup + chunked fused streaming) and the per-sample scalar
oracle loop must serialise to exactly the same JSON report, for every
workload, chunk size and worker count — and fault
recovery under ``on_error="retry"`` must not perturb a byte either.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.config import REFERENCE_DDC
from repro.energy.scenarios import (
    ScenarioCandidate,
    ScenarioAnalysis,
    check_duty_cycles,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.montecarlo import (
    Choice,
    Mixture,
    Normal,
    PopulationSpec,
    Uniform,
    battery_life_percentile,
    nearest_rank,
    parse_distribution,
    run_population,
)
from repro.montecarlo import engine
from repro.montecarlo.__main__ import main as mc_main
from repro.montecarlo.report import rank_indices
from repro.montecarlo.spec import MAX_CHUNK_SAMPLES, MAX_DUTY_BINS


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


SMALL = dict(n_samples=512, chunk_samples=128)


class TestDistributions:
    def test_uniform_bounds_and_determinism(self):
        d = Uniform(low=0.2, high=0.8)
        a, b = d.sample(rng(), 1000), d.sample(rng(), 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.2 and a.max() <= 0.8
        assert d.bounds() == (0.2, 0.8)

    def test_uniform_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            Uniform(low=1.0, high=0.0)

    def test_normal_clips_to_declared_bounds(self):
        d = Normal(mean=0.5, std=10.0, low=0.0, high=1.0)
        x = d.sample(rng(), 1000)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert d.bounds() == (0.0, 1.0)
        assert Normal(mean=0.0, std=1.0).bounds() is None

    def test_clip_bounds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            Normal(mean=0.0, std=1.0, low=1.0, high=0.0)
        with pytest.raises(ConfigurationError):
            Normal(mean=0.0, std=-1.0)

    def test_mixture_samples_within_component_bounds(self):
        d = Mixture(
            components=(
                (0.5, Uniform(low=0.0, high=0.1)),
                (0.5, Uniform(low=0.9, high=1.0)),
            )
        )
        x = d.sample(rng(), 2000)
        assert d.bounds() == (0.0, 1.0)
        # Both modes present, nothing in the gap.
        assert (x <= 0.1).any() and (x >= 0.9).any()
        assert not ((x > 0.1) & (x < 0.9)).any()

    def test_mixture_rejects_discrete_components(self):
        with pytest.raises(ConfigurationError):
            Mixture(components=((1.0, Choice(values=(1, 2))),))

    def test_choice_validation(self):
        with pytest.raises(ConfigurationError):
            Choice(values=())
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 1))
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 2), weights=(1.0,))
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 2), weights=(-1.0, 2.0))

    def test_choice_weights_bias_sampling(self):
        d = Choice(values=(10, 20), weights=(0.9, 0.1))
        idx = d.sample_indices(rng(), 5000)
        assert set(np.unique(idx)) <= {0, 1}
        assert (idx == 0).mean() > 0.8

    @pytest.mark.parametrize("make, message", [
        (lambda: Uniform(low=float("nan"), high=1.0),
         "Uniform.low must be finite"),
        (lambda: Uniform(low=0.0, high=float("inf")),
         "Uniform.high must be finite"),
        (lambda: Normal(mean=0.3, std=float("inf"), low=0.0, high=1.0),
         "Normal.std must be finite"),
        (lambda: Normal(mean=float("nan"), std=0.1), "Normal.mean must be"),
        (lambda: Normal(mean=0.0, std=1.0, high=float("-inf")),
         "Normal.high must be finite"),
        (lambda: Mixture(components=((float("nan"), Uniform()),)),
         "mixture weights must be non-negative, finite"),
    ])
    def test_non_finite_parameters_are_named(self, make, message):
        with pytest.raises(ConfigurationError, match=message):
            make()


#: Grammar numbers: ``repr`` text that parses back to the same value and
#: type (ints must stay ints).
NUMBERS = st.integers(-10**9, 10**9) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def grammar_cases(draw):
    """``(text, distribution)`` for every kind the grammar accepts, the
    distribution built directly from the numbers the text was made of."""
    kind = draw(st.sampled_from(
        ["uniform", "normal", "clipped", "choice", "weighted", "point"]
    ))
    sep = draw(st.sampled_from([",", ", "]))
    text = lambda name, *args: f"{name}({sep.join(map(str, args))})"
    pair = st.tuples(NUMBERS, NUMBERS).map(sorted)
    if kind == "uniform":
        lo, hi = draw(pair)
        return text("uniform", repr(lo), repr(hi)), Uniform(float(lo), float(hi))
    if kind in ("normal", "clipped"):
        mean = draw(NUMBERS)
        std = draw(st.integers(0, 10**6) | st.floats(0, 1e6))
        clip = draw(pair) if kind == "clipped" else ()
        return (text("normal", *map(repr, (mean, std, *clip))),
                Normal(*map(float, (mean, std, *clip))))
    values = draw(st.lists(NUMBERS, min_size=1, max_size=6, unique_by=repr))
    if kind == "point":
        return text("point", repr(values[0])), Choice(values=(values[0],))
    if kind == "choice":
        return text("choice", *map(repr, values)), Choice(values=tuple(values))
    weights = draw(st.lists(st.floats(0.01, 100), min_size=len(values),
                            max_size=len(values)))
    return (text("choice", *(f"{v!r}:{w!r}" for v, w in zip(values, weights))),
            Choice(values=tuple(values), weights=tuple(weights)))


class TestParseDistribution:
    @settings(max_examples=200, deadline=None)
    @given(case=grammar_cases())
    def test_grammar_round_trip(self, case):
        text, want = case
        got = parse_distribution(text)
        assert got == want
        assert repr(got) == repr(want)  # 63 stays 63, never 63.0

    @pytest.mark.parametrize("text", ["lognormal(0,1,0,1)", "trace(63,125,63)"])
    def test_deleted_kinds_list_the_remaining_ones(self, text):
        with pytest.raises(
            ConfigurationError, match="choose one of: uniform, normal, choice, point$"
        ):
            parse_distribution(text)

    def test_integer_values_stay_integers(self):
        values = parse_distribution("choice(63,125)").values
        assert all(isinstance(v, int) for v in values)

    def test_bad_inputs_are_clean_errors(self):
        for text in (
            "nope(1)", "uniform(1)", "choice()", "choice(1:)",
            "point(1,2)", "uniform(a,b)", "just text",
        ):
            with pytest.raises(ConfigurationError):
                parse_distribution(text)


class TestPopulationSpec:
    def test_defaults_resolve_from_workload(self):
        spec = PopulationSpec(workload="ddc", n_samples=10)
        assert spec.duty_cycle == Uniform(0.0, 1.0)
        assert dict(spec.axes)["fir_taps"].values == (63, 125, 255)
        assert spec.base_config is REFERENCE_DDC
        assert spec.n_distinct_bound() == 3

    def test_chunk_size_is_not_part_of_the_population(self):
        a = PopulationSpec(n_samples=10, chunk_samples=4).describe()
        b = PopulationSpec(n_samples=10, chunk_samples=512).describe()
        assert a == b
        assert "chunk_samples" not in a

    def test_duty_distribution_must_be_bounded_in_unit_interval(self):
        with pytest.raises(ConfigurationError, match="bounded"):
            PopulationSpec(n_samples=10, duty_cycle=Normal(0.5, 0.1))
        with pytest.raises(ConfigurationError, match="bounded"):
            PopulationSpec(n_samples=10, duty_cycle=Uniform(0.0, 1.5))

    def test_axes_must_be_discrete(self):
        with pytest.raises(ConfigurationError, match="discrete"):
            PopulationSpec(
                n_samples=10, axes=(("fir_taps", Uniform(63, 255)),)
            )

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_samples=10, axes=(("no_such_field", Choice(values=(1,))),)
            )

    def test_numeric_validation(self):
        for kwargs in (
            dict(n_samples=0),
            dict(n_samples=10, chunk_samples=0),
            dict(n_samples=10, chunk_samples=MAX_CHUNK_SAMPLES + 1),
            dict(n_samples=10, duty_bins=0),
            dict(n_samples=10, duty_bins=MAX_DUTY_BINS + 1),
            dict(n_samples=10, standby_fraction=1.5),
            dict(n_samples=10, battery_wh=0.0),
            dict(n_samples=10, on_error="explode"),
        ):
            with pytest.raises(ConfigurationError):
                PopulationSpec(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_battery_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="battery_wh must be"):
            PopulationSpec(n_samples=10, battery_wh=value)


class TestDutyCycleValidation:
    """Satellite: batch evaluators must name the offending duty cycle."""

    def test_check_duty_cycles_names_value_and_index(self):
        with pytest.raises(ConfigurationError, match=r"1\.5 at index 2"):
            check_duty_cycles([0.0, 1.0, 1.5])
        with pytest.raises(ConfigurationError, match="nan"):
            check_duty_cycles([0.5, float("nan")])
        with pytest.raises(ConfigurationError):
            check_duty_cycles([])
        with pytest.raises(ConfigurationError):
            check_duty_cycles([[0.1], [0.2]])

    def test_analysis_batch_paths_validate(self):
        cand = ScenarioCandidate("x", active_power_w=1.0,
                                 standby_power_w=0.1)
        analysis = ScenarioAnalysis((cand,))
        with pytest.raises(ConfigurationError, match="-0.25"):
            analysis.cost_batch([0.5, -0.25])
        with pytest.raises(ConfigurationError, match="2.0"):
            analysis.evaluate_batch([2.0])

    def test_streamed_chunks_name_the_global_index(self):
        @dataclasses.dataclass(frozen=True)
        class Liar(Uniform):  # claims [0, 1] but breaks it on its top draws
            def sample(self, rng, n):
                x = super().sample(rng, n)
                x[x > 0.9995] = 1.5
                return x

        spec = PopulationSpec(
            n_samples=2000, chunk_samples=1000, seed=1, duty_cycle=Liar()
        )
        # The duty cycle is the first draw of the seeded generator.
        full = Uniform().sample(np.random.default_rng(spec.seed), spec.n_samples)
        first = int(np.argmax(full > 0.9995))
        assert spec.chunk_samples <= first, "the lie must be past chunk 0"
        with pytest.raises(ConfigurationError, match=rf"1\.5 at index {first}\b"):
            run_population(spec)

    def test_scalar_effective_power_names_value(self):
        cand = ScenarioCandidate("x", active_power_w=1.0,
                                 standby_power_w=0.1)
        with pytest.raises(ConfigurationError, match="1.25"):
            cand.effective_power_w(1.25)


class TestEngineByteIdentity:
    """Identical seeds must give byte-identical JSON everywhere."""

    @pytest.mark.parametrize("workload", ["ddc", "drm"])
    def test_vector_equals_scalar_oracle(self, workload):
        spec = PopulationSpec(workload=workload, seed=3, **SMALL)
        vector = run_population(spec, engine="vector").render()
        scalar = run_population(spec, engine="scalar").render()
        assert vector.encode() == scalar.encode()

    def test_chunk_size_and_workers_do_not_change_bytes(self):
        spec = PopulationSpec(seed=5, **SMALL)
        want = run_population(spec).render()
        for variant in (
            dataclasses.replace(spec, chunk_samples=37),
            dataclasses.replace(spec, chunk_samples=10_000),
        ):
            assert run_population(variant).render() == want
        assert run_population(spec, workers=3).render() == want
        assert run_population(spec, workers=2).render() == want

    def test_different_seed_different_bytes(self):
        a = run_population(PopulationSpec(seed=0, **SMALL)).render()
        b = run_population(PopulationSpec(seed=1, **SMALL)).render()
        assert a != b

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            run_population(PopulationSpec(**SMALL), engine="quantum")

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_population(PopulationSpec(**SMALL), workers=-1)

    def test_huge_worker_count_keeps_one_chunk_per_thread(self, monkeypatch):
        """workers=10**6 must not pull 10**6 chunks into memory at once."""
        from repro.montecarlo import engine

        windows = []

        def spy(fn, items, *args, **kwargs):
            windows.append(len(items))
            return [fn(x) for x in items]

        monkeypatch.setattr(engine, "parallel_map", spy)
        spec = PopulationSpec(seed=5, **SMALL)
        report = run_population(dataclasses.replace(spec, chunk_samples=37),
                                workers=10**6)
        assert report.render() == run_population(spec).render()
        assert max(windows) <= (os.cpu_count() or 1)

    def test_report_document_schema(self):
        report = run_population(PopulationSpec(seed=2, **SMALL))
        doc = json.loads(report.render())
        assert doc["schema"] == "repro-montecarlo/v1"
        assert doc["n_valid_samples"] == SMALL["n_samples"]
        assert doc["partial"] is False
        assert len(doc["duty_bin_edges"]) == doc["spec"]["duty_bins"] + 1
        assert sum(doc["duty_bin_samples"]) == SMALL["n_samples"]
        for arch in doc["architectures"]:
            assert set(arch["power_w"]) == {"p50", "p95", "p99"}
            probs = [
                p for p in arch["win_probability_by_duty"] if p is not None
            ]
            assert all(0.0 <= p <= 1.0 for p in probs)
        total = sum(a["win_probability"] for a in doc["architectures"])
        assert total == pytest.approx(1.0)


class TestFailurePolicy:
    BAD_AXES = (("fir_taps", Choice(values=(63, 0))),)

    def test_raise_mode_raises_on_poisoned_config(self):
        spec = PopulationSpec(axes=self.BAD_AXES, **SMALL)
        with pytest.raises(ConfigurationError, match="fir_taps"):
            run_population(spec)

    def test_skip_mode_records_weighted_failures(self):
        spec = PopulationSpec(axes=self.BAD_AXES, on_error="skip", **SMALL)
        report = run_population(spec)
        assert report.partial
        assert report.n_dropped_samples > 0
        (failure,) = report.failures
        assert failure.phase == "build"
        assert failure.n_samples == report.n_dropped_samples
        assert "fir_taps" in failure.message
        assert report.n_valid_samples + report.n_dropped_samples == (
            SMALL["n_samples"]
        )

    def test_skip_mode_stays_byte_identical_across_engines(self):
        spec = PopulationSpec(
            axes=self.BAD_AXES, on_error="skip", seed=4, **SMALL
        )
        vector = run_population(spec, engine="vector").render()
        scalar = run_population(spec, engine="scalar").render()
        assert vector.encode() == scalar.encode()

    def test_retry_recovers_injected_chunk_fault_byte_identical(self):
        spec = PopulationSpec(seed=6, on_error="retry", **SMALL)
        want = run_population(spec)  # fault-free reference, same spec
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=(1,)),))
        with faults.inject(plan):
            got = run_population(spec)
        assert got.render() == want.render()
        assert not got.partial

    def test_skip_records_injected_chunk_fault_as_partial(self):
        spec = PopulationSpec(seed=6, on_error="skip", **SMALL)
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=(1,)),))
        with faults.inject(plan):
            report = run_population(spec)
        assert report.partial
        (chunk,) = report.chunk_failures
        assert chunk.index == 1
        assert chunk.stop - chunk.start == SMALL["chunk_samples"]
        assert report.n_dropped_samples == SMALL["chunk_samples"]


class TestStreaming:
    """Bounded-memory streaming: lockstep draws, exact selection."""

    CONTINUOUS = st.one_of(
        st.builds(Uniform, low=st.floats(-2, 0), high=st.floats(0, 2)),
        st.builds(Normal, mean=st.floats(-1, 1), std=st.floats(0, 2),
                  low=st.just(-1.0), high=st.just(1.0)),
    )
    DISTRIBUTIONS = st.one_of(
        CONTINUOUS,
        st.builds(
            lambda comps: Mixture(components=tuple(comps)),
            st.lists(st.tuples(st.floats(0.1, 1.0), CONTINUOUS),
                     min_size=1, max_size=3),
        ),
        st.builds(
            lambda w: Choice(values=(1, 2, 3), weights=w),
            st.none() | st.tuples(*[st.floats(0.1, 1.0)] * 3),
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        dist=DISTRIBUTIONS,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        cuts=st.lists(st.integers(1, 2999), max_size=5),
        block=st.integers(1, 4096),
    )
    def test_lockstep_chunks_equal_one_full_draw(
        self, dist, seed, n, cuts, block
    ):
        method = "sample_indices" if isinstance(dist, Choice) else "sample"
        full = getattr(dist, method)(np.random.default_rng(seed), n)
        recorder = engine._DrawRecorder(np.random.default_rng(seed), n, block)
        getattr(dist, method)(recorder, 1)
        stream = engine._Lockstep(recorder.snapshots)
        edges = sorted({0, n, *(c for c in cuts if c < n)})
        parts = [
            getattr(dist, method)(stream, stop - start)
            for start, stop in zip(edges, edges[1:])
        ]
        assert np.array_equal(np.concatenate(parts), full)

    # A weighted two-value axis and a narrow duty, so the configuration
    # sets the power.  With ``miss`` the brackets find nothing, so every
    # wanted position is selected by re-streaming.
    WEIGHTED = dict(
        n_samples=20_000, chunk_samples=1_000, seed=3,
        duty_cycle=Uniform(0.45, 0.55),
        axes=(("fir_taps", Choice(values=(63, 255), weights=(0.2, 0.8))),),
    )

    @staticmethod
    def _digest_and_restreams(spec, plan=None, miss=False, targets=None):
        """The report's sha256 and, per ``_restream`` call, its skipped
        chunks; each call must answer every target it was given, and
        ``targets`` (a list) collects them."""
        calls = []
        original = engine._restream

        def counting(table, chunks, skip, wanted):
            found = original(table, chunks, skip, wanted)
            assert found.keys() == set(wanted)
            calls.append(skip)
            if targets is not None:
                targets.extend(wanted)
            return found

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(engine, "_restream", counting))
            if miss:
                stack.enter_context(mock.patch.object(
                    engine._Brackets, "select", lambda self, wanted: {}
                ))
            if plan is not None:
                stack.enter_context(faults.inject(plan))
            report = run_population(spec)
        return hashlib.sha256(report.render().encode()).hexdigest(), calls

    def test_restream_fallback_is_byte_identical(self):
        spec = PopulationSpec(**self.WEIGHTED)
        targets = []
        digest, calls = self._digest_and_restreams(spec, miss=True, targets=targets)
        assert calls == [set()]
        assert digest == (
            "577d14ab6c69ceb2d9b0c05022504e43a88a6b648de7e98090da5f00c22055d4"
        )
        oracle = run_population(spec, engine="scalar").render()
        assert hashlib.sha256(oracle.encode()).hexdigest() == digest
        # Every position the report reads was re-streamed.
        columns = json.loads(oracle)["architectures"]
        assert sorted(targets) == [
            (j, i) for j, column in enumerate(columns)
            for i in sorted(rank_indices(column["n_feasible"]))
        ]

    @pytest.mark.parametrize("spec_kwargs, keys, miss, restreams, want", [
        (WEIGHTED, (3, 4), True, [{3, 4}],
         "37dc114253e3d8de2f29de8d01c701b7d61e7c4fc7619dc2311cf6c7468feffe"),
        (dict(n_samples=20_000, chunk_samples=1_000, seed=6), (1, 2, 3),
         False, [],
         "ca8f75a04a7c4e631f98d0ae41e1a8540fc23df267e8649e65764b7a39fdda4d"),
    ])
    def test_skipped_chunks_stay_dropped_and_byte_identical(
        self, spec_kwargs, keys, miss, restreams, want
    ):
        spec = PopulationSpec(on_error="skip", **spec_kwargs)
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=keys),))
        assert self._digest_and_restreams(spec, plan, miss) == (want, restreams)
        if miss:  # the brackets' own answer is the same report
            assert self._digest_and_restreams(spec, plan)[0] == want

    @pytest.mark.parametrize("workload, want", [
        ("ddc",
         "b90d69c9dac3e8467e3b817386746dbc44101ae182dccdadf0de4bc6bb264e13"),
        ("drm",
         "ec26393e534e6be6fceb698b32ca8dacf2d5b241d7e4ae080b30ba56ca76a155"),
    ])
    def test_reference_config_only_population(self, workload, want):
        spec = PopulationSpec(
            workload=workload, n_samples=3000, seed=4, axes=(),
            chunk_samples=1000,
        )
        text = run_population(spec).render()
        assert hashlib.sha256(text.encode()).hexdigest() == want
        assert run_population(spec, engine="scalar").render() == text

    def test_peak_memory_does_not_grow_with_population(self):
        spec = PopulationSpec(seed=1, n_samples=1_000)
        run_population(spec)  # warm the report cache and the imports

        def peak(n):
            tracemalloc.start()
            try:
                run_population(dataclasses.replace(spec, n_samples=n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 21) <= 1.5 * peak(1 << 18)

    @pytest.mark.parametrize("engine_name, limit", [
        ("vector", engine.MAX_VECTOR_SAMPLES),
        ("scalar", engine.MAX_SCALAR_SAMPLES),
    ])
    def test_oversized_population_refused_before_any_draw(
        self, engine_name, limit
    ):
        spec = PopulationSpec(n_samples=limit + 1)
        with mock.patch.object(engine, "_DrawRecorder") as recorder:
            with pytest.raises(ConfigurationError, match="n_samples"):
                run_population(spec, engine=engine_name)
        recorder.assert_not_called()


#: sha256 of ``render()`` as the whole-array engine (one up-front draw,
#: full column sorts) produced it; the streamed engine must reproduce
#: every byte.  Keys are ``workload-seed-n_samples``; ``wide`` is the
#: 3-axis ddc population of :data:`WIDE_AXES`.
PINNED_DIGESTS = {
    "ddc-0-1":
        "d01328a4e8bfa38365bd125a48a2c27e0573c7ef46b244092f8bc643aab41b0a",
    "ddc-0-999":
        "3896027dacc943715f1cfb9681b129a4bee11f8427010490d41e912dd230e931",
    "ddc-0-100000":
        "a37c21b14bd94c00eb44a7af4b3eff3c7cce76a53ef8765b2d18b5f50d108046",
    "ddc-0-1000000":
        "994f8bbba1aa321335f6a793722a31fb9f1bd9207d7747433945829aeb24452f",
    "ddc-1-1":
        "da2258592559deef2440658c10827f188e54b22b3d39ce178f49ee9ecdc0c3cb",
    "ddc-1-999":
        "a7858d6030dba4d699ca3be152d90b01cca37ac3f5f47bcf3b1c5224eff49212",
    "ddc-1-100000":
        "b14502418fa85932800d00452276c170cecb2ad788b0612992f821176470c545",
    "ddc-1-1000000":
        "32c7790d548804d235d5840c46e3d41288d8af573f5fe74b22a803a12489cbc0",
    "ddc-7-1":
        "a18260d7179dcb48bfa1b276aae86222901e4a53026d3c4ccbea3930361c3dd2",
    "ddc-7-999":
        "b32480048d87a87428caa972ff4badfb8f61f1ee04ff947331247666f20ffec6",
    "ddc-7-100000":
        "a66f6c323fd7b6b30cc1bec96da7837ab5a73882e2053db6ecd890bcc101104e",
    "ddc-7-1000000":
        "59d03fdfac05459bff58be91fdadf537c31592cd0c96955d20f302928e628407",
    "drm-0-1":
        "9a9257127e8a8feec4cacf122b855c44a95dfbf710b57c86a9301a931bf947a5",
    "drm-0-999":
        "b7660396c28903d88e6d12937557b110714c4097e72ee951010b07d196fd97b1",
    "drm-0-100000":
        "667e8667ecf6776ab8f24b0cd24cc8cb32080cf54a9e36c9424d837dd11a8907",
    "drm-0-1000000":
        "817a4e840f86841476aa6155b98a59e45b68d9c338153506f573c1aae5e67c7f",
    "drm-1-1":
        "52d9923c6ee1cf16454ad322280b8b0b6cb8cabcc587677b240f76c9971ef769",
    "drm-1-999":
        "b7810f156ddd85c3de26d8614d97380e8ff25be1011080f2ddb89481e2d22129",
    "drm-1-100000":
        "532a5cd2858d2ec3050d590e621b0770223a2f8aeb29caa43c7703e36414005d",
    "drm-1-1000000":
        "98de8845d6237be8ce53cd414985f029167574d5c55cd4bc26b6e7ee7cf23534",
    "drm-7-1":
        "c39a78d2125420d9fb46430fcfc05f57a3c4a246dd918b7dbf676e313ee8aa90",
    "drm-7-999":
        "172197ffb1c4f5597b309917e717faac4e1c6f3f2a09a490e98b0a4864ae2f87",
    "drm-7-100000":
        "3acc208620cd774a78e3fa99644a8363c3d4597026c351f8b9b2f35d7500530b",
    "drm-7-1000000":
        "6ee4e021589c6d615ae49c0aae378ff5023e70b0479c9ce2a68af5c83aed4e88",
    "wide-0-100000":
        "629bb2880ed62c658ed12b93095a3a72ff01426d91c746180f97495ee5f4d6c5",
    "wide-1-100000":
        "5efd486e69a1e294cd958f70632741fb699dbd69656afff7370593b27a90ee54",
    "wide-7-100000":
        "cd9c20670c7ed4370ef0f36a3f5a2ab5e74cc8e04d74db50d0a2d4b974ffe370",
}
WIDE_AXES = (
    ("fir_taps", Choice(values=(31, 63, 95, 125, 255))),
    ("data_width", Choice(values=(8, 10, 12, 13, 14, 16))),
    ("cic5_order", Choice(values=(4, 5))),
)
#: Execution variants: (spec overrides, run_population kwargs).
VARIANTS = {
    "chunk1": ({"chunk_samples": 1}, {}),
    "chunk1000": ({"chunk_samples": 1000}, {}),
    "chunk65536": ({"chunk_samples": 65536}, {}),
    "thread2": ({}, {"workers": 2}),
    # many in-flight windows of one chunk per pool thread
    "thread2chunk1000": ({"chunk_samples": 1000}, {"workers": 2}),
}


def _pinned_cases():
    for key in PINNED_DIGESTS:
        n = int(key.rsplit("-", 1)[1])
        for variant in VARIANTS:
            if variant != "chunk1" or n <= 999:
                yield pytest.param(key, variant, id=f"{key}-{variant}")


class TestPinnedDigests:
    @pytest.mark.parametrize("key, variant", _pinned_cases())
    def test_streamed_report_matches_pinned_digest(self, key, variant):
        workload, seed, n = key.split("-")
        axes = WIDE_AXES if workload == "wide" else None
        overrides, run_kwargs = VARIANTS[variant]
        spec = PopulationSpec(
            workload="ddc" if axes else workload, seed=int(seed),
            n_samples=int(n), axes=axes, **overrides,
        )
        text = run_population(spec, **run_kwargs).render()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            PINNED_DIGESTS[key]
        )


class TestColumnIdentity:
    """A column's name and ``reusable`` flag come from its model, not
    from the first feasible row."""

    def test_never_feasible_columns(self):
        """Regression: at 95 MHz neither Cyclone meets timing, and the
        columns with no feasible row were printed under the device
        names with ``reusable`` false, as was the ARM922T's always."""
        spec = PopulationSpec(
            n_samples=1000, seed=0,
            axes=(("input_rate_hz", Choice(values=(95e6,))),),
        )
        text = run_population(spec).render()
        assert run_population(spec, engine="scalar").render() == text
        columns = {a["name"]: a for a in json.loads(text)["architectures"]}
        assert list(columns) == [
            "TI GC4016", "Customised Low Power DDC", "ARM922T",
            "Altera Cyclone I", "Altera Cyclone II", "Montium TP",
        ]
        for name in ("ARM922T", "Altera Cyclone I", "Altera Cyclone II"):
            assert columns[name]["n_feasible"] == 0
            assert columns[name]["reusable"] is True
        assert columns["Montium TP"]["reusable"] is True
        assert columns["TI GC4016"]["reusable"] is False


class TestReportHelpers:
    def test_nearest_rank_is_an_actual_sample_value(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert nearest_rank(x, 50.0) == 2.0
        assert nearest_rank(x, 100.0) == 4.0
        assert nearest_rank(x, 1.0) == 1.0
        assert nearest_rank(np.array([]), 50.0) is None

    def test_battery_life_comes_from_the_opposite_tail(self):
        x = np.array([0.5, 1.0, 2.0])
        # p50 life <- p50-from-the-top power (here the median, 1.0 W).
        assert battery_life_percentile(x, 50.0, 3.7) == 3.7 / 1.0
        assert battery_life_percentile(x, 100.0, 3.7) == 3.7 / 0.5
        assert battery_life_percentile(np.array([0.0]), 50.0, 3.7) is None

    def test_winner_tie_matches_scalar_first_minimum_rule(self):
        from repro.energy.scenarios import winner_counts

        powers = np.array([[1.0, 1.0], [np.nan, np.nan]])
        counts = winner_counts(powers, np.array([0, 0]), 1)
        # Tie goes to the first column; the all-nan row counts nowhere.
        assert counts.tolist() == [[1, 0]]


class TestCLI:
    def test_verify_mode_passes(self, capsys):
        assert mc_main(["--samples", "300", "--chunk-samples", "128",
                        "--verify"]) == 0
        captured = capsys.readouterr()
        assert "verify OK" in captured.out and "speedup" in captured.err

    def test_json_output_and_summary(self, capsys, tmp_path):
        path = tmp_path / "pop.json"
        assert mc_main(["--samples", "200", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["spec"]["n_samples"] == 200
        assert mc_main(["--samples", "200", "--summary"]) == 0
        assert "architecture" in capsys.readouterr().out

    def test_axis_and_duty_flags(self, capsys):
        assert mc_main([
            "--samples", "200", "--duty", "normal(0.2,0.1,0,1)",
            "--axis", "fir_taps=choice(63,125)", "--summary",
        ]) == 0

    def test_bad_distribution_is_a_clean_error(self, capsys):
        assert mc_main(["--duty", "nope(1)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unbounded_duty_is_a_clean_error(self, capsys):
        assert mc_main(["--duty", "normal(0.5,0.2)"]) == 2
        assert "bounded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--samples", "1000000000000"], "n_samples"),
        (["--battery-wh", "nan"], "battery_wh"),
        (["--duty", "normal(0.3,inf,0,1)"], "std"),
        (["--duty", "uniform(nan,1)"], "low"),
        # refused when the spec is built, before any memory is taken
        (["--samples", "1000", "--duty-bins", "1000000000"], "duty_bins"),
        (["--samples", "100000000", "--chunk-samples", "100000000"],
         "chunk_samples"),
        (["--duty", "lognormal(0,1,0,1)"], "uniform, normal, choice, point"),
        (["--axis", "fir_taps=trace(63,125,63)"],
         "uniform, normal, choice, point"),
    ])
    def test_refused_inputs_exit_2_naming_the_field(self, capsys, argv, field):
        assert mc_main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and field in line

    def test_partial_run_exits_3(self, capsys):
        code = mc_main([
            "--samples", "200", "--axis", "fir_taps=choice(63,0)",
            "--on-error", "skip",
        ])
        assert code == 3
        assert "partial" in capsys.readouterr().err

    def test_bench_list_names_population_bench(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "montecarlo_population  [guarded]" in out
        assert "ddc_gold\n" in out  # unguarded entries are unmarked

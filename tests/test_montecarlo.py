"""Tests for repro.montecarlo: distributions, spec, engines, CLI.

The load-bearing property is *byte-identity*: the vectorised population
engine (dedup + chunked fused streaming) and the per-sample scalar
oracle loop must serialise to exactly the same JSON report, for every
workload, chunk size, worker count and pool backend — and fault
recovery under ``on_error="retry"`` must not perturb a byte either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
    LogNormal,
    Mixture,
    Normal,
    PopulationSpec,
    Trace,
    Uniform,
    battery_life_percentile,
    nearest_rank,
    parse_distribution,
    run_population,
)
from repro.montecarlo import engine
from repro.montecarlo.__main__ import main as mc_main


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
            LogNormal(mu=0.0, sigma=-1.0)

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

    def test_trace_cycle_replays_in_order(self):
        d = Trace(trace=(5, 7, 5), replay="cycle")
        assert d.support == (5, 7)
        idx = d.sample_indices(rng(), 7)
        # positions 0..6 mod 3 -> values 5,7,5,5,7,5,5 -> support rows.
        assert idx.tolist() == [0, 1, 0, 0, 1, 0, 0]

    def test_trace_bootstrap_follows_empirical_weights(self):
        d = Trace(trace=(1, 1, 1, 2), replay="bootstrap")
        idx = d.sample_indices(rng(), 4000)
        assert 0.6 < (idx == 0).mean() < 0.9

    def test_trace_validation(self):
        with pytest.raises(ConfigurationError):
            Trace(trace=())
        with pytest.raises(ConfigurationError):
            Trace(trace=(1,), replay="backwards")

    @pytest.mark.parametrize("make, message", [
        (lambda: Uniform(low=float("nan"), high=1.0),
         "Uniform.low must be finite"),
        (lambda: Uniform(low=0.0, high=float("inf")),
         "Uniform.high must be finite"),
        (lambda: Normal(mean=0.3, std=float("inf"), low=0.0, high=1.0),
         "Normal.std must be finite"),
        (lambda: Normal(mean=float("nan"), std=0.1), "Normal.mean must be"),
        (lambda: LogNormal(mu=0.0, sigma=1.0, high=float("-inf")),
         "LogNormal.high must be finite"),
        (lambda: Mixture(components=((float("nan"), Uniform()),)),
         "mixture weights must be non-negative, finite"),
    ])
    def test_non_finite_parameters_are_named(self, make, message):
        with pytest.raises(ConfigurationError, match=message):
            make()

    def test_describe_hides_internal_fields(self):
        doc = Trace(trace=(1, 2), replay="cycle").describe()
        assert doc["kind"] == "trace"
        assert not any(k.startswith("_") for k in doc)


class TestParseDistribution:
    def test_grammar_round_trip(self):
        assert parse_distribution("uniform(0,1)") == Uniform(0.0, 1.0)
        assert parse_distribution("normal(0.3,0.1)") == Normal(0.3, 0.1)
        assert parse_distribution("normal(0.3,0.1,0,1)") == Normal(
            0.3, 0.1, 0.0, 1.0
        )
        assert parse_distribution("lognormal(0,0.5)") == LogNormal(0.0, 0.5)
        assert parse_distribution("choice(63,125)") == Choice(values=(63, 125))
        assert parse_distribution("choice(1:0.6,2:0.4)") == Choice(
            values=(1, 2), weights=(0.6, 0.4)
        )
        assert parse_distribution("trace(63,125,63)") == Trace(
            trace=(63, 125, 63), replay="cycle"
        )
        assert parse_distribution("point(125)") == Choice(values=(125,))

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
        assert dict(spec.axes)["fir_taps"].support == (63, 125, 255)
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
            dict(n_samples=10, duty_bins=0),
            dict(n_samples=10, standby_fraction=1.5),
            dict(n_samples=10, battery_wh=0.0),
            dict(n_samples=10, percentiles=()),
            dict(n_samples=10, percentiles=(0.0,)),
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
        class Liar(Uniform):  # claims [0, 1] but breaks it at user 1234
            def sample(self, rng, n, offset=0):
                x = super().sample(rng, n, offset)
                x[np.arange(offset, offset + n) == 1234] = 1.5
                return x

        spec = PopulationSpec(
            n_samples=2000, chunk_samples=1000, duty_cycle=Liar()
        )
        with pytest.raises(ConfigurationError, match="1.5 at index 1234"):
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

    def test_chunk_size_workers_backend_do_not_change_bytes(self):
        spec = PopulationSpec(seed=5, **SMALL)
        want = run_population(spec).render()
        for variant in (
            dataclasses.replace(spec, chunk_samples=37),
            dataclasses.replace(spec, chunk_samples=10_000),
        ):
            assert run_population(variant).render() == want
        assert run_population(spec, workers=3).render() == want
        assert (
            run_population(spec, workers=2, backend="process").render()
            == want
        )

    def test_different_seed_different_bytes(self):
        a = run_population(PopulationSpec(seed=0, **SMALL)).render()
        b = run_population(PopulationSpec(seed=1, **SMALL)).render()
        assert a != b

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            run_population(PopulationSpec(**SMALL), engine="quantum")

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
        st.builds(LogNormal, mu=st.floats(-1, 1), sigma=st.floats(0, 1)),
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
        st.builds(
            lambda t, replay: Trace(trace=tuple(t), replay=replay),
            st.lists(st.integers(0, 4), min_size=1, max_size=9),
            st.sampled_from(["bootstrap", "cycle"]),
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
        method = "sample_indices" if dist.discrete else "sample"
        full = getattr(dist, method)(np.random.default_rng(seed), n)
        recorder = engine._DrawRecorder(np.random.default_rng(seed), n, block)
        getattr(dist, method)(recorder, 1)
        stream = engine._Lockstep(recorder.snapshots)
        edges = sorted({0, n, *(c for c in cuts if c < n)})
        parts = [
            getattr(dist, method)(stream, stop - start, start)
            for start, stop in zip(edges, edges[1:])
        ]
        assert np.array_equal(np.concatenate(parts), full)

    # A cycled trace whose first chunk holds only fir_taps=63, most users
    # 255, and a narrow duty so the configuration sets the power: the
    # brackets seeded on the first chunk miss, and re-streaming answers.
    CYCLE = dict(
        n_samples=20_000, chunk_samples=1_000, seed=3,
        duty_cycle=Uniform(0.45, 0.55),
        axes=(("fir_taps", Trace(
            trace=(63,) * 1000 + (255,) * 4000, replay="cycle",
        )),),
    )

    @staticmethod
    def _digest_and_restreams(spec, plan=None):
        calls = []
        original = engine._restream

        def counting(*args, **kwargs):
            calls.append(args[-2])  # the skipped chunks
            return original(*args, **kwargs)

        with mock.patch.object(engine, "_restream", counting):
            if plan is None:
                report = run_population(spec)
            else:
                with faults.inject(plan):
                    report = run_population(spec)
        return hashlib.sha256(report.render().encode()).hexdigest(), calls

    def test_restream_fallback_is_byte_identical(self):
        spec = PopulationSpec(**self.CYCLE)
        digest, calls = self._digest_and_restreams(spec)
        assert calls, "the first-chunk brackets were expected to miss"
        assert digest == (
            "83919e45ec0dacf4f1d08f6d8ad2c5e235d3fec777234bebb1e8fece4d87fbc8"
        )
        oracle = run_population(spec, engine="scalar").render()
        assert hashlib.sha256(oracle.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec_kwargs, keys, restreams, want", [
        (CYCLE, (3, 4), [{3, 4}],
         "5a9170c8a32784fa8f164443148b9938f4d8c4036d50d53c4db0b91144982cf3"),
        (dict(n_samples=20_000, chunk_samples=1_000, seed=6), (1, 2, 3), [],
         "7554d7094c503b9ac35be661536275a323220f55d36be28761bce0b8bd928a3d"),
    ])
    def test_skipped_chunks_stay_dropped_and_byte_identical(
        self, spec_kwargs, keys, restreams, want
    ):
        spec = PopulationSpec(on_error="skip", **spec_kwargs)
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=keys),))
        assert self._digest_and_restreams(spec, plan) == (want, restreams)

    @pytest.mark.parametrize("workload, want", [
        ("ddc",
         "b784dbb3e69e07c93c599c2f102e1f35dd6a136a50cd9d680de5dfb7e41cde52"),
        ("drm",
         "44865a36758b8a1908c4fc75df28bd7279875dfad2905e4a8274f57d27cd46df"),
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
        "8b8e29dd61f2eae4b755fc9129655d0705f921a4884d44a03d32ca5743d227c2",
    "ddc-0-999":
        "49b47ee9239a0f3e40cb19443e649f2f20f4f4b4ee695f49892c0b2ce2b12f9c",
    "ddc-0-100000":
        "497968696cc5ac563d3365ea19f6c998cf37c06f514440f8ff137fb168c6218b",
    "ddc-0-1000000":
        "df1923d2786811c839be15307b3561dba3f29ea230869898d8654e716146f415",
    "ddc-1-1":
        "4004314f6c98eb0da660e2f5b16010e5f76c1c2a514d0fc1f82d28b8af92eefe",
    "ddc-1-999":
        "7b4d7ad92641d604091a9f8162b2aca5d74f4ca1547c21c332d57293a8320233",
    "ddc-1-100000":
        "45bbf6436718bcc071a23d9d482d8b4f03c976a4790ec54b419e19045a1d25c1",
    "ddc-1-1000000":
        "4a873aaf708910d7062d467bab4305d67519bc76667d357d075c2d13bd0513d1",
    "ddc-7-1":
        "27ad7d69fab849257bef176cb98d3db090122e2cd8d362020f5ddd28e8420fbe",
    "ddc-7-999":
        "db75e6663e3c0b10d0eefec796dd2a66acbe41b1805258a272de251e9495664c",
    "ddc-7-100000":
        "7c0e59b561480128610ad40000dd62d1da16592ecca1f11b221b7aa3d6f0aee5",
    "ddc-7-1000000":
        "82b128415d36c36c075fc6f472603bd9fc8d9ba17cd887e4cd18e6d9fa537ee6",
    "drm-0-1":
        "51d14a5dd3346d6565faa9198469d1a5335058e753a22d552d7a8c11813df5fd",
    "drm-0-999":
        "a0df735cf62a1a8fb3dee7aa44ea5f81721813ca5738aec733bde384c4b4e97c",
    "drm-0-100000":
        "a8776faff6967c37256776581ca56901abdac5c2f145120ee060c3d3aeba71f7",
    "drm-0-1000000":
        "815169f9ec11eaffce572020a25ea97a1843611588055b6ee85ef01265bed78b",
    "drm-1-1":
        "db46211dba8175d41c88c76027b3cbc288b33c499f67f77b7cc9136134eb701e",
    "drm-1-999":
        "fa4de4e7b2116f087c9bc6fb18bbdb0c1008dae369d4b9c245e1ba08c8fa97a5",
    "drm-1-100000":
        "9ad7e67cf71578574ea705ebb10964ce52df7e226d796937bbb77149af4deb5a",
    "drm-1-1000000":
        "4e87d7aace1d10b53d0aee8cffdd3d24b9907c248900119cc1f632520853a7df",
    "drm-7-1":
        "c3024bbeac454af7f1a74baf3433b08d2f728d562a6b3623b7cc5ac92045000b",
    "drm-7-999":
        "4b80317d0dac9f8c72dd13f3e938c114b281c1719338119ddb317216147b4b4b",
    "drm-7-100000":
        "e71daaad40505924b3b85cd86fa6f74708ad6ddc46fa55a2afe4700f67b39f98",
    "drm-7-1000000":
        "aa3e91cf456049d5c75c76d1e4195f4e2bf5cd7b74a62cbb6056b83cc6ee5b70",
    "wide-0-100000":
        "550e6be5f68d8d67e259e33f3396efb2d92fe122890ad7c91691e16ec6fe19fd",
    "wide-1-100000":
        "1ce73ca9a4240f07594a77969117dffff086be003fb45f8d7fef1d91f60840c0",
    "wide-7-100000":
        "c35d95830a58bdd97e3461db78c3146dd112050c83eb6abcccd5dc44f1c4f397",
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
    "process2": ({}, {"workers": 2, "backend": "process"}),
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
        out = capsys.readouterr().out
        assert "verify OK" in out and "speedup" in out

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
    ])
    def test_refused_inputs_exit_2_naming_the_field(self, capsys, argv, field):
        assert mc_main(argv) == 2
        assert field in capsys.readouterr().err

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

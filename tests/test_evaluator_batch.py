"""The batched architecture-model layer: implement_batch == implement.

The load-bearing contract of the batched evaluator stack (mirroring the
fast-path/oracle convention of ``tests/test_fast_engine.py``):

- every model's ``implement_batch`` is **bit-identical** to the scalar
  ``implement`` loop — reports, feasibility, and the mapping errors of
  unmappable configurations alike (Hypothesis-pinned over random
  configuration batches);
- the analytic GPP profile behind ``ARM9Model.implement_batch`` carries
  the same statistics as actually executing the generated program;
- :class:`~repro.core.evaluator.ReportCache` serves repeated
  configurations without re-running models, caches mapping errors,
  invalidates explicitly, and stays picklable;
- :class:`~repro.core.evaluator.DDCEvaluator` is stateless — interleaved
  evaluations of different configurations on one instance answer each
  configuration correctly.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archs.base import BatchImplementationReport
from repro.archs.gpp.profiler import profile_ddc, profile_ddc_analytic
from repro.config import DDCConfig, GC4016_GSM_EXAMPLE, REFERENCE_DDC
from repro.core.evaluator import (
    DDCEvaluator,
    ReportCache,
    config_cache_key,
    default_models,
)
from repro.errors import ConfigurationError
from repro.workloads import get as get_workload

#: A configuration no default model set restricted to the Montium can map.
OFF_REFERENCE = dataclasses.replace(
    REFERENCE_DDC, cic5_decimation=42, fir_decimation=4
)

#: Feasibility flips vs the reference: 200 MHz input exceeds both Cyclone
#: fmax figures, so the reconfigurable race goes to the Montium.
FAST_INPUT = dataclasses.replace(REFERENCE_DDC, input_rate_hz=200e6)


def configs_strategy():
    """Small random configuration batches spanning mappable, infeasible
    and unmappable points for every model."""
    config = st.builds(
        DDCConfig,
        input_rate_hz=st.sampled_from([8_064_000.0, 64_512_000.0, 2e8]),
        cic2_decimation=st.sampled_from([1, 2, 16]),
        cic5_decimation=st.sampled_from([4, 21]),
        fir_decimation=st.sampled_from([1, 2, 8]),
        fir_taps=st.sampled_from([1, 63, 125]),
        data_width=st.sampled_from([8, 12, 16]),
        cic2_order=st.sampled_from([0, 2]),
        cic5_order=st.sampled_from([2, 5]),
        nco_frequency_hz=st.sampled_from([0.0, 1e6]),
    )
    return st.lists(config, min_size=1, max_size=4)


def assert_batch_equals_scalar(model, configs) -> None:
    batch = model.implement_batch(configs)
    scalar = model.implement_batch_scalar(configs)
    assert isinstance(batch, BatchImplementationReport)
    assert len(batch) == len(scalar) == len(configs)
    for i in range(len(configs)):
        assert batch.reports[i] == scalar.reports[i], configs[i]
        b_err, s_err = batch.errors[i], scalar.errors[i]
        assert (b_err is None) == (s_err is None), configs[i]
        if b_err is not None:
            assert type(b_err) is type(s_err)
            assert str(b_err) == str(s_err)
        assert bool(batch.mappable[i]) == (s_err is None)
        if scalar.reports[i] is not None:
            assert batch.power_w[i] == scalar.reports[i].power_w
            assert batch.clock_hz[i] == scalar.reports[i].clock_hz
            assert bool(batch.feasible[i]) == scalar.reports[i].feasible


class TestImplementBatchEqualsScalar:
    """implement_batch is bit-identical to the scalar implement loop."""

    @pytest.mark.parametrize(
        "model", default_models(), ids=lambda m: m.name
    )
    def test_reference_and_edge_configs(self, model):
        assert_batch_equals_scalar(
            model,
            [REFERENCE_DDC, OFF_REFERENCE, FAST_INPUT, GC4016_GSM_EXAMPLE],
        )

    @pytest.mark.parametrize(
        "model", default_models(), ids=lambda m: m.name
    )
    @settings(max_examples=12, deadline=None)
    @given(configs=configs_strategy())
    def test_random_batches(self, model, configs):
        assert_batch_equals_scalar(model, configs)

    def test_report_at_raises_the_scalar_error(self):
        from repro.archs.montium.model import MontiumModel

        batch = MontiumModel().implement_batch([OFF_REFERENCE])
        with pytest.raises(ConfigurationError, match="16/21/8"):
            batch.report_at(0)

    def test_empty_batch(self):
        for model in default_models():
            batch = model.implement_batch([])
            assert len(batch) == 0


class TestAnalyticGPPProfile:
    """The closed-form profile carries executed-run statistics."""

    @pytest.mark.parametrize(
        "config",
        [
            REFERENCE_DDC,
            OFF_REFERENCE,
            dataclasses.replace(REFERENCE_DDC, fir_taps=63, data_width=10),
            dataclasses.replace(
                REFERENCE_DDC, cic2_decimation=2, cic5_decimation=4,
                fir_decimation=2, fir_taps=7,
            ),
        ],
        ids=["reference", "off-reference", "narrow", "tiny"],
    )
    def test_statistics_match_execution(self, config):
        analytic = profile_ddc_analytic(config)
        executed = profile_ddc(config, engine="auto")
        assert analytic is not None
        assert analytic.stats.instructions == executed.stats.instructions
        assert analytic.stats.cycles == executed.stats.cycles
        assert dict(analytic.stats.region_cycles) == dict(
            executed.stats.region_cycles
        )
        assert dict(analytic.stats.region_instructions) == dict(
            executed.stats.region_instructions
        )
        assert analytic.region_fractions == executed.region_fractions
        assert analytic.required_clock_hz == executed.required_clock_hz

    def test_non_reference_orders_decline(self):
        # codegen only emits the CIC2+CIC5 chain: the analytic path must
        # hand such configurations back to the scalar fallback.
        assert profile_ddc_analytic(GC4016_GSM_EXAMPLE) is None


class _CountingModel:
    """Wraps a model, counting implement_batch configurations served."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.served = 0

    def cache_key(self):
        return self.inner.cache_key()

    def implement(self, config):
        return self.inner.implement(config)

    def implement_batch(self, configs):
        self.served += len(configs)
        return self.inner.implement_batch(configs)


class TestReportCache:
    def _model(self):
        from repro.archs.asic.lowpower import LowPowerDDCModel

        return _CountingModel(LowPowerDDCModel())

    def test_hits_and_misses(self):
        cache = ReportCache()
        model = self._model()
        first = cache.implement(model, REFERENCE_DDC)
        again = cache.implement(model, REFERENCE_DDC)
        assert first == again
        assert model.served == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_hashing_ignores_object_identity(self):
        cache = ReportCache()
        model = self._model()
        cache.implement(model, DDCConfig())
        cache.implement(model, dataclasses.replace(DDCConfig()))
        assert model.served == 1
        assert config_cache_key(DDCConfig()) == config_cache_key(
            dataclasses.replace(DDCConfig())
        )

    def test_batch_serves_only_the_misses(self):
        cache = ReportCache()
        model = self._model()
        grid = [
            dataclasses.replace(REFERENCE_DDC, data_width=w)
            for w in (8, 10, 12)
        ]
        cache.implement(model, grid[1])
        batch = cache.implement_batch(model, grid)
        assert model.served == 3  # one scalar miss + two batch misses
        assert [r is not None for r in batch.reports] == [True] * 3
        assert batch.reports == model.inner.implement_batch(grid).reports

    def test_mapping_errors_are_cached(self):
        from repro.archs.montium.model import MontiumModel

        cache = ReportCache()
        model = _CountingModel(MontiumModel())
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="16/21/8"):
                cache.implement(model, OFF_REFERENCE)
        assert model.served == 1

    def test_invalidate_one_model(self):
        cache = ReportCache()
        model = self._model()
        other = _CountingModel(self._model().inner)
        cache.implement(model, REFERENCE_DDC)
        cache.implement(other, OFF_REFERENCE)
        assert cache.invalidate(model) == 2  # both entries share the key
        assert len(cache) == 0
        cache.implement(model, REFERENCE_DDC)
        assert model.served == 2

    def test_clear_resets_counters(self):
        cache = ReportCache()
        cache.implement(self._model(), REFERENCE_DDC)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    def test_cache_is_picklable(self):
        """The picklability contract: a populated cache round-trips, so
        process-pool workers can hold one."""
        cache = ReportCache()
        for model in default_models():
            cache.implement_batch(
                model, [REFERENCE_DDC, OFF_REFERENCE]
            )
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == len(cache)
        model = self._model()
        assert clone.implement(model, REFERENCE_DDC) == cache.implement(
            model, REFERENCE_DDC
        )

    def test_cached_batch_matches_uncached_when_all_unmappable(self):
        """The architecture label must not depend on cache state, even
        when no config in the batch is mappable."""
        from repro.archs.fpga.devices import CYCLONE_II_EP2C5
        from repro.archs.fpga.model import CycloneModel

        too_big = dataclasses.replace(REFERENCE_DDC, fir_taps=5000)
        model = CycloneModel(CYCLONE_II_EP2C5)
        uncached = model.implement_batch([too_big])
        cache = ReportCache()
        cold = cache.implement_batch(model, [too_big])
        warm = cache.implement_batch(model, [too_big])
        assert (
            cold.architecture
            == warm.architecture
            == uncached.architecture
            == "Altera Cyclone II"
        )

    def test_distinct_model_parameters_do_not_collide(self):
        from repro.archs.fpga.devices import (
            CYCLONE_I_EP1C3,
            CYCLONE_II_EP2C5,
        )
        from repro.archs.fpga.model import CycloneModel

        cache = ReportCache()
        one = cache.implement(
            CycloneModel(CYCLONE_I_EP1C3), REFERENCE_DDC
        )
        two = cache.implement(
            CycloneModel(CYCLONE_II_EP2C5), REFERENCE_DDC
        )
        assert one != two and len(cache) == 2


class TestStatelessEvaluator:
    def test_interleaved_evaluates_are_config_correct(self):
        """Regression: the seed evaluator kept ``_last_config`` state, so
        winners could follow the most recent call's configuration instead
        of the one whose reports were being judged."""
        ev = DDCEvaluator()
        first_a = ev.evaluate(REFERENCE_DDC)
        first_b = ev.evaluate(FAST_INPUT)
        again_a = ev.evaluate(REFERENCE_DDC)
        again_b = ev.evaluate(FAST_INPUT)
        fresh_a = DDCEvaluator().evaluate(REFERENCE_DDC)
        fresh_b = DDCEvaluator().evaluate(FAST_INPUT)
        # The two configurations disagree on the winner, so any leakage
        # of one call's configuration into the other is visible.
        assert fresh_a.reconfigurable_winner != fresh_b.reconfigurable_winner
        for result, fresh in (
            (first_a, fresh_a), (again_a, fresh_a),
            (first_b, fresh_b), (again_b, fresh_b),
        ):
            assert result.reconfigurable_winner == fresh.reconfigurable_winner
            assert result.static_winner == fresh.static_winner
            assert result.reports == fresh.reports

    def test_speedup_needed_is_config_correct(self):
        """Regression: the ARM9's last-profile memo must never answer
        for a different configuration than the one asked about."""
        from repro.archs.gpp.arm9 import ARM9Model

        slow = dataclasses.replace(
            REFERENCE_DDC, input_rate_hz=32_256_000.0
        )
        model = ARM9Model()
        model.implement(REFERENCE_DDC)  # warm the memo with another config
        assert model.speedup_needed(slow) == ARM9Model().speedup_needed(slow)
        assert model.speedup_needed(slow) < model.speedup_needed(
            REFERENCE_DDC
        )

    def test_winner_judges_the_reports_config(self):
        """_reconfigurable_winner takes the config as an argument: the
        answer for one configuration's reports cannot be perturbed by
        other evaluations on the same instance."""
        ev = DDCEvaluator()
        reports_a = [m.implement(REFERENCE_DDC) for m in ev.models]
        ev.evaluate(FAST_INPUT)  # unrelated work on the same instance
        assert (
            ev._reconfigurable_winner(reports_a, REFERENCE_DDC)
            == DDCEvaluator().evaluate(REFERENCE_DDC).reconfigurable_winner
        )

    def test_evaluate_batch_equals_scalar_evaluate(self):
        ev = DDCEvaluator()
        grid = [REFERENCE_DDC, FAST_INPUT]
        batched = ev.evaluate_batch(grid)
        for config, result in zip(grid, batched):
            scalar = ev.evaluate(config)
            assert result.reports == scalar.reports
            assert result.static_winner == scalar.static_winner
            assert (
                result.reconfigurable_winner == scalar.reconfigurable_winner
            )
            assert result.render() == scalar.render()

    def test_scenario_candidates_batch_equals_scalar(self):
        ev = DDCEvaluator()
        grid = [REFERENCE_DDC, OFF_REFERENCE, FAST_INPUT]
        batched = ev.scenario_candidates_batch(grid, strict=False)
        for config, candidates in zip(grid, batched):
            assert candidates == ev.scenario_candidates(
                config, strict=False
            )

    def test_strict_batch_raises_like_scalar(self):
        ev = DDCEvaluator()
        with pytest.raises(ConfigurationError, match="16/21/8"):
            ev.scenario_candidates_batch([REFERENCE_DDC, OFF_REFERENCE])

    def test_fully_unmappable_config_is_a_clear_error(self):
        """A grid point no model maps must raise a ConfigurationError
        naming the configuration, not hand ScenarioAnalysis an empty
        candidate list to choke on downstream."""
        from repro.archs.montium.model import MontiumModel

        ev = DDCEvaluator([MontiumModel()])
        with pytest.raises(
            ConfigurationError, match="cic5_decimation=42"
        ):
            ev.scenario_candidates(OFF_REFERENCE, strict=False)
        with pytest.raises(
            ConfigurationError, match="cic5_decimation=42"
        ):
            ev.scenario_candidates_batch([OFF_REFERENCE], strict=False)

    def test_all_infeasible_is_a_clear_error_too(self):
        from repro.archs.gpp.arm9 import ARM9Model

        # The ARM maps the reference but cannot sustain it: feasible=False
        # everywhere leaves no candidate, which must be said clearly.
        with pytest.raises(ConfigurationError, match="feasible"):
            DDCEvaluator([ARM9Model()]).scenario_candidates(REFERENCE_DDC)

    def test_shared_evaluator_is_cached_per_process(self):
        ev = get_workload("ddc").shared_evaluator()
        assert get_workload("ddc").shared_evaluator() is ev
        assert isinstance(ev.cache, ReportCache)
        before = ev.cache.hits
        ev.evaluate(REFERENCE_DDC)
        ev.evaluate(REFERENCE_DDC)
        assert ev.cache.hits > before

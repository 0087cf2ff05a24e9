"""Each hand-written batch memo keys on exactly the fields its builder reads.

``MontiumModel.implement_batch`` builds one schedule per
:func:`~repro.archs.montium.model._schedule_key` and
``ARM9Model.implement_batch`` one analytic profile per
:data:`~repro.archs.gpp.arm9._analytic_key`.  A key that misses a field
its builder reads hands one configuration another's answer; a key that
holds a field the builder never reads rebuilds the same answer for every
value of that field.  A recording :class:`~repro.config.DDCConfig` logs
which fields each builder and each key read, and the two sets must match.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archs.gpp.arm9 import _analytic_key
from repro.archs.gpp.profiler import profile_ddc_analytic
from repro.archs.montium.ddc_mapping import build_ddc_schedule
from repro.archs.montium.model import _schedule_key
from repro.config import DDCConfig, REFERENCE_DDC
from repro.errors import ConfigurationError, MappingError

FIELDS = frozenset(f.name for f in dataclasses.fields(DDCConfig))

#: The fields read since the last :func:`reads` call.
_READS: set[str] = set()


class RecordingConfig(DDCConfig):
    """A :class:`DDCConfig` that logs every field read into ``_READS``
    (properties such as ``total_decimation`` log the fields they use)."""

    def __getattribute__(self, name: str):
        if name in FIELDS:
            _READS.add(name)
        return super().__getattribute__(name)


def reads(fn, config: DDCConfig) -> frozenset[str]:
    """The fields ``fn`` reads from a recording copy of ``config``."""
    recording = RecordingConfig(
        **{f: getattr(config, f) for f in FIELDS}
    )
    _READS.clear()
    try:
        fn(recording)
    except (ConfigurationError, MappingError):
        pass  # a rejected configuration still read what it was keyed on
    return frozenset(_READS)


#: ``(key, builder, fields the batch applies per configuration itself)``.
KEYED = {
    "montium-schedule": (_schedule_key, build_ddc_schedule, frozenset()),
    # ARM9Model() defaults: n_samples=None, spill_slots=True.
    "arm9-analytic": (
        _analytic_key, profile_ddc_analytic, frozenset({"input_rate_hz"})
    ),
}


def configs():
    """Configurations around the reference: mappable, rejected and
    fallback points for both builders."""
    return st.builds(
        DDCConfig,
        input_rate_hz=st.sampled_from([8_064_000.0, 64_512_000.0, 2e8]),
        cic2_decimation=st.sampled_from([1, 8, 16, 24]),
        cic5_decimation=st.sampled_from([4, 21]),
        fir_decimation=st.sampled_from([1, 8]),
        fir_taps=st.sampled_from([1, 63, 125]),
        data_width=st.sampled_from([8, 12, 70]),
        cic2_order=st.sampled_from([0, 2]),
        cic5_order=st.sampled_from([4, 5]),
        nco_frequency_hz=st.sampled_from([0.0, 1e6]),
    )


def test_recording_config_logs_reads():
    """The recorder itself: it logs a property's underlying fields and
    nothing it was not asked for."""
    assert reads(lambda c: c.total_decimation, REFERENCE_DDC) == {
        "cic2_decimation", "cic5_decimation", "fir_decimation",
    }
    assert reads(lambda c: None, REFERENCE_DDC) == frozenset()


@pytest.mark.parametrize("name", sorted(KEYED))
class TestMemoKeys:
    def test_key_holds_exactly_what_the_builder_reads(self, name):
        """On the reference configuration every builder takes its
        deepest path, so it reads every field it ever reads."""
        key, builder, applied = KEYED[name]
        assert reads(key, REFERENCE_DDC) == (
            reads(builder, REFERENCE_DDC) - applied
        )

    @settings(max_examples=60, deadline=None)
    @given(config=configs())
    def test_key_never_misses_a_field_the_builder_reads(self, name, config):
        key, builder, applied = KEYED[name]
        assert reads(builder, config) - applied <= reads(key, config)

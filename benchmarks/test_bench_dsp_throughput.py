"""The DSP kernels on the bench input, run once and checked.

These are the stages whose throughput ``repro.bench`` times (see
``benchmarks/README.md``); here each runs untimed on the same ~86k-sample
block so the paths the bench table measures stay functionally covered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DDC, FixedDDC, REFERENCE_DDC
from repro.dsp.cic import CICDecimator, FixedCICDecimator
from repro.dsp.fir import PolyphaseDecimator
from repro.dsp.firdesign import reference_fir_taps
from repro.dsp.nco import NCO
from repro.dsp.signals import quantize_to_adc, tone

N = 2688 * 32  # ~86k input samples: 32 outputs of the full chain


@pytest.fixture(scope="module")
def tone_block():
    return tone(N, 10.005e6, REFERENCE_DDC.input_rate_hz, 0.8)


@pytest.fixture(scope="module")
def adc_block(tone_block):
    return quantize_to_adc(tone_block, 12)


def test_bench_nco_generate():
    cos_v, sin_v = NCO(REFERENCE_DDC.input_rate_hz, 10e6).generate(N)
    assert cos_v.shape == sin_v.shape == (N,)
    assert np.abs(cos_v).max() <= 1.0 and np.abs(sin_v).max() <= 1.0


def test_bench_cic2_float(tone_block):
    out = CICDecimator(2, 16).process(tone_block)
    assert out.shape == (N // 16,)
    assert np.all(np.isfinite(out))


def test_bench_cic5_float(tone_block):
    out = CICDecimator(5, 21).process(tone_block[: N // 16])
    assert out.shape == (N // 16 // 21,)
    assert np.all(np.isfinite(out))


def test_bench_cic2_fixed(adc_block):
    out = FixedCICDecimator(2, 16, input_width=12).process(adc_block)
    assert out.shape == (N // 16,)
    assert np.issubdtype(out.dtype, np.integer)


def test_bench_polyphase_fir(tone_block):
    out = PolyphaseDecimator(reference_fir_taps(), 8).process(
        tone_block[: N // 336].astype(complex)
    )
    assert out.shape == (N // 336 // 8,)
    assert np.all(np.isfinite(out))


def test_bench_full_ddc_gold(tone_block):
    result = DDC().process(tone_block)
    assert len(result.baseband) == N // REFERENCE_DDC.total_decimation


def test_bench_full_ddc_fixed(adc_block):
    i, q = FixedDDC().process(adc_block)
    assert len(i) == len(q) == N // REFERENCE_DDC.total_decimation
    assert np.issubdtype(i.dtype, np.integer)

"""Fused single-pass numpy kernels for the streaming DSP front end.

Each kernel here is a restructured implementation of one ``python``
oracle (``NCO.generate``, ``FixedCICDecimator.process``,
``FixedPolyphaseDecimator.process``, ``FixedDDC.process``) with the
per-call staging stripped out:

- **no staging copies** — work happens in one buffer (`np.cumsum(y,
  out=y)`, in-place adds/shifts/clips), windows are strided views
  instead of fancy-indexed gathers;
- **no dtype churn** — the ``FixedDDC`` mixer runs on the NCO's integer
  LUT directly instead of round-tripping quantised floats back to raw
  integers;
- **narrow arithmetic where it is exact** — full-rate passes run in
  ``int32`` whenever every intermediate provably fits, halving memory
  traffic (integer overflow wraps mod ``2**32``, which is congruent to
  any wrap width ``W <= 32`` because ``2**W`` divides ``2**32``);
- **wrapping hoisted out of the integrator loop** — a chain of wrapped
  additions equals the unwrapped chain mod ``2**W`` (wrapping only
  discards multiples of ``2**W``), so the CIC integrators cumsum in
  machine arithmetic and wrap once at the decimated rate.  This is the
  same congruence argument :mod:`repro.fastpath` documents for the
  block engines.

Every kernel is bit-identical to its oracle — outputs, carried state
(integrator registers, comb delays, FIR history, NCO phase) and raised
errors alike — pinned by the Hypothesis suites in
``tests/test_kernels.py`` including arbitrary block splits.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..fixedpoint import QFormat, quantize, saturate, wrap
from ..fixedpoint.ops import Rounding


def _check_int_input(x: np.ndarray, what: str) -> np.ndarray:
    if not np.issubdtype(np.asarray(x).dtype, np.integer):
        raise ConfigurationError(f"{what} input must be integer raw values")
    return np.asarray(x)


def _check_range(x: np.ndarray, fmt: QFormat) -> None:
    if x.size and (int(x.max()) > fmt.max_raw or int(x.min()) < fmt.min_raw):
        raise ConfigurationError(f"input sample out of {fmt} range")


# ------------------------------------------------------------------- NCO
def nco_generate(nco, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fused LUT-mode ``NCO.generate``: shift/mask indexing, no modulo.

    The oracle reduces the phase accumulator mod ``2**phase_bits`` and
    then truncates to the table address; because the accumulator is
    non-negative and both moduli are powers of two this equals one right
    shift and one mask — two cheap in-place passes instead of two
    integer-modulo passes plus an ``astype`` copy.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    lut = nco._lut
    assert lut is not None
    shift = nco.phase_bits - nco.lut_addr_bits
    n_lut = 1 << nco.lut_addr_bits
    mask = n_lut - 1
    idx = np.arange(n, dtype=np.int64)
    idx *= nco._fcw
    idx += nco._phase_acc
    idx >>= shift
    idx &= mask
    sin_v = lut[idx]
    # Reuse the index buffer for the cosine address (gather already copied).
    idx += n_lut // 4
    idx &= mask
    cos_v = lut[idx]
    nco._phase_acc = int(
        (nco._phase_acc + nco._fcw * n) % (1 << nco.phase_bits)
    )
    return cos_v, sin_v


# ------------------------------------------------------------------- CIC
def _wrap_scalar(v: int, width: int) -> int:
    half = 1 << (width - 1)
    return ((v + half) & ((1 << width) - 1)) - half


def _cic_core(cic, y: np.ndarray) -> np.ndarray:
    """Integrate/decimate/comb a prepared work buffer ``y`` (mutated).

    ``y`` must be a private buffer of the caller holding the raw input
    samples in either ``int32`` (valid iff ``internal_width <= 32``) or
    ``int64``.  Returns the quantised output in int64, updating all
    carried state exactly as the oracle does.
    """
    internal = cic.internal_format
    width = cic.internal_width
    n = len(y)
    with np.errstate(over="ignore"):
        # Integrators: machine arithmetic wraps mod 2**{32,64}; both are
        # congruent to wrapping mod 2**width, so only the carried state
        # scalar and the decimated samples need canonicalising.
        for s in range(cic.order):
            np.cumsum(y, out=y)
            y += y.dtype.type(cic._int_state[s])
            cic._int_state[s] = _wrap_scalar(int(y[-1]), width)

        first = (-cic._phase) % cic.decimation
        kept = y[first :: cic.decimation]
        cic._phase = (cic._phase + n) % cic.decimation

        z = wrap(kept.astype(np.int64), internal)
        for s in range(cic.order):
            with_hist = np.concatenate([cic._comb_state[s], z])
            out = with_hist[cic.diff_delay :] - with_hist[: -cic.diff_delay]
            out = wrap(out, internal)
            if len(with_hist) >= cic.diff_delay:
                cic._comb_state[s] = with_hist[
                    len(with_hist) - cic.diff_delay :
                ]
            z = out
    return quantize(z, cic.truncation_shift, Rounding.TRUNCATE)


def cic_process(cic, x: np.ndarray) -> np.ndarray:
    """Fused ``FixedCICDecimator.process``: in-place cumsums, one wrap."""
    x = _check_int_input(x, "fixed CIC")
    if x.size == 0:
        return np.empty(0, dtype=np.int64)
    _check_range(x, QFormat(cic.input_width, 0))
    work = np.int32 if cic.internal_width <= 32 else np.int64
    return _cic_core(cic, x.astype(work))


# ------------------------------------------------------------------- FIR
def _fir_windows(buf: np.ndarray, first_out: int, n_out: int, n_taps: int,
                 decimation: int) -> np.ndarray:
    """Strided (n_out, n_taps) window view over ``buf`` — no gather copy.

    Window ``k`` is ``buf[first_out + k*D : first_out + k*D + n_taps]``
    ascending; dotted against *reversed* taps this equals the oracle's
    descending fancy-indexed window dotted against the taps in order.
    """
    item = buf.itemsize
    return np.lib.stride_tricks.as_strided(
        buf[first_out:],
        shape=(n_out, n_taps),
        strides=(decimation * item, item),
        writeable=False,
    )


def _fir_finish(fir, acc: np.ndarray) -> np.ndarray:
    acc = saturate(acc, fir.accumulator_format)
    y = quantize(acc, fir.output_shift, Rounding.TRUNCATE)
    return saturate(y, fir.output_format)


def _fir_update_state(fir, buf: np.ndarray, n: int) -> None:
    n_taps = len(fir.taps_raw)
    fir._offset = (fir._offset + n) % fir.decimation
    if n_taps > 1:
        tail = buf[len(buf) - (n_taps - 1) :]
        fir._hist = tail if len(buf) <= 4 * (n_taps - 1) else tail.copy()
    else:
        fir._hist = np.empty(0, dtype=np.int64)


def fir_process(fir, x: np.ndarray) -> np.ndarray:
    """Fused ``FixedPolyphaseDecimator.process``: strided MAC windows.

    The oracle materialises an ``(n_out, n_taps)`` int64 index matrix
    and gathers a same-shape window copy before the MAC; the window
    starts are uniformly ``decimation`` apart, so a strided view feeds
    the matmul directly with no index matrix and no gather.
    """
    x = _check_int_input(x, "fixed FIR")
    x = x.astype(np.int64, copy=False)
    if x.size == 0:
        return np.empty(0, dtype=np.int64)
    _check_range(x, QFormat(fir.data_width, 0))

    buf = np.concatenate([fir._hist, x])
    first_out = (-fir._offset) % fir.decimation
    n_taps = len(fir.taps_raw)
    n_out = max(0, -(-(len(x) - first_out) // fir.decimation))
    if n_out:
        windows = _fir_windows(buf, first_out, n_out, n_taps, fir.decimation)
        y = _fir_finish(fir, windows @ fir._taps_rev)
    else:
        y = np.empty(0, dtype=np.int64)
    _fir_update_state(fir, buf, len(x))
    return y


# ------------------------------------------------------------------- DDC
def _ddc_lut_raw(ddc, dtype) -> np.ndarray:
    """The NCO sine table as raw integers, cached per work dtype."""
    cache = getattr(ddc, "_fused_lut_cache", None)
    if cache is None or cache.dtype != dtype:
        cache = ddc.lut_raw().astype(dtype)
        ddc._fused_lut_cache = cache
    return cache


def ddc_process(ddc, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fused end-to-end ``FixedDDC.process``.

    One pass over the block: integer-LUT mixer (no float round trip),
    in-place shift/clip quantisation, fused CIC rails fed directly from
    the mixer buffers, fused FIR at the output rate.  Full-rate work
    runs in ``int32`` when the mixer product provably fits (data widths
    up to 16 bits — every paper configuration).
    """
    x_raw = _check_int_input(x_raw, "FixedDDC")
    in_fmt = QFormat(ddc.data_width, 0)
    _check_range(x_raw, in_fmt)

    n = len(x_raw)
    nco = ddc.nco
    w = ddc.data_width
    narrow = 2 * w - 1 <= 31  # mixer product fits int32
    work = np.int32 if narrow else np.int64

    # NCO addresses, as in nco_generate but kept as raw indices.
    shift = nco.phase_bits - nco.lut_addr_bits
    n_lut = 1 << nco.lut_addr_bits
    mask = n_lut - 1
    idx = np.arange(n, dtype=np.int64)
    idx *= nco._fcw
    idx += nco._phase_acc
    idx >>= shift
    idx &= mask
    nco._phase_acc = int(
        (nco._phase_acc + nco._fcw * n) % (1 << nco.phase_bits)
    )

    lut = _ddc_lut_raw(ddc, work)
    sin_raw = lut[idx]
    idx += n_lut // 4
    idx &= mask
    cos_raw = lut[idx]

    # Mixer: w x w -> (2w-1)-bit product, truncate to the w-bit bus.
    x_work = x_raw.astype(work)
    i_s = cos_raw
    i_s *= x_work
    q_s = sin_raw
    q_s *= x_work
    np.negative(q_s, out=q_s)
    mshift = w - 1
    i_s >>= mshift
    q_s >>= mshift
    np.clip(i_s, in_fmt.min_raw, in_fmt.max_raw, out=i_s)
    np.clip(q_s, in_fmt.min_raw, in_fmt.max_raw, out=q_s)

    def cic_stage(cic, y: np.ndarray) -> np.ndarray:
        if y.size == 0:
            return np.empty(0, dtype=np.int64)
        need = np.int32 if cic.internal_width <= 32 else np.int64
        if y.dtype != need:
            y = y.astype(need)
        return _cic_core(cic, y)

    if ddc.cic2_i is not None and ddc.cic2_q is not None:
        i_s = cic_stage(ddc.cic2_i, i_s)
        q_s = cic_stage(ddc.cic2_q, q_s)
    else:
        i_s = i_s.astype(np.int64, copy=False)
        q_s = q_s.astype(np.int64, copy=False)
    i_s = cic_stage(ddc.cic5_i, i_s)
    q_s = cic_stage(ddc.cic5_q, q_s)
    return fir_process(ddc.fir_i, i_s), fir_process(ddc.fir_q, q_s)

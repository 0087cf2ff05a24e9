"""Cascaded Integrator-Comb (CIC) decimation filters (paper Fig. 2).

Section 2.1: "The CIC filter is used in the parts with the highest sample
rates.  The high sample rates can be handled by using only additions and no
multiplications.  The filter consists of a cascaded set of integrating and
comb filters."

Two implementations share one structure:

:class:`CICDecimator`
    Floating-point, fully vectorised (cumulative sums for the integrators,
    array differences for the combs).  This is the gold model.

:class:`FixedCICDecimator`
    Bit-true two's-complement model.  The integrators *wrap* — Hogenauer's
    classic result is that modular arithmetic makes integrator overflow
    harmless provided every register holds at least
    ``input_width + N*log2(R*M)`` bits; the register width is derived from
    :func:`repro.fixedpoint.analysis.cic_bit_growth`.

Both are streaming: state (integrator registers, comb delay lines,
decimator phase) is carried across :meth:`process` calls, which is what the
block-based :class:`~repro.dsp.chain.Chain` relies on.

The helper :func:`cic_reference_output` computes the mathematically
equivalent "cascade of boxcars then downsample" form used by the
property-based tests: an ``N``-stage CIC with decimation ``R`` and
differential delay ``M`` equals convolution with the ``N``-fold
self-convolution of a length-``R*M`` boxcar, followed by keeping every
``R``-th sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..fixedpoint import QFormat, cic_bit_growth, cic_gain, quantize, wrap
from ..fixedpoint.ops import Rounding


def _validate(order: int, decimation: int, diff_delay: int) -> None:
    if not isinstance(order, int) or order < 1:
        raise ConfigurationError(f"CIC order must be a positive int, got {order!r}")
    if not isinstance(decimation, int) or decimation < 1:
        raise ConfigurationError(
            f"CIC decimation must be a positive int, got {decimation!r}"
        )
    if not isinstance(diff_delay, int) or diff_delay < 1:
        raise ConfigurationError(
            f"CIC differential delay must be a positive int, got {diff_delay!r}"
        )


@dataclass
class CICDecimator:
    """Floating-point streaming CIC decimator.

    Parameters
    ----------
    order:
        Number of integrator/comb pairs (2 for the paper's CIC2, 5 for CIC5).
    decimation:
        Rate change factor ``R`` (16 and 21 in the reference chain).
    diff_delay:
        Differential delay ``M`` of each comb (1 in the paper, the common
        hardware choice).
    normalize:
        If True (default), divide the output by the DC gain ``(R*M)**N`` so
        unit-DC input produces unit-DC output.  The bit-true model never
        normalises; hardware compensates by bit truncation instead.
    """

    order: int
    decimation: int
    diff_delay: int = 1
    normalize: bool = True
    _int_state: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _comb_state: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _phase: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        _validate(self.order, self.decimation, self.diff_delay)
        self.reset()

    def reset(self) -> None:
        """Clear all integrator registers, comb delays and decimator phase."""
        self._int_state = np.zeros(self.order, dtype=np.float64)
        self._comb_state = np.zeros(
            (self.order, self.diff_delay), dtype=np.float64
        )
        self._phase = 0

    @property
    def gain(self) -> int:
        """DC gain of the unnormalised filter: ``(R*M)**N``."""
        return cic_gain(self.order, self.decimation, self.diff_delay)

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter and decimate one block; returns the decimated samples.

        Output length is ``floor((phase + len(x)) / R) - floor(phase / R)``
        where ``phase`` is the running input-sample count modulo ``R``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ConfigurationError("CIC input must be one-dimensional")
        if x.size == 0:
            return np.empty(0, dtype=np.float64)

        # Integrator cascade: each stage is a cumulative sum with carry-in.
        y = x
        for s in range(self.order):
            y = np.cumsum(y)
            y += self._int_state[s]
            self._int_state[s] = y[-1]

        # Decimate: keep samples where the running index hits a multiple of R.
        # self._phase counts input samples since the last kept sample.
        first = (-self._phase) % self.decimation
        kept = y[first :: self.decimation]
        self._phase = (self._phase + len(x)) % self.decimation

        # Comb cascade at the low rate.
        z = kept
        for s in range(self.order):
            with_hist = np.concatenate([self._comb_state[s], z])
            out = with_hist[self.diff_delay :] - with_hist[: -self.diff_delay]
            if len(with_hist) >= self.diff_delay:
                self._comb_state[s] = with_hist[len(with_hist) - self.diff_delay :]
            z = out

        if self.normalize:
            z = z / self.gain
        return z


@dataclass
class FixedCICDecimator:
    """Bit-true two's-complement CIC decimator with wrapping integrators.

    Parameters
    ----------
    order, decimation, diff_delay:
        As for :class:`CICDecimator`.
    input_width:
        Width of the input samples in bits (12 for the paper's bus).
    output_width:
        Width to truncate the output to; defaults to ``input_width`` (the
        paper's 12-bit inter-stage buses).  Truncation drops
        ``internal_width - output_width`` LSBs, i.e. the full DC gain is
        compensated by the shift except for rounding.
    """

    order: int
    decimation: int
    diff_delay: int = 1
    input_width: int = 12
    output_width: int | None = None
    _int_state: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _comb_state: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _phase: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        _validate(self.order, self.decimation, self.diff_delay)
        if not 2 <= self.input_width <= 32:
            raise ConfigurationError("input_width must be in 2..32")
        if self.output_width is None:
            self.output_width = self.input_width
        if not 2 <= self.output_width <= self.internal_width:
            raise ConfigurationError(
                "output_width must be between 2 and the internal width "
                f"({self.internal_width})"
            )
        if self.internal_width > 62:
            raise ConfigurationError(
                f"internal width {self.internal_width} exceeds the int64-safe"
                " range; reduce order, decimation or input width"
            )
        self.reset()

    @property
    def growth_bits(self) -> int:
        """Hogenauer worst-case growth ``ceil(N*log2(R*M))``."""
        return cic_bit_growth(self.order, self.decimation, self.diff_delay)

    @property
    def internal_width(self) -> int:
        """Register width guaranteeing modular-arithmetic correctness."""
        return self.input_width + self.growth_bits

    @property
    def internal_format(self) -> QFormat:
        """Format of the integrator/comb registers."""
        return QFormat(self.internal_width, 0)

    @property
    def output_format(self) -> QFormat:
        """Format of the truncated output."""
        assert self.output_width is not None
        return QFormat(self.output_width, 0)

    @property
    def truncation_shift(self) -> int:
        """LSBs dropped at the output to fit ``output_width``."""
        assert self.output_width is not None
        return self.internal_width - self.output_width

    def reset(self) -> None:
        """Clear registers, delays and phase."""
        self._int_state = np.zeros(self.order, dtype=np.int64)
        self._comb_state = np.zeros(
            (self.order, self.diff_delay), dtype=np.int64
        )
        self._phase = 0

    def process(self, x: np.ndarray, engine: str = "fused") -> np.ndarray:
        """Filter and decimate a block of raw integer samples.

        Input values must fit ``input_width`` bits (checked).  Returns raw
        integers in :attr:`output_format`.

        ``engine`` selects the kernel tier (``python``/``fused``), both
        bit-identical in outputs and carried state.
        """
        from .. import kernels

        if kernels.dispatch("cic", engine):
            from ..kernels.fused import cic_process

            return cic_process(self, x)
        return self._process_python(x)

    def _process_python(self, x: np.ndarray) -> np.ndarray:
        """The oracle tier: the original per-stage wrap implementation."""
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.integer):
            raise ConfigurationError("fixed CIC input must be integer raw values")
        x = x.astype(np.int64, copy=False)
        if x.size == 0:
            return np.empty(0, dtype=np.int64)
        in_fmt = QFormat(self.input_width, 0)
        if int(x.max()) > in_fmt.max_raw or int(x.min()) < in_fmt.min_raw:
            raise ConfigurationError(
                f"input sample out of {in_fmt} range"
            )

        internal = self.internal_format
        # Integrators: int64 cumsum wraps mod 2**64; reducing mod 2**W is
        # consistent because 2**W divides 2**64, so vectorised cumsum is a
        # faithful model of W-bit wrapping accumulators.
        with np.errstate(over="ignore"):
            y = x
            for s in range(self.order):
                y = np.cumsum(y)  # always a fresh buffer: in-place ops below are safe
                y += self._int_state[s]
                y = wrap(y, internal)
                self._int_state[s] = y[-1]

            first = (-self._phase) % self.decimation
            kept = y[first :: self.decimation]
            self._phase = (self._phase + len(x)) % self.decimation

            z = kept
            for s in range(self.order):
                with_hist = np.concatenate([self._comb_state[s], z])
                out = with_hist[self.diff_delay :] - with_hist[: -self.diff_delay]
                out = wrap(out, internal)
                if len(with_hist) >= self.diff_delay:
                    self._comb_state[s] = with_hist[
                        len(with_hist) - self.diff_delay :
                    ]
                z = out

        return quantize(z, self.truncation_shift, Rounding.TRUNCATE)


def cic_impulse_response(order: int, decimation: int, diff_delay: int = 1) -> np.ndarray:
    """Impulse response of the unnormalised CIC before decimation.

    The ``N``-fold convolution of a length ``R*M`` boxcar.  Length is
    ``N*(R*M - 1) + 1``.
    """
    _validate(order, decimation, diff_delay)
    box = np.ones(decimation * diff_delay, dtype=np.float64)
    h = np.array([1.0])
    for _ in range(order):
        h = np.convolve(h, box)
    return h


def cic_reference_output(
    x: np.ndarray,
    order: int,
    decimation: int,
    diff_delay: int = 1,
    normalize: bool = True,
) -> np.ndarray:
    """Mathematically equivalent CIC output: FIR convolution + downsample.

    Used as the independent oracle in property-based tests.  Zero initial
    conditions, matching a freshly reset :class:`CICDecimator`.
    """
    x = np.asarray(x, dtype=np.float64)
    h = cic_impulse_response(order, decimation, diff_delay)
    full = np.convolve(x, h)[: len(x)]
    # The streaming decimators keep samples at global indices 0, R, 2R, ...
    kept = full[::decimation]
    if normalize:
        kept = kept / cic_gain(order, decimation, diff_delay)
    return kept

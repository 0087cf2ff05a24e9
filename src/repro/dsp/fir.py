"""FIR filtering: direct form and polyphase decimators (paper Fig. 3).

Section 2.1 describes both forms: the plain FIR that computes every output
then throws ``D-1`` of ``D`` away, and the polyphase form that "writes the
input values to the correct registers at the input sample rate.  But it
reads, multiplies and calculates the sum only every D cycles for an output
sample" — a factor ``D`` fewer multiply-accumulates.

Implementations:

:class:`FIRFilter`
    Streaming direct-form FIR (no rate change), vectorised with
    ``scipy.signal.lfilter`` plus explicit state.

:class:`PolyphaseDecimator`
    Streaming decimating FIR in floating point.  Internally it buffers to a
    multiple of ``D`` and computes each output as a dot product of the
    history window — mathematically identical to filter-then-downsample,
    which the property tests assert against ``scipy``.

:class:`FixedPolyphaseDecimator`
    Bit-true integer model mirroring the FPGA's sequential MAC loop
    (Fig. 5): 12-bit samples x 12-bit coefficients accumulated in a 31-bit
    register, output truncated/saturated to 12 bits.  The FPGA RTL component
    in :mod:`repro.archs.fpga.rtl_fir` is verified against this model
    sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..fixedpoint import QFormat, fir_accumulator_bits, quantize, saturate
from ..fixedpoint.ops import Rounding


@dataclass
class FIRFilter:
    """Streaming direct-form FIR filter (rate preserving)."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ConfigurationError("taps must be a non-empty 1-D array")
        self._zi = np.zeros(len(self.taps) - 1, dtype=np.complex128)

    def reset(self) -> None:
        """Clear the delay line."""
        self._zi = np.zeros(len(self.taps) - 1, dtype=np.complex128)

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter one block, carrying state across calls."""
        x = np.asarray(x)
        if x.size == 0:
            return np.empty(0, dtype=np.complex128)
        if len(self.taps) == 1:
            return self.taps[0] * x.astype(np.complex128)
        from scipy import signal

        y, self._zi = signal.lfilter(
            self.taps, [1.0], x.astype(np.complex128), zi=self._zi
        )
        return y


def polyphase_decompose(taps: np.ndarray, decimation: int) -> np.ndarray:
    """Split ``taps`` into ``decimation`` phases (rows), zero padded.

    Row ``p`` holds coefficients ``h[p], h[p+D], h[p+2D], ...`` — the
    sub-filter that multiplies input samples whose index is congruent to
    ``p`` modulo ``D``.  This is the register-bank organisation of the
    paper's Fig. 3 "decimator/control writes the values to the correct
    registers".
    """
    taps = np.asarray(taps, dtype=np.float64)
    if decimation < 1:
        raise ConfigurationError(f"decimation must be >= 1, got {decimation}")
    n_phases = decimation
    padded_len = -(-len(taps) // n_phases) * n_phases
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: len(taps)] = taps
    return padded.reshape(-1, n_phases).T.copy()


@dataclass
class PolyphaseDecimator:
    """Streaming decimate-by-``D`` FIR, floating point.

    Output ``y[m] = sum_k h[k] * x[m*D - k]`` — identical to filtering with
    ``h`` and keeping every ``D``-th sample starting at index 0 (sample
    indices 0, D, 2D, ... of the full-rate convolution), matching the CIC
    decimator convention.
    """

    taps: np.ndarray
    decimation: int

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ConfigurationError("taps must be a non-empty 1-D array")
        if not isinstance(self.decimation, int) or self.decimation < 1:
            raise ConfigurationError(
                f"decimation must be a positive int, got {self.decimation!r}"
            )
        self.reset()

    def reset(self) -> None:
        """Clear history and phase."""
        # History holds the last len(taps)-1 input samples.
        self._hist = np.zeros(len(self.taps) - 1, dtype=np.complex128)
        self._offset = 0  # global index of next input sample, mod D

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter + decimate one block; state carries across calls."""
        x = np.asarray(x).astype(np.complex128)
        if x.ndim != 1:
            raise ConfigurationError("input must be one-dimensional")
        if x.size == 0:
            return np.empty(0, dtype=np.complex128)

        buf = np.concatenate([self._hist, x])
        hist_len = len(self._hist)
        # Global indices covered by this block: offset .. offset+len(x)-1.
        # Outputs are produced at global indices that are multiples of D.
        first_out = (-self._offset) % self.decimation
        out_positions = np.arange(first_out, len(x), self.decimation)
        n_taps = len(self.taps)
        if out_positions.size:
            # Window for output at local position p covers buf[p .. p+hist_len]
            # reversed against taps.
            idx = out_positions[:, None] + hist_len - np.arange(n_taps)[None, :]
            # Some indices may be negative only if hist shorter than taps-1,
            # which reset() prevents.
            windows = buf[idx]
            y = windows @ self.taps.astype(np.complex128)
        else:
            y = np.empty(0, dtype=np.complex128)

        self._offset = (self._offset + len(x)) % self.decimation
        if n_taps > 1:
            self._hist = buf[len(buf) - (n_taps - 1) :].copy()
        else:
            self._hist = np.empty(0, dtype=np.complex128)
        return y


@dataclass
class FixedPolyphaseDecimator:
    """Bit-true sequential polyphase FIR matching the FPGA datapath (Fig. 5).

    Parameters
    ----------
    taps_raw:
        Integer coefficients, must fit ``coeff_width`` bits.
    decimation:
        Rate change ``D`` (8 in the reference chain).
    data_width:
        Input/output sample width (12 in the paper).
    coeff_width:
        Coefficient ROM width (12 in the paper).
    acc_width:
        Accumulator width; defaults to the no-overflow bound
        (31 bits for 12x12x124, exactly the paper's intermediate result).
    output_shift:
        LSBs dropped when quantising the accumulator to the output.  The
        paper takes "the 11 least significant bits ... and a sign bit" of
        the 31-bit intermediate result, i.e. the coefficients are scaled so
        the useful signal sits in the low bits; we default to dropping
        ``coeff_width - 1`` bits, which undoes unit-gain Q11 coefficient
        scaling.  Saturation clamps like the paper's output stage.
    """

    taps_raw: np.ndarray
    decimation: int
    data_width: int = 12
    coeff_width: int = 12
    acc_width: int | None = None
    output_shift: int | None = None

    def __post_init__(self) -> None:
        self.taps_raw = np.asarray(self.taps_raw)
        if not np.issubdtype(self.taps_raw.dtype, np.integer):
            raise ConfigurationError("taps_raw must be integers")
        self.taps_raw = self.taps_raw.astype(np.int64)
        if self.taps_raw.ndim != 1 or self.taps_raw.size == 0:
            raise ConfigurationError("taps_raw must be a non-empty 1-D array")
        if not isinstance(self.decimation, int) or self.decimation < 1:
            raise ConfigurationError("decimation must be a positive int")
        cfmt = QFormat(self.coeff_width, 0)
        if int(self.taps_raw.max()) > cfmt.max_raw or int(self.taps_raw.min()) < cfmt.min_raw:
            raise ConfigurationError(
                f"coefficients exceed {self.coeff_width}-bit range"
            )
        bound = fir_accumulator_bits(
            self.data_width, self.coeff_width, len(self.taps_raw)
        )
        if self.acc_width is None:
            self.acc_width = bound
        if self.acc_width > 62:
            raise ConfigurationError("accumulator width exceeds int64-safe range")
        if self.output_shift is None:
            self.output_shift = self.coeff_width - 1
        if self.output_shift < 0:
            raise ConfigurationError("output_shift must be >= 0")
        # Reversed taps, cached for the fused kernel's ascending
        # strided windows (ascending window . reversed taps == the
        # oracle's descending window . taps).
        self._taps_rev = self.taps_raw[::-1].copy()
        self.reset()

    @property
    def accumulator_format(self) -> QFormat:
        """Format of the MAC accumulator (the 31-bit bus of Fig. 5)."""
        assert self.acc_width is not None
        return QFormat(self.acc_width, 0)

    @property
    def output_format(self) -> QFormat:
        """Format of the quantised output (12-bit in the paper)."""
        return QFormat(self.data_width, 0)

    def reset(self) -> None:
        """Clear the sample RAM model and phase."""
        self._hist = np.zeros(len(self.taps_raw) - 1, dtype=np.int64)
        self._offset = 0

    def process(self, x: np.ndarray, engine: str = "fused") -> np.ndarray:
        """Filter + decimate raw integer samples, bit-true.

        ``engine`` selects the kernel tier (``python``/``fused``), both
        bit-identical in outputs and carried state.
        """
        from .. import kernels

        if kernels.dispatch("fir", engine):
            from ..kernels.fused import fir_process

            return fir_process(self, x)
        return self._process_python(x)

    def _process_python(self, x: np.ndarray) -> np.ndarray:
        """The oracle tier: fancy-indexed window gather + matmul."""
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.integer):
            raise ConfigurationError("input must be integer raw values")
        x = x.astype(np.int64, copy=False)
        if x.size == 0:
            return np.empty(0, dtype=np.int64)
        dfmt = QFormat(self.data_width, 0)
        if int(x.max()) > dfmt.max_raw or int(x.min()) < dfmt.min_raw:
            raise ConfigurationError(f"input sample out of {dfmt} range")

        buf = np.concatenate([self._hist, x])
        hist_len = len(self._hist)
        first_out = (-self._offset) % self.decimation
        out_positions = np.arange(first_out, len(x), self.decimation)
        n_taps = len(self.taps_raw)
        if out_positions.size:
            idx = out_positions[:, None] + hist_len - np.arange(n_taps)[None, :]
            windows = buf[idx]
            acc = windows @ self.taps_raw
            # The accumulator physically cannot overflow at the default
            # width; saturate anyway so narrower ablation widths behave
            # like saturating hardware rather than corrupting silently.
            acc = saturate(acc, self.accumulator_format)
            y = quantize(acc, self.output_shift, Rounding.TRUNCATE)
            y = saturate(y, self.output_format)
        else:
            y = np.empty(0, dtype=np.int64)

        self._offset = (self._offset + len(x)) % self.decimation
        if n_taps > 1:
            tail = buf[len(buf) - (n_taps - 1) :]
            # buf is private (np.concatenate always allocates), so the tail
            # view is safe to keep; copy only when holding it would pin a
            # much larger block than the history itself.
            self._hist = tail if len(buf) <= 4 * (n_taps - 1) else tail.copy()
        else:
            self._hist = np.empty(0, dtype=np.int64)
        return y

    def mac_ops_per_output(self) -> int:
        """Multiply-accumulate operations per output sample (= tap count).

        The sequential FPGA implementation spends one clock per MAC; for
        124 taps this is the "125 clock cycles" figure of Section 5.2.1
        (124 MACs + 1 output cycle).
        """
        return len(self.taps_raw)

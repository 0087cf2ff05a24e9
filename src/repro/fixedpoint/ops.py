"""Vectorised fixed-point operations with explicit overflow and rounding.

All functions operate on raw integer representations held in ``int64`` NumPy
arrays (or Python ints) and are safe for word lengths up to 62 bits of
result.  Overflow behaviour is always explicit:

- :data:`Overflow.SATURATE` clamps to the representable range, the behaviour
  of the FPGA FIR output stage ("In case of saturation, the maximum or the
  minimum value is returned", Section 5.2.1);
- :data:`Overflow.WRAP` wraps modulo ``2**width``, the behaviour of CIC
  integrators, which rely on modular arithmetic to cancel overflow between
  the integrator and comb sections (Hogenauer's classic result).

Rounding modes cover the two used by real DDC hardware: truncation toward
minus infinity (drop LSBs, what the paper's FPGA quantiser does) and
round-half-up.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from ..errors import FixedPointError
from .qformat import QFormat

ArrayLike = Union[int, float, np.ndarray]


class Overflow(enum.Enum):
    """Overflow policy for fixed-point results."""

    SATURATE = "saturate"
    WRAP = "wrap"


class Rounding(enum.Enum):
    """Rounding policy when discarding fraction bits."""

    TRUNCATE = "truncate"        # floor: drop bits (hardware truncation)
    NEAREST = "nearest"          # round half away from zero
    FLOOR = "floor"              # alias of TRUNCATE semantics


def _as_int64(x: ArrayLike) -> np.ndarray:
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.integer):
        raise FixedPointError(
            f"raw fixed-point values must be integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def saturate(raw: ArrayLike, fmt: QFormat) -> np.ndarray:
    """Clamp raw values into the representable range of ``fmt``."""
    arr = _as_int64(raw)
    return np.clip(arr, fmt.min_raw, fmt.max_raw)


def wrap(raw: ArrayLike, fmt: QFormat) -> np.ndarray:
    """Wrap raw values modulo ``2**width`` into ``fmt``'s signed range.

    This reproduces two's-complement register behaviour: bits above the
    word width are discarded and the sign bit is re-interpreted.
    """
    arr = _as_int64(raw)
    if fmt.width >= 64:
        # int64 arithmetic is already modulo 2**64; reinterpretation is a no-op.
        return arr.copy()
    # Bias so the sign bit becomes a carry into the masked-off region:
    # ((v + half) mod 2**width) - half maps any v onto [-half, half) while
    # preserving congruence mod 2**width.  Two cheap passes (add folds into
    # the mask's temp) instead of mask + compare + where.
    half = np.int64(1) << (fmt.width - 1)
    mask = (np.int64(1) << fmt.width) - 1
    with np.errstate(over="ignore"):
        return ((arr + half) & mask) - half


def _apply_overflow(raw: np.ndarray, fmt: QFormat, policy: Overflow) -> np.ndarray:
    if policy is Overflow.SATURATE:
        return saturate(raw, fmt)
    if policy is Overflow.WRAP:
        return wrap(raw, fmt)
    raise FixedPointError(f"unknown overflow policy {policy!r}")


def quantize(
    raw: ArrayLike,
    shift: int,
    rounding: Rounding = Rounding.TRUNCATE,
) -> np.ndarray:
    """Discard ``shift`` LSBs from raw values with the given rounding.

    ``shift`` may be zero (no-op) but not negative; widening is a plain
    left shift and needs no rounding decision.
    """
    if shift < 0:
        raise FixedPointError(f"quantize shift must be >= 0, got {shift}")
    arr = _as_int64(raw)
    if shift == 0:
        return arr.copy()
    if rounding in (Rounding.TRUNCATE, Rounding.FLOOR):
        # Arithmetic right shift == floor division by 2**shift.
        return arr >> shift
    if rounding is Rounding.NEAREST:
        half = np.int64(1) << (shift - 1)
        # Round half away from zero to keep the quantiser odd-symmetric.
        return np.where(arr >= 0, (arr + half) >> shift, -((-arr + half) >> shift))
    raise FixedPointError(f"unknown rounding mode {rounding!r}")


def to_fixed(
    value: ArrayLike,
    fmt: QFormat,
    rounding: Rounding = Rounding.NEAREST,
    overflow: Overflow = Overflow.SATURATE,
) -> np.ndarray:
    """Convert real values to raw integers in ``fmt``.

    Rounding happens in floating point (the values are real numbers, not
    raw words), then the overflow policy is applied.
    """
    arr = np.asarray(value, dtype=np.float64)
    scaled = arr * (2.0 ** fmt.frac)
    if rounding is Rounding.NEAREST:
        raw = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    elif rounding in (Rounding.TRUNCATE, Rounding.FLOOR):
        raw = np.floor(scaled)
    else:
        raise FixedPointError(f"unknown rounding mode {rounding!r}")
    raw = raw.astype(np.int64)
    return _apply_overflow(raw, fmt, overflow)


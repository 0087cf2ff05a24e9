"""Declarative population specs for Monte-Carlo scenario simulation.

The paper answers "which architecture wins at duty cycle d?" for a
handful of hand-picked d (Table 7); a production system asks what the
energy / battery-life *distribution* looks like across millions of
users.  A :class:`PopulationSpec` declares that population: a seeded
sample count, a continuous **duty-cycle distribution**, and discrete
**config-axis distributions** over any workload
``scenario_axes()``/``config_axes()`` field.

Two structural rules keep a 10^6-sample run cheap and exactly
reproducible:

- **Config axes are discrete.**  Every config axis is a :class:`Choice`,
  which samples *indices* into its ``values``, so the engine can
  deduplicate samples down to distinct configurations (mixed-radix
  codes + ``np.unique``) and pay one batched model evaluation per
  distinct config — not per sample.  Python value types (``int``
  fir_taps vs ``float`` rates) survive the round trip because configs
  are rebuilt from the declared values themselves.
- **The duty cycle is the streamed continuous axis.**  Its distribution
  must be provably bounded within [0, 1] (:meth:`Distribution.bounds`),
  so every sampled value passes
  :func:`repro.energy.scenarios.check_duty_cycles` by construction.

All distributions are frozen dataclasses of primitives/tuples: hashable,
comparable, and serialisable via
:meth:`Distribution.describe` into the deterministic report JSON.
Sampling draws from a single ``numpy.random.Generator`` in declaration
order — duty cycle first, then axes — and the engine replays each draw
chunk by chunk from a snapshot (see :class:`Distribution`), which is
what makes reports byte-identical across chunk sizes and worker
counts.
"""

from __future__ import annotations

import dataclasses
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..config import check_finite
from ..errors import ConfigurationError

#: The nearest-rank percentiles every population report carries.
PERCENTILES = (50.0, 95.0, 99.0)

#: Largest population per engine.  Vector memory stays flat, but at ~5e6
#: users/s (2-CPU box) 10^10 users take half an hour; the scalar oracle is
#: a per-sample python loop (~10^4 users/s) over an ``(n, n_arch)`` matrix.
MAX_VECTOR_SAMPLES, MAX_SCALAR_SAMPLES = 10**10, 10**6
#: What one streamed chunk, or the report, may hold at once.  A chunk
#: costs about 270 B per user and the report about 350 B per duty bin
#: (the ddc workload's six architectures, peak RSS on a 2-CPU box); the
#: limits price them at 512 B and 1 KiB for headroom.  Each in-flight
#: chunk (at most one per pool thread) has its own budget.
MEMORY_BUDGET = 1 << 30
MAX_CHUNK_SAMPLES, MAX_DUTY_BINS = MEMORY_BUDGET // 512, MEMORY_BUDGET // 1024


# --------------------------------------------------------------------------
# distributions
# --------------------------------------------------------------------------
class Distribution(ABC):
    """A named, seeded, vectorised sampling rule.

    :class:`Choice`, the one discrete distribution, additionally samples
    indices into its ``values`` (``sample_indices``); only it may drive
    config axes (the dedup contract).  Every subclass draws a fixed,
    size-dependent number of variates from the generator it is handed —
    never a data-dependent number — so multi-axis sampling stays
    reproducible in declaration order.  The streaming engine relies on
    this: each draw is one generator call taking ``size=n`` by keyword,
    which it replays from a snapshot one chunk at a time (a distribution
    that cannot promise this cannot stream).
    """

    #: Registry name used by :func:`parse_distribution` and ``describe``.
    kind: str = "abstract"

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` float64 variates."""

    def bounds(self) -> tuple[float, float] | None:
        """Provable ``(lo, hi)`` value bounds, or ``None`` if unbounded.

        The duty-cycle axis requires bounds within [0, 1]; wrap an
        unbounded ``normal`` with clip bounds.
        """
        return None

    def describe(self) -> dict[str, Any]:
        """JSON-ready declaration (goes into the report verbatim)."""
        doc: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            doc[f.name] = getattr(self, f.name)
        return doc


def _check_clip(low: float | None, high: float | None) -> None:
    if low is not None and high is not None and not low <= high:
        raise ConfigurationError(
            f"clip bounds are inverted: low={low!r} > high={high!r}"
        )


def _clip(x: np.ndarray, low: float | None, high: float | None) -> np.ndarray:
    if low is None and high is None:
        return x
    return np.clip(x, low, high)


def _cumulative(weights: tuple[float, ...], what: str) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ConfigurationError(f"{what} must not be empty")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or float(w.sum()) <= 0:
        raise ConfigurationError(
            f"{what} must be non-negative, finite, with a positive sum; "
            f"got {weights!r}"
        )
    return np.cumsum(w) / float(w.sum())


def _weighted_indices(
    cumulative: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    # Inverse-CDF sampling: rng.random() < 1, so the searchsorted index
    # is already < len(cumulative) whenever the cumulative tail reaches
    # 1.0 exactly; the clip guards the float-rounding case where it
    # lands at 1 - ulp.
    u = rng.random(size=n)
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, len(cumulative) - 1).astype(np.int64)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high)``."""

    low: float = 0.0
    high: float = 1.0
    kind = "uniform"

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.low <= self.high:
            raise ConfigurationError(
                f"uniform bounds are inverted: low={self.low!r} > "
                f"high={self.high!r}"
            )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def bounds(self) -> tuple[float, float]:
        return (float(self.low), float(self.high))


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian, optionally clipped to ``[low, high]``.

    Clipping (not rejection) keeps the draw count fixed per sample; the
    probability mass outside the bounds piles up *at* the bounds, which
    is the intended reading for duty cycles ("saturated users").
    """

    mean: float = 0.0
    std: float = 1.0
    low: float | None = None
    high: float | None = None
    kind = "normal"

    def __post_init__(self) -> None:
        check_finite(self)
        if self.std < 0:
            raise ConfigurationError(f"std must be >= 0, got {self.std!r}")
        _check_clip(self.low, self.high)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _clip(rng.normal(self.mean, self.std, size=n), self.low, self.high)

    def bounds(self) -> tuple[float, float] | None:
        if self.low is None or self.high is None:
            return None
        return (float(self.low), float(self.high))


@dataclass(frozen=True)
class Mixture(Distribution):
    """Weighted mixture of continuous components.

    ``components`` is ``((weight, distribution), ...)``; weights are
    normalised internally.  Sampling draws the component selector first,
    then a full ``n`` variates from *every* component and selects — a
    fixed draw count per component, which is what keeps multi-axis
    sampling order-stable.  Discrete components are rejected: a mixture
    of ``Choice``s is just one ``Choice`` with combined weights, and
    allowing both would fork the dedup support.
    """

    components: tuple[tuple[float, Distribution], ...] = ()
    kind = "mixture"

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ConfigurationError("mixture needs at least one component")
        for w, dist in self.components:
            if not isinstance(dist, Distribution):
                raise ConfigurationError(
                    f"mixture component {dist!r} is not a Distribution"
                )
            if isinstance(dist, Choice):
                raise ConfigurationError(
                    "mixture components must be continuous; fold discrete "
                    "components into a single weighted Choice instead"
                )
        _cumulative(tuple(w for w, _ in self.components), "mixture weights")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cum = _cumulative(
            tuple(w for w, _ in self.components), "mixture weights"
        )
        which = _weighted_indices(cum, rng, n)
        out = np.empty(n, dtype=np.float64)
        for k, (_, dist) in enumerate(self.components):
            draws = dist.sample(rng, n)
            mask = which == k
            out[mask] = draws[mask]
        return out

    def bounds(self) -> tuple[float, float] | None:
        lo, hi = np.inf, -np.inf
        for _, dist in self.components:
            b = dist.bounds()
            if b is None:
                return None
            lo, hi = min(lo, b[0]), max(hi, b[1])
        return (float(lo), float(hi))

    def describe(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "components": [
                {"weight": w, "distribution": d.describe()}
                for w, d in self.components
            ],
        }


@dataclass(frozen=True)
class Choice(Distribution):
    """A weighted categorical over explicit values (unweighted default),
    sampled as indices into its ``values``."""

    values: tuple[Any, ...] = ()
    weights: tuple[float, ...] | None = None
    kind = "choice"

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ConfigurationError("choice needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ConfigurationError(
                f"choice values must be distinct, got {self.values!r}"
            )
        if self.weights is not None:
            if len(self.weights) != len(self.values):
                raise ConfigurationError(
                    f"choice has {len(self.values)} values but "
                    f"{len(self.weights)} weights"
                )
            _cumulative(self.weights, "choice weights")

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` int64 indices into :attr:`values`."""
        if self.weights is None:
            return rng.integers(0, len(self.values), size=n, dtype=np.int64)
        return _weighted_indices(
            _cumulative(self.weights, "choice weights"), rng, n
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = np.asarray(self.values, dtype=np.float64)
        return values[self.sample_indices(rng, n)]

    def bounds(self) -> tuple[float, float] | None:
        try:
            return (float(min(self.values)), float(max(self.values)))
        except (TypeError, ValueError):
            return None


# --------------------------------------------------------------------------
# CLI grammar
# --------------------------------------------------------------------------
_DIST_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")


def _coerce(token: str) -> Any:
    """int-first numeric coercion (int axis values must stay int)."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigurationError(
            f"cannot parse {token!r} as a number"
        ) from exc


def _split_args(body: str) -> list[str]:
    return [t for t in (p.strip() for p in body.split(",")) if t]


def parse_distribution(text: str) -> Distribution:
    """Parse the CLI distribution grammar.

    ``uniform(lo,hi)`` · ``normal(mean,std[,lo,hi])`` ·
    ``choice(v1,v2,...)`` / ``choice(v1:w1,v2:w2,...)`` ·
    ``point(v)`` (a one-value choice).  Mixtures are API-only.
    """
    m = _DIST_RE.match(text)
    if not m:
        raise ConfigurationError(
            f"cannot parse distribution {text!r}; expected e.g. "
            "'uniform(0,1)', 'normal(0.3,0.1,0,1)', 'choice(63,125,255)', "
            "'point(125)'"
        )
    kind, body = m.group(1), m.group(2)
    args = _split_args(body)
    if kind == "uniform":
        if len(args) != 2:
            raise ConfigurationError("uniform takes exactly (low, high)")
        return Uniform(low=float(_coerce(args[0])),
                       high=float(_coerce(args[1])))
    if kind == "normal":
        if len(args) not in (2, 4):
            raise ConfigurationError(
                "normal takes (mean, std) or (mean, std, low, high)"
            )
        nums = [float(_coerce(a)) for a in args]
        lo, hi = (nums[2], nums[3]) if len(nums) == 4 else (None, None)
        return Normal(mean=nums[0], std=nums[1], low=lo, high=hi)
    if kind == "choice":
        if not args:
            raise ConfigurationError("choice needs at least one value")
        if any(":" in a for a in args):
            pairs = []
            for a in args:
                v, _, w = a.partition(":")
                if not w:
                    raise ConfigurationError(
                        f"weighted choice entry {a!r} needs 'value:weight'"
                    )
                pairs.append((_coerce(v), float(_coerce(w))))
            return Choice(values=tuple(v for v, _ in pairs),
                          weights=tuple(w for _, w in pairs))
        return Choice(values=tuple(_coerce(a) for a in args))
    if kind == "point":
        if len(args) != 1:
            raise ConfigurationError("point takes exactly one value")
        return Choice(values=(_coerce(args[0]),))
    raise ConfigurationError(
        f"unknown distribution kind {kind!r}; choose one of: "
        "uniform, normal, choice, point"
    )


# --------------------------------------------------------------------------
# the spec
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PopulationSpec:
    """A seeded user population over one workload.

    ``duty_cycle=None`` / ``axes=None`` resolve to the workload's
    declared defaults (:meth:`~repro.workloads.base.Workload.
    duty_cycle_distribution` / ``population_axes``); pass ``axes=()``
    explicitly for a reference-config-only population.  ``chunk_samples``
    is an execution knob, not part of the population: :meth:`describe`
    leaves it out, and reports are byte-identical across its values.
    """

    workload: str = "ddc"
    n_samples: int = 100_000
    seed: int = 0
    duty_cycle: Distribution | None = None
    axes: tuple[tuple[str, Distribution], ...] | None = None
    base_config: Any = None
    standby_fraction: float = 0.05
    battery_wh: float = 3.7
    duty_bins: int = 10
    chunk_samples: int = 65_536
    on_error: str = "raise"

    def __post_init__(self) -> None:
        from ..workloads import check_study_spec

        wl = check_study_spec(self)
        if self.n_samples < 1:
            raise ConfigurationError(
                f"n_samples must be >= 1, got {self.n_samples!r}"
            )
        for name, limit in (("chunk_samples", MAX_CHUNK_SAMPLES),
                            ("duty_bins", MAX_DUTY_BINS)):
            if not 1 <= getattr(self, name) <= limit:
                raise ConfigurationError(
                    f"{name} must be in [1, {limit}], "
                    f"got {getattr(self, name)!r}"
                )
        check_finite(self)
        if self.battery_wh <= 0:
            raise ConfigurationError(
                f"battery_wh must be > 0, got {self.battery_wh!r}"
            )

        duty = self.duty_cycle
        if duty is None:
            duty = wl.duty_cycle_distribution()
        if not isinstance(duty, Distribution):
            raise ConfigurationError(
                f"duty_cycle must be a Distribution, got {duty!r}"
            )
        b = duty.bounds()
        if b is None or b[0] < 0.0 or b[1] > 1.0:
            raise ConfigurationError(
                f"duty-cycle distribution {duty.describe()!r} must be "
                "provably bounded within [0, 1]; clip unbounded "
                "distributions (normal takes low/high bounds)"
            )
        object.__setattr__(self, "duty_cycle", duty)

        axes = self.axes
        if axes is None:
            axes = tuple(wl.population_axes().items())
        axes = tuple((name, dist) for name, dist in axes)
        wl.check_axes(axes, kind="population")
        for name, dist in axes:
            if not isinstance(dist, Choice):
                raise ConfigurationError(
                    f"population axis {name!r} needs a *discrete* "
                    "distribution (choice/point) so unique-point "
                    f"deduplication applies; got {dist!r}"
                )
        object.__setattr__(self, "axes", axes)

    # ------------------------------------------------------------- helpers
    def n_distinct_bound(self) -> int:
        """Upper bound on distinct configurations (product of the axes'
        value counts)."""
        total = 1
        for _, dist in self.axes:
            total *= len(dist.values)
        return total

    def describe(self) -> dict[str, Any]:
        """JSON-ready spec (statistical fields only; see module doc)."""
        return {
            "workload": self.workload,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "duty_cycle": self.duty_cycle.describe(),
            "axes": [
                {"field": name, "distribution": dist.describe()}
                for name, dist in self.axes
            ],
            "base_config": dataclasses.asdict(self.base_config),
            "standby_fraction": self.standby_fraction,
            "battery_wh": self.battery_wh,
            "duty_bins": self.duty_bins,
            "percentiles": list(PERCENTILES),
            "on_error": self.on_error,
        }

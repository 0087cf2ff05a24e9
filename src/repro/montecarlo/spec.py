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

- **Config axes are discrete.**  Every config-axis distribution exposes
  a finite ``support`` and samples *indices* into it, so the engine can
  deduplicate samples down to distinct configurations (mixed-radix
  codes + ``np.unique``) and pay one batched model evaluation per
  distinct config — not per sample.  Python value types (``int``
  fir_taps vs ``float`` rates) survive the round trip because configs
  are rebuilt from the support values themselves.
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
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import check_finite
from ..errors import ConfigurationError

#: Execution knobs excluded from ``PopulationSpec.describe()``: they pick
#: how the estimator is *run*, not what it estimates, and the seeded
#: determinism contract promises byte-identical reports across them.
EXECUTION_FIELDS = ("chunk_samples",)


# --------------------------------------------------------------------------
# distributions
# --------------------------------------------------------------------------
class Distribution(ABC):
    """A named, seeded, vectorised sampling rule.

    ``discrete`` distributions additionally expose a finite
    :attr:`support` and :meth:`sample_indices`; only they may drive
    config axes (the dedup contract).  Every subclass draws a fixed,
    size-dependent number of variates from the generator it is handed —
    never a data-dependent number — so multi-axis sampling stays
    reproducible in declaration order.  The streaming engine relies on
    this: each draw is one generator call taking ``size=n`` by keyword,
    which it replays from a snapshot one chunk at a time (a distribution
    that cannot promise this cannot stream).  ``offset`` is the
    population index of the first variate (``Trace(replay="cycle")``).
    """

    #: Registry name used by :func:`parse_distribution` and ``describe``.
    kind: str = "abstract"
    #: Finite-support distributions (Choice/Trace) sample indices.
    discrete: bool = False

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
        """``n`` float64 variates."""

    def bounds(self) -> tuple[float, float] | None:
        """Provable ``(lo, hi)`` value bounds, or ``None`` if unbounded.

        The duty-cycle axis requires bounds within [0, 1]; wrap unbounded
        distributions (``normal``/``lognormal``) with clip bounds.
        """
        return None

    def describe(self) -> dict[str, Any]:
        """JSON-ready declaration (goes into the report verbatim)."""
        doc: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            if not f.name.startswith("_"):
                doc[f.name] = getattr(self, f.name)
        return doc


class DiscreteDistribution(Distribution):
    """A distribution over a finite support, sampled as indices."""

    discrete = True

    @property
    @abstractmethod
    def support(self) -> tuple[Any, ...]:
        """The distinct values, in a deterministic declared order."""

    @abstractmethod
    def sample_indices(self, rng: np.random.Generator, n: int, offset=0) -> np.ndarray:
        """``n`` int64 indices into :attr:`support`."""

    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
        values = np.asarray(self.support, dtype=np.float64)
        return values[self.sample_indices(rng, n, offset)]

    def bounds(self) -> tuple[float, float] | None:
        try:
            return (float(min(self.support)), float(max(self.support)))
        except (TypeError, ValueError):
            return None


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

    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
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

    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
        return _clip(rng.normal(self.mean, self.std, size=n), self.low, self.high)

    def bounds(self) -> tuple[float, float] | None:
        if self.low is None or self.high is None:
            return None
        return (float(self.low), float(self.high))


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal (``exp(N(mu, sigma))``), optionally clipped."""

    mu: float = 0.0
    sigma: float = 1.0
    low: float | None = None
    high: float | None = None
    kind = "lognormal"

    def __post_init__(self) -> None:
        check_finite(self)
        if self.sigma < 0:
            raise ConfigurationError(
                f"sigma must be >= 0, got {self.sigma!r}"
            )
        _check_clip(self.low, self.high)

    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
        return _clip(
            rng.lognormal(self.mu, self.sigma, size=n), self.low, self.high
        )

    def bounds(self) -> tuple[float, float] | None:
        if self.high is None:
            return None
        return (float(self.low) if self.low is not None else 0.0,
                float(self.high))


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
            if dist.discrete:
                raise ConfigurationError(
                    "mixture components must be continuous; fold discrete "
                    "components into a single weighted Choice instead"
                )
        _cumulative(tuple(w for w, _ in self.components), "mixture weights")

    def sample(self, rng: np.random.Generator, n: int, offset: int = 0) -> np.ndarray:
        cum = _cumulative(
            tuple(w for w, _ in self.components), "mixture weights"
        )
        which = _weighted_indices(cum, rng, n)
        out = np.empty(n, dtype=np.float64)
        for k, (_, dist) in enumerate(self.components):
            draws = dist.sample(rng, n, offset)
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
class Choice(DiscreteDistribution):
    """A weighted categorical over explicit values (unweighted default)."""

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

    @property
    def support(self) -> tuple[Any, ...]:
        return self.values

    def sample_indices(self, rng: np.random.Generator, n: int, offset=0) -> np.ndarray:
        if self.weights is None:
            return rng.integers(0, len(self.values), size=n, dtype=np.int64)
        return _weighted_indices(
            _cumulative(self.weights, "choice weights"), rng, n
        )


@dataclass(frozen=True)
class Trace(DiscreteDistribution):
    """Empirical replay of a recorded trace.

    ``replay="bootstrap"`` resamples trace positions uniformly with
    replacement (the empirical distribution); ``replay="cycle"`` replays
    the trace in order, wrapping — sample ``i`` (the population index,
    ``offset`` included) takes trace position ``i mod len(trace)``,
    independent of the RNG (it still participates
    in the seeded pass for draw-order stability of *other* axes by
    consuming zero draws).  The support is the distinct trace values in
    first-appearance order, so dedup cost scales with distinct values,
    not trace length.
    """

    trace: tuple[Any, ...] = ()
    replay: str = "bootstrap"
    kind = "trace"
    _support: tuple[Any, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _position_index: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if len(self.trace) == 0:
            raise ConfigurationError("trace must not be empty")
        if self.replay not in ("bootstrap", "cycle"):
            raise ConfigurationError(
                f"unknown trace replay {self.replay!r}; "
                "choose one of: bootstrap, cycle"
            )
        seen: dict[str, int] = {}
        support: list[Any] = []
        positions: list[int] = []
        for value in self.trace:
            key = repr(value)
            if key not in seen:
                seen[key] = len(support)
                support.append(value)
            positions.append(seen[key])
        object.__setattr__(self, "_support", tuple(support))
        object.__setattr__(self, "_position_index", tuple(positions))

    @property
    def support(self) -> tuple[Any, ...]:
        return self._support

    def sample_indices(self, rng: np.random.Generator, n: int, offset=0) -> np.ndarray:
        pos_to_support = np.asarray(self._position_index, dtype=np.int64)
        if self.replay == "cycle":
            pos = np.arange(offset, offset + n, dtype=np.int64) % len(self.trace)
        else:
            pos = rng.integers(0, len(self.trace), size=n, dtype=np.int64)
        return pos_to_support[pos]


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
    ``lognormal(mu,sigma[,lo,hi])`` · ``choice(v1,v2,...)`` /
    ``choice(v1:w1,v2:w2,...)`` · ``trace(v1,v2,...)`` (cycle replay) ·
    ``point(v)`` (a one-value choice).  Mixtures are API-only.
    """
    m = _DIST_RE.match(text)
    if not m:
        raise ConfigurationError(
            f"cannot parse distribution {text!r}; expected e.g. "
            "'uniform(0,1)', 'normal(0.3,0.1,0,1)', 'choice(63,125,255)', "
            "'trace(0.1,0.4,0.1)', 'point(125)'"
        )
    kind, body = m.group(1), m.group(2)
    args = _split_args(body)
    if kind == "uniform":
        if len(args) != 2:
            raise ConfigurationError("uniform takes exactly (low, high)")
        return Uniform(low=float(_coerce(args[0])),
                       high=float(_coerce(args[1])))
    if kind in ("normal", "lognormal"):
        if len(args) not in (2, 4):
            raise ConfigurationError(
                f"{kind} takes (a, b) or (a, b, low, high)"
            )
        nums = [float(_coerce(a)) for a in args]
        lo, hi = (nums[2], nums[3]) if len(nums) == 4 else (None, None)
        if kind == "normal":
            return Normal(mean=nums[0], std=nums[1], low=lo, high=hi)
        return LogNormal(mu=nums[0], sigma=nums[1], low=lo, high=hi)
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
    if kind == "trace":
        if not args:
            raise ConfigurationError("trace needs at least one value")
        return Trace(trace=tuple(_coerce(a) for a in args), replay="cycle")
    if kind == "point":
        if len(args) != 1:
            raise ConfigurationError("point takes exactly one value")
        return Choice(values=(_coerce(args[0]),))
    raise ConfigurationError(
        f"unknown distribution kind {kind!r}; choose one of: "
        "uniform, normal, lognormal, choice, trace, point"
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
    is an execution knob, not part of the population — reports are
    byte-identical across its values (see :data:`EXECUTION_FIELDS`).
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
    percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    chunk_samples: int = 65_536
    on_error: str = "raise"

    def __post_init__(self) -> None:
        from ..workloads import check_study_spec

        wl = check_study_spec(self)
        if self.n_samples < 1:
            raise ConfigurationError(
                f"n_samples must be >= 1, got {self.n_samples!r}"
            )
        if self.chunk_samples < 1:
            raise ConfigurationError(
                f"chunk_samples must be >= 1, got {self.chunk_samples!r}"
            )
        if self.duty_bins < 1:
            raise ConfigurationError(
                f"duty_bins must be >= 1, got {self.duty_bins!r}"
            )
        check_finite(self)
        if self.battery_wh <= 0:
            raise ConfigurationError(
                f"battery_wh must be > 0, got {self.battery_wh!r}"
            )
        if len(self.percentiles) == 0:
            raise ConfigurationError("need at least one percentile")
        for q in self.percentiles:
            if not 0.0 < q <= 100.0:
                raise ConfigurationError(
                    f"percentile {q!r} is outside (0, 100]"
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
                "distributions (normal/lognormal take low/high bounds)"
            )
        object.__setattr__(self, "duty_cycle", duty)

        axes = self.axes
        if axes is None:
            axes = tuple(wl.population_axes().items())
        axes = tuple((name, dist) for name, dist in axes)
        wl.check_axes(axes, kind="population")
        for name, dist in axes:
            if not isinstance(dist, Distribution) or not dist.discrete:
                raise ConfigurationError(
                    f"population axis {name!r} needs a *discrete* "
                    "distribution (choice/trace) so unique-point "
                    f"deduplication applies; got {dist!r}"
                )
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "percentiles",
                           tuple(float(q) for q in self.percentiles))

    # ------------------------------------------------------------- helpers
    def n_distinct_bound(self) -> int:
        """Upper bound on distinct configurations (product of supports)."""
        total = 1
        for _, dist in self.axes:
            total *= len(dist.support)
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
            "percentiles": list(self.percentiles),
            "on_error": self.on_error,
        }

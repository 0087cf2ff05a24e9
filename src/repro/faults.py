"""Deterministic fault injection for the execution layer.

The chaos suite (``pytest -m faults``) has to prove that the recovery
paths of :mod:`repro.sweep`, :mod:`repro.explore`, :mod:`repro.montecarlo`
and the explore store reproduce fault-free output *byte for byte*.  That
needs faults which strike at declared places, a declared number of
times, regardless of scheduling — not random monkey-patching.

A :class:`FaultPlan` is a frozen set of :class:`FaultSpec` s.  Library
code marks its **fault sites** by calling :func:`fault_point` with a
site name and a content key (a cell index, a store file name, ...)::

    fault_point("sweep.point", key=point.index)

With no plan active the call is a few dict lookups — the sites stay in
production code.  An active plan fires every spec whose ``site`` (and
``keys``, if given) match, up to ``times`` firings per ``(spec, key)``:

- ``kind="error"`` — raise :class:`InjectedFault` (a transient task
  failure; retries see the next invocation succeed);
- ``kind="kill"``  — ``os._exit(kill_code)``: a dirty shutdown of a
  CLI run (the checkpoint/resume story);
- ``kind="sleep"`` — block ``delay_s`` seconds (e.g. hold a store
  writer inside its read-modify-write while a second writer arrives);
- ``kind="torn"``  — truncate the file at the site's ``path`` by
  ``tear_bytes`` bytes and then raise :class:`InjectedFault`: a torn
  store write, the crash-after-partial-flush case.

**Determinism.**  Firing counts, not invocation counts, are tracked: a
spec with ``times=1`` injects exactly one fault no matter how often the
site is re-visited by retries or engine rounds.  In one process the
counters are an in-memory table.  Across processes (CLI children, two
store writers) two mechanisms compose:

- the plan travels in the :data:`ENV_VAR` environment variable
  (:func:`activate` sets it, children parse it lazily), and
- when ``scratch`` names a directory, firings are claimed through
  atomically created marker files there, so "exactly one kill" holds
  even though the killed process takes its memory with it.

Keys make injection scheduling-independent: a spec keyed on cell index
3 fires wherever cell 3 runs, in whichever thread, in whichever order.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import ConfigurationError, ReproError

#: Environment variable carrying the active plan to child processes.
ENV_VAR = "REPRO_FAULTS"

#: Fault kinds a spec may inject.
KINDS = ("error", "kill", "sleep", "torn")


class InjectedFault(ReproError):
    """The failure raised by ``kind="error"`` / ``kind="torn"`` faults."""


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: where it strikes, what it does, how often.

    ``keys`` restricts the spec to matching site keys (empty = any key);
    ``times`` bounds firings per distinct key.  Keys are compared by
    ``repr`` so tuples and ints survive the JSON round-trip to child
    processes unchanged.
    """

    site: str
    kind: str = "error"
    keys: tuple[Any, ...] = ()
    times: int = 1
    delay_s: float = 0.0
    tear_bytes: int = 64
    kill_code: int = 23

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("a fault spec needs a site name")
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.times < 1:
            raise ConfigurationError(
                f"times must be >= 1, got {self.times}"
            )
        if self.delay_s < 0.0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )
        if self.tear_bytes < 1:
            raise ConfigurationError(
                f"tear_bytes must be >= 1, got {self.tear_bytes}"
            )

    def matches(self, site: str, key: Any) -> bool:
        if site != self.site:
            return False
        if not self.keys:
            return True
        key_repr = repr(key)
        return any(repr(k) == key_repr for k in self.keys)

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "keys": list(self.keys),
            "times": self.times,
            "delay_s": self.delay_s,
            "tear_bytes": self.tear_bytes,
            "kill_code": self.kill_code,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FaultSpec":
        return cls(
            site=doc["site"],
            kind=doc["kind"],
            keys=tuple(
                tuple(k) if isinstance(k, list) else k for k in doc["keys"]
            ),
            times=doc["times"],
            delay_s=doc["delay_s"],
            tear_bytes=doc["tear_bytes"],
            kill_code=doc["kill_code"],
        )


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs plus the cross-process bookkeeping knobs.

    ``scratch`` (optional) is a directory for firing-claim marker files
    — required whenever a ``kill`` fault must fire a bounded number of
    times across processes (the killed process cannot remember having
    fired).  In-memory counters serve the single-process case.
    """

    specs: tuple[FaultSpec, ...]
    scratch: str | None = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("a fault plan needs at least one spec")

    def to_json(self) -> str:
        return json.dumps(
            {
                "specs": [s.to_json() for s in self.specs],
                "scratch": self.scratch,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        return cls(
            specs=tuple(FaultSpec.from_json(s) for s in doc["specs"]),
            scratch=doc["scratch"],
        )


# ------------------------------------------------------------- active plan
#: The in-process plan (set by :func:`activate`) and its firing counters.
_ACTIVE: FaultPlan | None = None
_FIRED: dict[tuple[int, str], int] = {}
_LOCK = threading.Lock()

#: Parse cache for env-delivered plans, keyed on the raw env value so a
#: changed plan is re-parsed but the hot path stays one dict lookup.
_PARSED: dict[str, FaultPlan] = {}


def active_plan() -> FaultPlan | None:
    """The plan in force here: the in-process one, else the env one."""
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    plan = _PARSED.get(raw)
    if plan is None:
        plan = FaultPlan.from_json(raw)
        _PARSED[raw] = plan
    return plan


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` here and (via the environment) in child processes.

    Firing counters start fresh.  Child processes inherit the
    environment at spawn time, so arm the plan before starting them.
    """
    global _ACTIVE
    with _LOCK:
        _ACTIVE = plan
        _FIRED.clear()
    os.environ[ENV_VAR] = plan.to_json()


def deactivate() -> None:
    """Disarm fault injection here and for future child processes."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None
        _FIRED.clear()
    os.environ.pop(ENV_VAR, None)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with inject(plan): ...`` — arm, run, always disarm."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


# ----------------------------------------------------------------- firing
def _claim(plan: FaultPlan, spec_index: int, spec: FaultSpec, key: Any) -> bool:
    """True exactly ``spec.times`` times per (spec, key), plan-wide.

    With a scratch directory the claim is an ``O_CREAT|O_EXCL`` marker
    file — atomic across processes, immune to claimant death.  Without
    one it is the in-process counter table.
    """
    if plan.scratch:
        digest = f"{spec_index}-{abs(hash((spec.site, repr(key)))):x}"
        for n in range(spec.times):
            marker = os.path.join(plan.scratch, f"fault-{digest}-{n}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False
    counter_key = (spec_index, repr(key))
    with _LOCK:
        fired = _FIRED.get(counter_key, 0)
        if fired >= spec.times:
            return False
        _FIRED[counter_key] = fired + 1
        return True


def fault_point(site: str, key: Any = None, path: str | None = None) -> None:
    """A declared fault site; a no-op unless an armed spec matches.

    ``key`` is the content identity of this visit (cell index, file
    name); ``path`` is the file a ``torn`` spec may truncate.  Sites sit
    at cell/point/write granularity — never inside per-sample loops.
    """
    plan = active_plan()
    if plan is None:
        return
    for spec_index, spec in enumerate(plan.specs):
        if not spec.matches(site, key):
            continue
        if not _claim(plan, spec_index, spec, key):
            continue
        if spec.kind == "sleep":
            time.sleep(spec.delay_s)
            continue
        if spec.kind == "kill":
            os._exit(spec.kill_code)
        if spec.kind == "torn":
            if path is not None:
                _tear(path, spec.tear_bytes)
            raise InjectedFault(
                f"injected torn write at {site}[{key!r}]"
            )
        raise InjectedFault(f"injected fault at {site}[{key!r}]")


def _tear(path: str, tear_bytes: int) -> None:
    """Truncate ``path`` by ``tear_bytes`` (to >= 0), tearing its tail."""
    size = os.path.getsize(path)
    with open(path, "rb+") as fh:
        fh.truncate(max(0, size - tear_bytes))


"""Persistent on-disk report store: the ReportCache spill.

A :class:`ReportStore` is one JSONL file (schema
``repro-explore-store/v1``): a header line followed by self-contained
records —

- ``report`` records: one ``(model, configuration)`` implement outcome —
  the full :class:`~repro.archs.base.ImplementationReport` field set, or
  the cached :class:`~repro.errors.ConfigurationError` /
  :class:`~repro.errors.MappingError` (type + message);
- ``frontier`` records: one exploration's rendered report document,
  keyed by the digest of its search space.

Readers ignore record kinds they do not know, so the schema stays
``v1``: older files may still hold ``label`` records (from before a
model's ``name`` was the ``architecture`` of its reports) or
``checkpoint`` records (from when explore saved its state every
refinement round); both load as nothing and drop out on the next save.

The store is a cache, not a journal: every record can be recomputed
from the models, so a damaged file is refused, never repaired.

**Content-hashed invalidation**: models are identified by the SHA-256
digest of ``repr(model.cache_key())`` and configurations by their
:func:`~repro.core.evaluator.config_cache_key` field values verbatim.
Change a model constant (which the cache-key contract requires to change
``cache_key()``) and its stored entries simply stop matching — they are
retained in the file but never loaded, and the next :meth:`save`
rewrites the store with the new digests alongside.  Frontier snapshots
key on the spec *and* the full model set, so a model tweak invalidates
them too.

Round-trip exactness: floats serialise through :mod:`json` at
``repr`` precision (shortest round-trip), so a loaded report equals the
computed one field for field and a warm-started exploration reproduces
cold-run output byte for byte — asserted, together with the >= 90 %
hit-rate warm-start contract, in ``tests/test_explore.py``.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from .._atomic import write_atomic
from ..archs.base import (
    ArchitectureModel,
    Flexibility,
    ImplementationReport,
)
from .. import telemetry
from ..core.evaluator import ReportCache
from ..energy.technology import TechnologyNode
from ..errors import ConfigurationError, MappingError
from ..faults import fault_point
from .spec import ExploreSpec

SCHEMA = "repro-explore-store/v1"

#: The exception types the ReportCache contract allows in entries.
_ERROR_TYPES = {
    "ConfigurationError": ConfigurationError,
    "MappingError": MappingError,
}

#: The fields each record kind's readers need; other kinds are skipped.
_FIELDS = {"report": ("model", "config"), "frontier": ("space", "doc")}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_digest(model_key: tuple) -> str:
    """Content hash of one model identity (its ``cache_key()`` repr)."""
    return _digest(repr(model_key))


def space_digest(
    spec: ExploreSpec, models: Sequence[ArchitectureModel]
) -> str:
    """Content hash of one search space: the spec plus every model."""
    keys = tuple(model_digest(m.cache_key()) for m in models)
    return _digest(repr((spec, keys)))


def _report_to_json(report: ImplementationReport) -> dict:
    return {
        "architecture": report.architecture,
        "technology": {
            "feature_um": report.technology.feature_um,
            "vdd": report.technology.vdd,
            "label": report.technology.label,
        },
        "clock_hz": report.clock_hz,
        "power_w": report.power_w,
        "area_mm2": report.area_mm2,
        "flexibility": int(report.flexibility),
        "feasible": report.feasible,
        "notes": report.notes,
    }


def _report_from_json(doc: dict) -> ImplementationReport:
    tech = doc["technology"]
    return ImplementationReport(
        architecture=doc["architecture"],
        technology=TechnologyNode(
            feature_um=tech["feature_um"],
            vdd=tech["vdd"],
            label=tech["label"],
        ),
        clock_hz=doc["clock_hz"],
        power_w=doc["power_w"],
        area_mm2=doc["area_mm2"],
        flexibility=Flexibility(doc["flexibility"]),
        feasible=doc["feasible"],
        notes=doc["notes"],
    )


class ReportStore:
    """Content-hashed JSONL spill of a :class:`ReportCache` plus frontiers.

    The store is engine-agnostic persistence: :meth:`load` warm-starts a
    cache with every record produced by a model whose content digest
    still matches, :meth:`save` rewrites the file as the union of what
    it already held and the cache's current entries, and frontier
    documents ride alongside keyed by :func:`space_digest`.

    Writes are **atomic** (temp file + fsync + ``os.replace``), so a
    reader — or a crash — never sees a torn file.  A file damaged from
    outside the program (a line that does not parse, a record missing a
    field its reader needs, a foreign schema) is **refused**: reading it
    raises one :class:`~repro.errors.ConfigurationError` naming the path
    and line, and leaves the file as it is.  Deleting it starts a cold
    cache.

    Concurrent writers are **serialised**: every read-merge-write holds
    an exclusive :func:`fcntl.flock` on the store's directory (no
    sidecar lock file), so two processes saving to one file both keep
    their records.  Readers need no lock: writes are atomic.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------ raw file
    def _damaged(self, line: int, what: str) -> ConfigurationError:
        return ConfigurationError(
            f"{self.path}:{line}: damaged report store, {what}; delete the "
            "file to start a cold cache"
        )

    def _records(self) -> Iterator[tuple[int, str, dict]]:
        """``(1-based line, its text, record)`` for every record after the
        header.

        A missing or empty file holds none; a damaged one is refused
        (see the class docstring).
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise self._damaged(line, "not UTF-8 text") from None
        if not text:
            return
        for number, line in enumerate(text.split("\n"), 1):
            if number > 1 and not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise self._damaged(number, "not a JSON line") from None
            if not isinstance(record, dict):
                raise self._damaged(number, "not a JSON object")
            if number == 1:
                if record.get("schema") != SCHEMA:
                    raise self._damaged(
                        number,
                        f"unknown store schema {record.get('schema')!r}",
                    )
                continue
            kind = record.get("kind")
            for field in _FIELDS.get(kind, ()):
                if field not in record:
                    raise self._damaged(number, f"{kind} lacks {field!r}")
            yield number, line, record

    def _read_records(self) -> tuple[dict, dict]:
        """(reports, frontiers) keyed for dedup; refuses a damaged file.

        Each record is kept as its line, to be written back as read.
        """
        reports: dict[tuple[str, str], str] = {}
        frontiers: dict[str, str] = {}
        for _, line, record in self._records():
            kind = record.get("kind")
            if kind == "report":
                key = (record["model"], json.dumps(record["config"]))
                reports[key] = line
            elif kind == "frontier":
                frontiers[record["space"]] = line
        return reports, frontiers

    def _write_records(self, reports: dict, frontiers: dict) -> None:
        lines = [json.dumps({"schema": SCHEMA})]
        lines.extend(reports[key] for key in sorted(reports))
        lines.extend(frontiers[digest] for digest in sorted(frontiers))
        # Chaos site: an "error" spec fails the save before it publishes,
        # so the file on disk stays the previous whole store.
        fault_point("store.write", key=self.path.name)
        write_atomic(self.path, (line + "\n" for line in lines))

    @contextmanager
    def _update(self) -> Iterator[tuple[dict, dict]]:
        """Lock the store for one read-modify-write: yields the records
        of :meth:`_read_records` for the caller to merge and write back
        (:meth:`_write_records`) inside the block."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            fcntl.flock(dir_fd, fcntl.LOCK_EX)
            records = self._read_records()
            # Chaos site: a "sleep" spec holds this writer between its
            # read and its write, the window a lost update needs.
            fault_point("store.update", key=self.path.name)
            yield records
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------- reports
    def load(
        self, cache: ReportCache, models: Sequence[ArchitectureModel]
    ) -> int:
        """Warm-start ``cache`` with every record of the given models.

        Returns the number of report entries inserted.  Records whose
        model digest matches none of ``models`` — stale content, or
        another process's model set — are left untouched on disk and
        simply not loaded.
        """
        with telemetry.span("store.load", path=str(self.path)):
            by_digest = {
                model_digest(m.cache_key()): m.cache_key() for m in models
            }
            loaded = 0
            for number, _, record in self._records():
                if record.get("kind") != "report":
                    continue
                try:
                    key = by_digest.get(record["model"])
                    if key is None:
                        continue
                    config_key = tuple(record["config"])
                    if "report" in record:
                        entry = (_report_from_json(record["report"]), None)
                    else:
                        error_type = _ERROR_TYPES.get(record["error"]["type"])
                        if error_type is None:
                            continue
                        entry = (None, error_type(record["error"]["message"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise self._damaged(
                        number, f"bad report record: {exc!r}"
                    ) from None
                cache.insert(key, config_key, *entry)
                loaded += 1
            telemetry.counter("store.loaded", loaded)
            return loaded

    def save(self, cache: ReportCache) -> int:
        """Spill every cache entry; returns the total records on disk.

        Rewrites the file as the union of its previous records and the
        cache's current entries (cache wins on conflict); entries whose
        error type falls outside the cache contract are skipped.
        """
        with telemetry.span("store.save", path=str(self.path)):
            with self._update() as records:
                reports, _ = records
                self._merge_cache(reports, cache)
                self._write_records(*records)
            telemetry.counter("store.saved", len(reports))
            return len(reports)

    @staticmethod
    def _merge_cache(reports: dict, cache: ReportCache) -> None:
        """Fold the cache's entries into ``reports``, cache wins."""
        for model_key, config_key, report, error in cache.entries():
            digest = model_digest(model_key)
            config_list = list(config_key)
            record: dict = {
                "kind": "report",
                "model": digest,
                "config": config_list,
            }
            if report is not None:
                record["report"] = _report_to_json(report)
            else:
                type_name = type(error).__name__
                if type_name not in _ERROR_TYPES:
                    continue
                record["error"] = {
                    "type": type_name,
                    "message": str(error),
                }
            reports[(digest, json.dumps(config_list))] = json.dumps(
                record, sort_keys=True
            )

    # ----------------------------------------------------------- frontiers
    def save_frontier(
        self,
        spec: ExploreSpec,
        models: Sequence[ArchitectureModel],
        doc: dict,
    ) -> str:
        """Record one exploration's report document; returns its digest."""
        digest = space_digest(spec, models)
        with self._update() as records:
            _, frontiers = records
            frontiers[digest] = json.dumps(
                {"kind": "frontier", "space": digest, "doc": doc},
                sort_keys=True,
            )
            self._write_records(*records)
        return digest

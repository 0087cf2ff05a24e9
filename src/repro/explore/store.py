"""Persistent on-disk report store: the ReportCache spill.

A :class:`ReportStore` is one JSONL file (schema
``repro-explore-store/v1``): a header line followed by self-contained
records —

- ``report`` records: one ``(model, configuration)`` implement outcome —
  the full :class:`~repro.archs.base.ImplementationReport` field set, or
  the cached :class:`~repro.errors.ConfigurationError` /
  :class:`~repro.errors.MappingError` (type + message);
- ``frontier`` records: one exploration's rendered report document,
  keyed by the digest of its search space;
- ``checkpoint`` records: one in-flight exploration's resume state
  (evaluated cells, pending set, round counters), keyed the same way —
  written after every adaptive round, dropped on completion.

Readers ignore record kinds they do not know, so the schema stays
``v1``: files from before a model's ``name`` was the ``architecture`` of
its reports still hold ``label`` records, which load as nothing and drop
out on the next save.

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
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

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
    reader — or a crash — never sees a torn file through the normal
    write path.  Should a torn or garbled file reach the store anyway
    (a crashed non-atomic copy, disk corruption), reading **salvages**
    it: every record line that still parses is kept, the bad lines are
    quarantined to a ``<name>.quarantine`` sidecar for inspection, and
    the next save rewrites a clean file.  A file whose *header* declares
    a different schema is a real error and still raises.

    Concurrent writers are **serialised**: every read-merge-write holds
    an exclusive :func:`fcntl.flock` on the store's directory (no
    sidecar lock file), so two processes saving to one file both keep
    their records.  Readers need no lock: writes are atomic.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Bad lines quarantined by the most recent read (diagnostics).
        self.last_salvaged = 0

    # ------------------------------------------------------------ raw file
    @property
    def quarantine_path(self) -> Path:
        """Sidecar file collecting unparseable record lines."""
        return self.path.with_name(self.path.name + ".quarantine")

    def _quarantine(self, bad_lines: "list[str]") -> None:
        """Append unparseable lines to the sidecar (best effort)."""
        self.last_salvaged = len(bad_lines)
        if not bad_lines:
            return
        telemetry.counter("store.salvaged", len(bad_lines))
        try:
            with self.quarantine_path.open("a") as fh:
                for line in bad_lines:
                    fh.write(line.rstrip("\n") + "\n")
        except OSError:
            pass

    def _read_records(self) -> tuple[dict, dict, dict]:
        """(reports, frontiers, checkpoints) keyed for dedup.

        Tolerates a missing file; salvages a torn/garbled one (valid
        lines kept, bad lines quarantined — see the class docstring);
        a parseable header naming a foreign schema still raises.
        """
        reports: dict[tuple[str, str], dict] = {}
        frontiers: dict[str, dict] = {}
        checkpoints: dict[str, dict] = {}
        self.last_salvaged = 0
        if not self.path.exists():
            return reports, frontiers, checkpoints
        with self.path.open() as fh:
            lines = fh.readlines()
        if not lines or not lines[0].strip():
            return reports, frontiers, checkpoints
        try:
            head = json.loads(lines[0])
            if not isinstance(head, dict):
                raise TypeError("header is not an object")
        except (json.JSONDecodeError, TypeError):
            # A garbled header means nothing after it can be trusted to
            # be this store's data: quarantine the whole file.
            self._quarantine(lines)
            return reports, frontiers, checkpoints
        if head.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"{self.path}: unknown store schema {head.get('schema')!r}"
            )
        bad: list[str] = []
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                kind = record.get("kind")
                if kind == "report":
                    key = (record["model"], json.dumps(record["config"]))
                    reports[key] = record
                elif kind == "frontier":
                    frontiers[record["space"]] = record["doc"]
                elif kind == "checkpoint":
                    checkpoints[record["space"]] = record["doc"]
            except (
                json.JSONDecodeError, AttributeError, KeyError, TypeError
            ):
                # Torn tail or foreign garbage: salvage what parsed.
                bad.append(line)
        self._quarantine(bad)
        return reports, frontiers, checkpoints

    def _write_records(
        self, reports: dict, frontiers: dict, checkpoints: dict
    ) -> None:
        lines = [json.dumps({"schema": SCHEMA})]
        for key in sorted(reports):
            lines.append(json.dumps(reports[key], sort_keys=True))
        for digest in sorted(frontiers):
            lines.append(
                json.dumps(
                    {
                        "kind": "frontier",
                        "space": digest,
                        "doc": frontiers[digest],
                    },
                    sort_keys=True,
                )
            )
        for digest in sorted(checkpoints):
            lines.append(
                json.dumps(
                    {
                        "kind": "checkpoint",
                        "space": digest,
                        "doc": checkpoints[digest],
                    },
                    sort_keys=True,
                )
            )
        # Atomic replace: a concurrent reader (or a crash mid-write)
        # sees either the old complete file or the new one, never a
        # torn mix.  The temp file is fsynced before the replace so the
        # rename cannot outlive its contents across a power cut, and the
        # directory entry is fsynced best-effort afterwards.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
        # Chaos site: a "torn" spec truncates the just-published file
        # and raises, simulating a crash that corrupted the store tail —
        # what the salvage path above must survive.
        fault_point(
            "store.write", key=self.path.name, path=str(self.path)
        )

    @contextmanager
    def _update(self) -> Iterator[tuple[dict, dict, dict]]:
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
            reports, _, _ = self._read_records()
            by_digest = {
                model_digest(m.cache_key()): m.cache_key() for m in models
            }
            loaded = 0
            for record in reports.values():
                key = by_digest.get(record["model"])
                if key is None:
                    continue
                config_key = tuple(record["config"])
                if "report" in record:
                    cache.insert(
                        key, config_key,
                        _report_from_json(record["report"]), None,
                    )
                else:
                    error_type = _ERROR_TYPES.get(record["error"]["type"])
                    if error_type is None:
                        continue
                    cache.insert(
                        key, config_key, None,
                        error_type(record["error"]["message"]),
                    )
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
                reports, _, _ = records
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
            reports[(digest, json.dumps(config_list))] = record

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
            _, frontiers, _ = records
            frontiers[digest] = doc
            self._write_records(*records)
        return digest

    # --------------------------------------------------------- checkpoints
    def save_checkpoint(
        self,
        spec: ExploreSpec,
        models: Sequence[ArchitectureModel],
        doc: dict,
        cache: ReportCache | None = None,
    ) -> str:
        """Record one exploration round's resume state; returns its digest.

        ``doc`` is the engine's checkpoint document (evaluated cells,
        pending set, round counters — see
        :func:`repro.explore.refine.run_explore`), keyed by
        :func:`space_digest` so a model or spec change orphans it
        harmlessly.  Passing ``cache`` folds the report cache into the
        same atomic write, so a resumed run warm-starts both.
        """
        digest = space_digest(spec, models)
        with self._update() as records:
            reports, _, checkpoints = records
            if cache is not None:
                self._merge_cache(reports, cache)
            checkpoints[digest] = doc
            self._write_records(*records)
        return digest

    def load_checkpoint(
        self, spec: ExploreSpec, models: Sequence[ArchitectureModel]
    ) -> dict | None:
        """The stored resume state for this exact space, if any."""
        _, _, checkpoints = self._read_records()
        return checkpoints.get(space_digest(spec, models))

    def clear_checkpoint(
        self, spec: ExploreSpec, models: Sequence[ArchitectureModel]
    ) -> None:
        """Drop this space's resume state (the run completed)."""
        with self._update() as records:
            _, _, checkpoints = records
            if checkpoints.pop(space_digest(spec, models), None) is not None:
                self._write_records(*records)

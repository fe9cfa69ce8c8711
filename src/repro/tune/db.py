"""The persistent tuning database: versioned JSON, atomic writes, metrics.

Tuned launch configurations are keyed by the tuple that determines the
optimum — ``(device, solver, preconditioner, num_rows bucket, precision)``
— in the style of Triton/TVM tuning caches. Row counts are bucketed to
the next power of two so a record tuned at 60 rows also serves 64-row
systems (the launch geometry is identical after sub-group rounding).

Durability contract:

* the on-disk format is versioned JSON; loading a file of a different
  schema version, or one failing validation, raises
  :class:`~repro.exceptions.TuningDBError` rather than silently steering
  launches with garbage;
* every mutation rewrites the file atomically (temp file +
  ``os.replace``), so a crash mid-write never corrupts the database;
* each record carries the :func:`~repro.tune.space.space_signature` of
  the device it was tuned on; lookups against a device whose capability
  surface changed count as *stale* and miss;
* a monotonically increasing **generation** number changes on every
  mutation — consumers that cache derived state (the serving layer's
  plan cache) watch it to invalidate.

Lookup/hit/stale counts land on a
:class:`~repro.observability.metrics.MetricsRegistry` so tuning-cache
effectiveness is visible next to the rest of the telemetry.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.launch import LaunchGeometry
from repro.exceptions import TuningDBError
from repro.instruments import current
from repro.observability.metrics import MetricsRegistry
from repro.sycl.device import SyclDevice
from repro.tune.space import TuneCandidate, space_signature

#: On-disk schema version; bump on incompatible format changes.
SCHEMA_VERSION = 1

#: Wildcard for key fields (device-wide records any solver may use).
ANY = "*"


def bucket_rows(num_rows: int) -> int:
    """Round a row count up to its power-of-two tuning bucket (min 4)."""
    if num_rows <= 0:
        raise ValueError(f"num_rows must be positive, got {num_rows}")
    return 1 << max(2, (num_rows - 1).bit_length())


@dataclass(frozen=True)
class TuningKey:
    """What a tuned configuration is keyed by."""

    device: str
    solver: str
    preconditioner: str
    rows_bucket: int
    precision: str

    @classmethod
    def for_problem(
        cls,
        device: str,
        solver: str,
        preconditioner: str,
        num_rows: int,
        precision: str,
    ) -> "TuningKey":
        """The key serving a concrete ``num_rows`` problem."""
        return cls(
            device=device,
            solver=solver,
            preconditioner=preconditioner,
            rows_bucket=bucket_rows(num_rows),
            precision=precision,
        )

    def generalized(self) -> "TuningKey":
        """The device-wide wildcard key of the same (device, rows) class."""
        return replace(self, solver=ANY, preconditioner=ANY, precision=ANY)

    def as_str(self) -> str:
        """The stable string form used as the JSON object key."""
        return "|".join(
            [
                self.device,
                self.solver,
                self.preconditioner,
                str(self.rows_bucket),
                self.precision,
            ]
        )

    @classmethod
    def from_str(cls, text: str) -> "TuningKey":
        """Parse an :meth:`as_str` key (raises :class:`TuningDBError`)."""
        parts = text.split("|")
        if len(parts) != 5:
            raise TuningDBError(f"malformed tuning key {text!r}")
        try:
            bucket = int(parts[3])
        except ValueError:
            raise TuningDBError(f"non-integer rows bucket in key {text!r}") from None
        return cls(parts[0], parts[1], parts[2], bucket, parts[4])


@dataclass(frozen=True)
class TuningRecord:
    """One tuned configuration plus the evidence that selected it."""

    key: TuningKey
    candidate: TuneCandidate
    modeled_seconds: float
    default_seconds: float
    strategy: str
    evaluations: int
    seed: int | None
    space_signature: str

    @property
    def speedup(self) -> float:
        """Default-over-tuned modeled time (>1 means the tuning won)."""
        if self.modeled_seconds <= 0:
            return 1.0
        return self.default_seconds / self.modeled_seconds

    def geometry(self) -> LaunchGeometry:
        """The launch geometry this record pins."""
        return self.candidate.geometry(self.key.device)

    def as_json(self) -> dict:
        """The on-disk payload (key excluded; it is the object key)."""
        return {
            "parameters": self.candidate.as_dict(),
            "modeled_seconds": self.modeled_seconds,
            "default_seconds": self.default_seconds,
            "strategy": self.strategy,
            "evaluations": self.evaluations,
            "seed": self.seed,
            "space_signature": self.space_signature,
        }

    @classmethod
    def from_json(cls, key: TuningKey, data: dict) -> "TuningRecord":
        """Validate + rebuild a record (raises :class:`TuningDBError`)."""
        if not isinstance(data, dict):
            raise TuningDBError(f"record for {key.as_str()!r} is not an object")
        required = (
            "parameters",
            "modeled_seconds",
            "default_seconds",
            "strategy",
            "evaluations",
            "space_signature",
        )
        missing = [field for field in required if field not in data]
        if missing:
            raise TuningDBError(
                f"record for {key.as_str()!r} is missing fields {missing}"
            )
        try:
            candidate = TuneCandidate.from_dict(data["parameters"])
            modeled = float(data["modeled_seconds"])
            default = float(data["default_seconds"])
            evaluations = int(data["evaluations"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningDBError(
                f"record for {key.as_str()!r} failed validation: {exc}"
            ) from None
        if modeled <= 0 or default <= 0:
            raise TuningDBError(
                f"record for {key.as_str()!r} has non-positive modeled times"
            )
        seed = data.get("seed")
        return cls(
            key=key,
            candidate=candidate,
            modeled_seconds=modeled,
            default_seconds=default,
            strategy=str(data["strategy"]),
            evaluations=evaluations,
            seed=None if seed is None else int(seed),
            space_signature=str(data["space_signature"]),
        )


class TuningDB:
    """In-memory map of tuning records with optional JSON persistence.

    ``path=None`` keeps the database purely in memory (tests, throwaway
    searches); with a path, the file is loaded eagerly (validating the
    schema) and every mutation is persisted atomically.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        metrics: MetricsRegistry | None = None,
        event_log: object | None = None,
    ) -> None:
        self.path = None if path is None else Path(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.event_log = event_log
        self._records: dict[TuningKey, TuningRecord] = {}
        self._generation = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TuningDBError(f"cannot read tuning DB {self.path}: {exc}") from None
        if not isinstance(raw, dict):
            raise TuningDBError(f"tuning DB {self.path} is not a JSON object")
        version = raw.get("version")
        if version != SCHEMA_VERSION:
            raise TuningDBError(
                f"tuning DB {self.path} has schema version {version!r}, "
                f"this library reads version {SCHEMA_VERSION}"
            )
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            raise TuningDBError(f"tuning DB {self.path} has no 'entries' object")
        records = {}
        for key_text, payload in entries.items():
            key = TuningKey.from_str(key_text)
            records[key] = TuningRecord.from_json(key, payload)
        self._records = records
        self._generation = int(raw.get("generation", 0))

    def _save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": SCHEMA_VERSION,
            "generation": self._generation,
            "entries": {
                key.as_str(): record.as_json()
                for key, record in sorted(
                    self._records.items(), key=lambda kv: kv[0].as_str()
                )
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # atomic publish: a crash mid-write leaves the old file intact
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=f".{self.path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- mutation ------------------------------------------------------------

    def put(self, record: TuningRecord) -> None:
        """Insert/replace one record; bumps the generation and persists."""
        self._records[record.key] = record
        self._generation += 1
        self.metrics.counter("tune.db.writes").inc()
        self._emit_generation_bump("put", str(record.key))
        self._save()

    def clear(self, device: str | None = None, solver: str | None = None) -> int:
        """Drop records (all, or filtered by device and/or solver).

        Returns how many were removed; any removal bumps the generation so
        dependent caches re-resolve against the heuristic.
        """
        doomed = [
            key
            for key in self._records
            if (device is None or key.device == device)
            and (solver is None or key.solver == solver)
        ]
        for key in doomed:
            del self._records[key]
        if doomed:
            self._generation += 1
            self._emit_generation_bump("clear", f"{len(doomed)} records")
            self._save()
        return len(doomed)

    def _emit_generation_bump(self, reason: str, detail: str) -> None:
        """Record the mutation on the structured event log, when one exists.

        Pinned (critical) because a generation bump invalidates every
        dependent plan cache — exactly the control-plane change an SLO
        investigation wants on the timeline.
        """
        log = self.event_log if self.event_log is not None else current().events
        if log is not None:
            from repro.telemetry.events import TUNING_GENERATION_BUMP

            log.emit(
                TUNING_GENERATION_BUMP,
                critical=True,
                generation=self._generation,
                reason=reason,
                detail=detail,
            )

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: TuningKey, signature: str | None = None) -> TuningRecord | None:
        """The record for ``key`` (exact, then device-wide wildcard).

        ``signature`` is the live device's space signature; a record tuned
        under a different signature is *stale*: counted, skipped, and the
        lookup falls through as a miss.
        """
        self.metrics.counter("tune.db.lookups").inc()
        for probe in (key, key.generalized()):
            record = self._records.get(probe)
            if record is None:
                continue
            if signature is not None and record.space_signature != signature:
                self.metrics.counter("tune.db.stale").inc()
                continue
            self.metrics.counter("tune.db.hits").inc()
            return record
        self.metrics.counter("tune.db.misses").inc()
        return None

    def lookup_geometry(
        self,
        device: SyclDevice,
        solver: str,
        preconditioner: str,
        num_rows: int,
        precision: str,
    ) -> LaunchGeometry | None:
        """The tuned launch geometry for a concrete problem, if any.

        This is the hook :class:`~repro.core.launch.LaunchConfigurator`
        consults before its heuristic: staleness is checked against the
        live device and the returned geometry is re-validated against its
        capabilities (a record can never force an illegal launch).
        """
        key = TuningKey.for_problem(
            device.name, solver, preconditioner, num_rows, precision
        )
        record = self.lookup(key, signature=space_signature(device))
        if record is None:
            return None
        candidate = record.candidate
        if not device.supports_sub_group_size(candidate.sub_group_size):
            return None
        if candidate.work_group_size > device.max_work_group_size:
            return None
        return LaunchGeometry(
            work_group_size=candidate.work_group_size,
            sub_group_size=candidate.sub_group_size,
            reduction_scope=candidate.reduction_scope,
            device_name=device.name,
        )

    # -- introspection -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter; changes whenever any record is added/removed."""
        return self._generation

    def records(self) -> list[TuningRecord]:
        """All records, sorted by key string."""
        return [
            self._records[key]
            for key in sorted(self._records, key=lambda k: k.as_str())
        ]

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: TuningKey) -> bool:
        return key in self._records

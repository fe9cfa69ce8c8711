"""The persistent tuning database: versioned JSON, atomic writes, metrics.

Tuned launch configurations are keyed by the tuple that determines the
optimum — ``(device, solver, preconditioner, num_rows bucket, precision)``
— in the style of Triton/TVM tuning caches. Row counts are bucketed to
the next power of two so a record tuned at 60 rows also answers for
64-row systems (the launch geometry is identical after sub-group
rounding).

The records are an offline report: ``python -m repro tune`` writes and
shows them, and :func:`~repro.tune.tuner.derive_threshold` reads the
device's sub-group crossover from them. No launch path reads the
database; every fused kernel launches with the Section-3.6 heuristic.

Durability contract:

* the on-disk format is versioned JSON; loading a file of a different
  schema version, or one failing validation, raises
  :class:`~repro.exceptions.TuningDBError` rather than silently loading
  garbage;
* every mutation rewrites the file atomically (temp file +
  ``os.replace``), so a crash mid-write never corrupts the database;
* each record carries the :func:`~repro.tune.space.space_signature` of
  the device it was tuned on; lookups against a device whose capability
  surface changed count as *stale* and miss.

Lookup/hit/stale counts land on a
:class:`~repro.observability.metrics.MetricsRegistry` so tuning-cache
effectiveness is visible next to the rest of the telemetry.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.launch import LaunchGeometry
from repro.exceptions import TuningDBError
from repro.observability.metrics import MetricsRegistry
from repro.tune.space import TuneCandidate

#: On-disk schema version; bump on incompatible format changes.
SCHEMA_VERSION = 1


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
    ) -> None:
        self.path = None if path is None else Path(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._records: dict[TuningKey, TuningRecord] = {}
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

    def _save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": SCHEMA_VERSION,
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
        """Insert/replace one record and persist."""
        self._records[record.key] = record
        self.metrics.counter("tune.db.writes").inc()
        self._save()

    def clear(self, device: str | None = None, solver: str | None = None) -> int:
        """Drop records (all, or filtered by device and/or solver).

        Returns how many were removed.
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
            self._save()
        return len(doomed)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: TuningKey, signature: str | None = None) -> TuningRecord | None:
        """The record for ``key``, or ``None``.

        ``signature`` is the live device's space signature; a record tuned
        under a different signature is *stale*: counted, skipped, and the
        lookup counts as a miss.
        """
        self.metrics.counter("tune.db.lookups").inc()
        record = self._records.get(key)
        if record is not None and signature not in (None, record.space_signature):
            self.metrics.counter("tune.db.stale").inc()
            record = None
        self.metrics.counter("tune.db.misses" if record is None else "tune.db.hits").inc()
        return record

    # -- introspection -------------------------------------------------------

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

"""The black-box flight recorder: always on, bounded, trigger-dumped.

Aircraft keep a flight recorder running at all times precisely because
nobody knows *when* the interesting thirty seconds will happen. The
:class:`FlightRecorder` does the same for a solver shard: fixed-size
ring buffers of the most recent telemetry events, solved flushes (each
with its convergence forensics), metric-registry deltas and triggers.
Normal operation costs a few deque appends; nothing is written anywhere.

When something goes wrong — a 5xx :class:`~repro.exceptions.ReproError`,
a sanitizer trip, a breaker opening, an SLO burn alert, a chaos fault,
or an explicit :meth:`dump` — the :meth:`trigger` path snapshots every
ring into a self-contained, schema-versioned diagnostic bundle (JSONL
streams + a manifest, see :mod:`repro.recorder.bundle`) with the
trigger's ``trace_id`` pinned, so the postmortem CLI can start from a
concrete request.

Auto-dumps are bounded two ways: at most :attr:`max_dumps` bundles per
recorder, and at most one bundle per trigger *reason* per
``redump_interval_s`` — a burning SLO that stays burning does not fill
the disk.

This module is stdlib-only (plus :mod:`repro.recorder.bundle`): the
telemetry layer taps into it from :meth:`EventLog.emit
<repro.telemetry.events.EventLog.emit>`, so nothing here may import
telemetry or serving code back.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.recorder.bundle import write_bundle

__all__ = [
    "FlightRecorder",
    "TRIGGER_ERROR_5XX",
    "TRIGGER_SANITIZER_TRIP",
    "TRIGGER_BREAKER_OPEN",
    "TRIGGER_SLO_BURN",
    "TRIGGER_CHAOS_FAULT",
    "TRIGGER_MANUAL",
    "TRIGGER_REASONS",
]

# -- the trigger vocabulary ---------------------------------------------------

TRIGGER_ERROR_5XX = "error_5xx"
TRIGGER_SANITIZER_TRIP = "sanitizer_trip"
TRIGGER_BREAKER_OPEN = "breaker_open"
TRIGGER_SLO_BURN = "slo_burn"
TRIGGER_CHAOS_FAULT = "chaos_fault"
TRIGGER_MANUAL = "manual"

#: Every reason a bundle records; free-form reasons are also accepted.
TRIGGER_REASONS = (
    TRIGGER_ERROR_5XX,
    TRIGGER_SANITIZER_TRIP,
    TRIGGER_BREAKER_OPEN,
    TRIGGER_SLO_BURN,
    TRIGGER_CHAOS_FAULT,
    TRIGGER_MANUAL,
)


class FlightRecorder:
    """Bounded ring buffers of recent shard activity, dumpable on demand.

    Parameters
    ----------
    capacity:
        Ring size for telemetry events, flush records, metric deltas and
        triggers.
    metric_interval:
        :meth:`observe_registry` snapshots the registry on every
        ``metric_interval``-th call — per-flush observation stays O(1)
        almost always.
    dump_dir:
        When set, :meth:`trigger` auto-dumps a bundle here (subject to
        ``max_dumps`` and ``redump_interval_s``); when ``None``, triggers
        are recorded but nothing is written until an explicit
        :meth:`dump`.
    max_dumps:
        Hard cap on bundles this recorder will ever write on its own.
    redump_interval_s:
        Minimum seconds between two auto-dumps for the *same* reason.
    shard:
        Identity stamped into every bundle manifest (fleet shards set
        their shard name; a standalone service leaves it empty).
    clock:
        Wall-clock source (injectable for deterministic tests).
    """

    SCHEMA_VERSION = 1

    def __init__(
        self,
        *,
        capacity: int = 1024,
        metric_interval: int = 16,
        dump_dir: str | Path | None = None,
        max_dumps: int = 16,
        redump_interval_s: float = 60.0,
        shard: str = "",
        clock=time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if metric_interval <= 0:
            raise ValueError(f"metric_interval must be positive, got {metric_interval}")
        self.capacity = capacity
        self.metric_interval = metric_interval
        self.dump_dir = None if dump_dir is None else Path(dump_dir)
        self.max_dumps = max_dumps
        self.redump_interval_s = redump_interval_s
        self.shard = shard
        self._clock = clock
        self._events: deque[dict] = deque(maxlen=capacity)
        self._flushes: deque[dict] = deque(maxlen=capacity)
        self._metrics: deque[dict] = deque(maxlen=capacity)
        self._triggers: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._metric_calls = 0
        self._last_metric_snapshot: dict[str, float] = {}
        self._last_dump_ts: dict[str, float] = {}
        self.events_seen = 0
        self.flushes_seen = 0
        self.dumps_written = 0
        self.triggers_fired: dict[str, int] = {}

    def for_shard(self, shard: str) -> "FlightRecorder":
        """A sibling recorder with this one's limits but its own rings.

        Fleet replicas call this to get per-shard black boxes: same
        capacities, dump policy and clock, stamped with the shard's
        name so every bundle it writes merges cleanly into the
        cross-shard postmortem.
        """
        return FlightRecorder(
            capacity=self.capacity,
            metric_interval=self.metric_interval,
            dump_dir=self.dump_dir,
            max_dumps=self.max_dumps,
            redump_interval_s=self.redump_interval_s,
            shard=shard,
            clock=self._clock,
        )

    # -- recording (the always-on hot path) -----------------------------------

    def record_event(self, record: dict) -> None:
        """Ring one telemetry-event wire record (called from the event log)."""
        with self._lock:
            self.events_seen += 1
            self._events.append(record)

    def record_flush(self, summary: dict, **fields: Any) -> None:
        """Ring one solved flush: its convergence forensics (see
        :func:`repro.recorder.classify.solve_summary`) plus the flush
        facts and victim ``trace_ids`` in ``fields``."""
        record = {"ts": self._clock(), **summary, **fields}
        with self._lock:
            self.flushes_seen += 1
            self._flushes.append(record)

    def observe_registry(self, registry: Any) -> None:
        """Ring the registry's scalar deltas, one snapshot per
        ``metric_interval`` calls.

        Only instruments whose headline scalar (``value`` for counters
        and gauges, ``count`` for histograms) changed since the last
        snapshot are recorded, so the stream reads as "what moved".
        """
        with self._lock:
            self._metric_calls += 1
            if self._metric_calls % self.metric_interval:
                return
        snap = registry.snapshot()
        scalars: dict[str, float] = {}
        for name, summary in snap.items():
            value = summary.get("value")
            if value is None:
                value = summary.get("count")
            if value is None or value != value:  # skip NaN gauges
                continue
            scalars[name] = float(value)
        with self._lock:
            deltas = {
                name: value
                for name, value in scalars.items()
                if self._last_metric_snapshot.get(name) != value
            }
            self._last_metric_snapshot = scalars
            if deltas:
                self._metrics.append({"ts": self._clock(), "deltas": deltas})

    # -- triggers and dumps ----------------------------------------------------

    def trigger(
        self, reason: str, *, trace_id: str | None = None, **fields: Any
    ) -> Path | None:
        """Record one trigger; auto-dump a bundle when so configured.

        Returns the bundle path when a dump was written, else ``None``.
        The trigger's ``trace_id`` is pinned into the bundle manifest so
        a postmortem starts from the request that tripped the recorder.
        """
        now = self._clock()
        record = {"ts": now, "reason": reason, "trace_id": trace_id, **fields}
        with self._lock:
            self._triggers.append(record)
            self.triggers_fired[reason] = self.triggers_fired.get(reason, 0) + 1
            should_dump = (
                self.dump_dir is not None
                and self.dumps_written < self.max_dumps
                and now - self._last_dump_ts.get(reason, -float("inf"))
                >= self.redump_interval_s
            )
        if should_dump:
            return self.dump(reason=reason, trace_id=trace_id)
        return None

    def dump(
        self,
        out_dir: str | Path | None = None,
        *,
        reason: str = TRIGGER_MANUAL,
        trace_id: str | None = None,
        **extra: Any,
    ) -> Path:
        """Snapshot every ring into a diagnostic bundle; returns its path."""
        target = Path(out_dir) if out_dir is not None else self.dump_dir
        if target is None:
            raise ValueError("no dump directory: pass out_dir or set dump_dir")
        with self._lock:
            seq = self.dumps_written
            self.dumps_written += 1
            self._last_dump_ts[reason] = self._clock()
            streams = self._snapshot_locked()
        safe_reason = "".join(c if c.isalnum() or c in "-_" else "_" for c in reason)
        # the shard segment keeps sibling recorders (fleet replicas)
        # dumping into one directory from colliding on the sequence
        safe_shard = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in self.shard
        )
        stem = f"bundle-{safe_shard}-" if safe_shard else "bundle-"
        path = target / f"{stem}{seq:03d}-{safe_reason}"
        return write_bundle(
            path,
            streams,
            reason=reason,
            trace_id=trace_id,
            shard=self.shard,
            recorder_schema_version=self.SCHEMA_VERSION,
            created_s=self._clock(),
            extra=extra or None,
        )

    # -- introspection ---------------------------------------------------------

    def _snapshot_locked(self) -> dict[str, list[dict]]:
        return {
            "events": list(self._events),
            "flushes": list(self._flushes),
            "metrics": list(self._metrics),
            "triggers": list(self._triggers),
        }

    def snapshot(self) -> dict[str, list[dict]]:
        """Copy of every ring, stream name → records (oldest first)."""
        with self._lock:
            return self._snapshot_locked()

    def summary(self) -> dict[str, Any]:
        """Retention accounting for dashboards and the overhead bench."""
        with self._lock:
            return {
                "events_seen": self.events_seen,
                "flushes_seen": self.flushes_seen,
                "events_retained": len(self._events),
                "flushes_retained": len(self._flushes),
                "metric_snapshots": len(self._metrics),
                "triggers": dict(self.triggers_fired),
                "dumps_written": self.dumps_written,
            }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(events={self.events_seen}, "
            f"flushes={self.flushes_seen}, dumps={self.dumps_written})"
        )

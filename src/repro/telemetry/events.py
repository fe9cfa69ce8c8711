"""The structured event log: typed, schema-versioned, trace-stamped JSONL.

Spans answer *how long*; events answer *what happened*. Every lifecycle
transition a request (or the control plane around it) goes through emits
one :class:`TelemetryEvent` — a typed record stamped with the active
:class:`~repro.observability.context.TraceContext` — into a
bounded-memory :class:`EventLog`:

* **Head sampling** — the mint-time ``sampled`` decision on the request's
  trace context drops routine events at the source, so a service running
  at ``telemetry_sample_rate=0`` pays one branch per would-be event.
* **Tail retention** — *critical* events (errors, timeouts, fallbacks,
  sanitizer trips, p99-tail completions) bypass head sampling **and** are
  pinned in a second ring, so the interesting 1% survives even when the
  routine ring has long since wrapped.
* **Bounded memory** — both rings are ``deque(maxlen=capacity)``; a
  service that runs for a week holds the same memory as one that ran for
  a minute.

Export is JSONL with an explicit ``schema_version`` so downstream
consumers can evolve with the format.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable

from repro.instruments import current
from repro.observability.context import TraceContext, current_trace_context

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "TelemetryEvent",
    "EventLog",
    "emit_event",
    "REQUEST_ADMITTED",
    "REQUEST_REJECTED",
    "REQUEST_SOLVED",
    "REQUEST_FALLBACK",
    "REQUEST_FAILED",
    "REQUEST_TIMED_OUT",
    "SANITIZER_TRIP",
    "SLO_ALERT",
    "FLEET_REBALANCE",
    "REQUEST_REROUTED",
    "CHAOS_INJECTED",
    "QUOTA_REJECTED",
    "BREAKER_OPEN",
    "BREAKER_CLOSE",
]

#: Version stamped on every exported record; bump on incompatible change.
SCHEMA_VERSION = 1

# -- the event vocabulary (one constant per lifecycle transition) -----------

REQUEST_ADMITTED = "request.admitted"
REQUEST_REJECTED = "request.rejected"
REQUEST_SOLVED = "request.solved"
REQUEST_FALLBACK = "request.fallback"
REQUEST_FAILED = "request.failed"
REQUEST_TIMED_OUT = "request.timed_out"
SANITIZER_TRIP = "sanitizer.trip"
SLO_ALERT = "slo.alert"
FLEET_REBALANCE = "fleet.rebalance"
REQUEST_REROUTED = "request.rerouted"
CHAOS_INJECTED = "chaos.injected"
QUOTA_REJECTED = "quota.rejected"
BREAKER_OPEN = "breaker.open"
BREAKER_CLOSE = "breaker.close"

#: Every event type the schema admits; :meth:`EventLog.emit` rejects others.
EVENT_TYPES = frozenset(
    {
        REQUEST_ADMITTED,
        REQUEST_REJECTED,
        REQUEST_SOLVED,
        REQUEST_FALLBACK,
        REQUEST_FAILED,
        REQUEST_TIMED_OUT,
        SANITIZER_TRIP,
        SLO_ALERT,
        FLEET_REBALANCE,
        REQUEST_REROUTED,
        CHAOS_INJECTED,
        QUOTA_REJECTED,
        BREAKER_OPEN,
        BREAKER_CLOSE,
    }
)

#: Sampling verdicts recorded on kept events.
KEEP_HEAD = "head"  # kept because the request's head decision sampled it
KEEP_TAIL = "tail"  # kept despite head sampling because it is critical


class TelemetryEvent:
    """One structured log record (immutable once emitted)."""

    __slots__ = ("type", "ts_ns", "trace_id", "span_id", "request_id", "keep", "fields")

    def __init__(
        self,
        type: str,
        ts_ns: int,
        trace_id: str | None,
        span_id: str | None,
        request_id: str | None,
        keep: str,
        fields: dict,
    ) -> None:
        self.type = type
        self.ts_ns = ts_ns
        self.trace_id = trace_id
        self.span_id = span_id
        self.request_id = request_id
        self.keep = keep
        self.fields = fields

    def to_record(self) -> dict:
        """The JSONL wire form (envelope + free-form ``fields``)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "type": self.type,
            "ts_ns": self.ts_ns,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "request_id": self.request_id,
            "keep": self.keep,
            "fields": self.fields,
        }

    def __repr__(self) -> str:
        who = self.request_id or self.trace_id or "-"
        return f"TelemetryEvent({self.type}, {who}, keep={self.keep})"


class EventLog:
    """Bounded-memory structured event log with head + tail sampling.

    Parameters
    ----------
    capacity:
        Ring size for routine events *and* for the pinned critical ring.
    clock:
        Nanosecond timestamp source (injectable for deterministic tests);
        defaults to the tracer's monotonic ``time.perf_counter_ns``.
    """

    def __init__(self, capacity: int = 2048, clock=time.perf_counter_ns) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._pinned: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.emitted = 0  # events accepted into the log
        self.dropped_head = 0  # events dropped by the head-sampling decision
        #: explicit flight-recorder tap target; ``None`` falls back to the
        #: ambient recorder. A fleet shard's private log points here so its
        #: events land in that shard's black box, not the fleet-wide one.
        self.recorder = None

    # -- emission -------------------------------------------------------------

    def emit(
        self,
        type: str,
        ctx: TraceContext | None = None,
        critical: bool = False,
        **fields: Any,
    ) -> TelemetryEvent | None:
        """Record one event; returns it, or ``None`` when head-sampled away.

        ``ctx`` stamps trace/request identity (falls back to the ambient
        :func:`current_trace_context`). ``critical`` marks errors,
        fallbacks and tail latencies: critical events ignore the head
        decision and are pinned so ring wrap-around cannot evict them.
        """
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}; known: {sorted(EVENT_TYPES)}")
        if ctx is None:
            ctx = current_trace_context()
        sampled = ctx.sampled if ctx is not None else True
        if not sampled and not critical:
            with self._lock:
                self.dropped_head += 1
            return None
        event = TelemetryEvent(
            type=type,
            ts_ns=self._clock(),
            trace_id=ctx.trace_id if ctx is not None else None,
            span_id=ctx.span_id if ctx is not None else None,
            request_id=(ctx.request_id or None) if ctx is not None else None,
            keep=KEEP_TAIL if (critical and not sampled) else KEEP_HEAD,
            fields=fields,
        )
        with self._lock:
            self.emitted += 1
            self._ring.append(event)
            if critical:
                self._pinned.append(event)
        # black-box tap: the flight recorder (this log's own if set, else
        # the ambient one) rings every retained event, so a later trigger
        # dump carries the recent event stream
        recorder = self.recorder if self.recorder is not None else current().recorder
        if recorder is not None:
            recorder.record_event(event.to_record())
        return event

    # -- export ---------------------------------------------------------------

    def events(self) -> list[TelemetryEvent]:
        """Every retained event, time-ordered, pinned criticals included."""
        with self._lock:
            merged = {id(ev): ev for ev in self._pinned}
            merged.update((id(ev), ev) for ev in self._ring)
        return sorted(merged.values(), key=lambda ev: ev.ts_ns)

    def records(self) -> list[dict]:
        """The JSONL wire form of :meth:`events`."""
        return [ev.to_record() for ev in self.events()]

    def records_for(self, trace_id: str) -> list[dict]:
        """Retained records attributed to one trace."""
        return [rec for rec in self.records() if rec["trace_id"] == trace_id]

    def write_jsonl(self, path: str | Path) -> Path:
        """Write every retained record to ``path`` (one JSON object per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")
        return path

    def summary(self) -> dict[str, int]:
        """Retention accounting (for dashboards and overhead benchmarks)."""
        with self._lock:
            return {
                "emitted": self.emitted,
                "dropped_head": self.dropped_head,
                "retained": len({id(e) for e in self._ring}
                                | {id(e) for e in self._pinned}),
                "pinned": len(self._pinned),
            }

    def __len__(self) -> int:
        return len(self.events())

    def __iter__(self) -> Iterable[TelemetryEvent]:
        return iter(self.events())


def emit_event(
    type: str,
    ctx: TraceContext | None = None,
    critical: bool = False,
    **fields: Any,
) -> TelemetryEvent | None:
    """Emit into the installed log, if any (the library-code entry point).

    Deep layers (the sanitizer) call this so they cost one
    context-variable read when no event log is installed.
    """
    log = current().events
    if log is None:
        return None
    return log.emit(type, ctx=ctx, critical=critical, **fields)

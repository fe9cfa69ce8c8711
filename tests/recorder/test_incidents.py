"""Incidents are events: the flight recorder arms on the events it rings.

One table (``INCIDENT_EVENTS``) decides which event types arm a trigger;
the serve, chaos and telemetry layers report an incident only by emitting
its event. An automatic bundle write that fails is counted, never raised
into the code that reported the incident (the service-level cases sit
with the chaos and breaker tests).
"""

import pytest

from repro.chaos.plan import WORKER_DIE
from repro.observability.context import TraceContext
from repro.recorder.bundle import find_bundles, load_bundle
from repro.recorder.recorder import (
    INCIDENT_EVENTS,
    TRIGGER_BREAKER_OPEN,
    TRIGGER_CHAOS_FAULT,
    TRIGGER_ERROR_5XX,
    TRIGGER_REASONS,
    TRIGGER_SANITIZER_TRIP,
    TRIGGER_SLO_BURN,
    FlightRecorder,
)
from repro.telemetry.events import (
    BREAKER_CLOSE,
    BREAKER_OPEN,
    CHAOS_INJECTED,
    EVENT_TYPES,
    QUOTA_REJECTED,
    REQUEST_FAILED,
    REQUEST_FALLBACK,
    REQUEST_REJECTED,
    REQUEST_SOLVED,
    REQUEST_TIMED_OUT,
    SANITIZER_TRIP,
    SLO_ALERT,
    EventLog,
)

OWN = TraceContext(trace_id="t-own", span_id="s-own", request_id="req-own")

#: (event type, envelope context, fields, armed reason, pinned trace id)
INCIDENTS = [
    (REQUEST_FAILED, OWN, {"error": "WorkerDiedError", "status_code": 503},
     TRIGGER_ERROR_5XX, "t-own"),
    (REQUEST_TIMED_OUT, OWN, {"error": "RequestTimeoutError", "status_code": 504},
     TRIGGER_ERROR_5XX, "t-own"),
    (SANITIZER_TRIP, None,
     {"kind": "slm_race", "kernel": "batch_cg", "flush_id": "f1",
      "trace_ids": ["t-v1", "t-v2"]},
     TRIGGER_SANITIZER_TRIP, "t-v1"),
    (BREAKER_OPEN, None, {"bad_fraction": 0.75, "opens": 1},
     TRIGGER_BREAKER_OPEN, None),
    (CHAOS_INJECTED, None,
     {"kind": WORKER_DIE, "flush_index": 0, "flush_id": "f2", "trace_ids": ["t-v3"]},
     TRIGGER_CHAOS_FAULT, "t-v3"),
    (SLO_ALERT, None, {"slos": ["latency_p99"]}, TRIGGER_SLO_BURN, None),
]

#: Events that are not incidents, whatever the recorder's dump policy.
NON_INCIDENTS = [
    (REQUEST_FAILED, {"error": "InvalidRequestError", "status_code": 422}),
    (REQUEST_REJECTED, {"pending": 8, "max_pending": 8}),
    (QUOTA_REJECTED, {"tenant": "chatty", "pending": 2, "quota": 2}),
    (REQUEST_SOLVED, {"latency_ms": 1.5, "tail": True}),
    (REQUEST_FALLBACK, {"reason": "not_converged"}),
    (BREAKER_CLOSE, {"closes": 1}),
]


def _tapped(recorder):
    log = EventLog()
    log.recorder = recorder
    return log


class TestIncidentTable:
    @pytest.mark.parametrize("etype, ctx, fields, reason, pinned", INCIDENTS)
    def test_incident_event_arms_one_trigger(self, etype, ctx, fields, reason, pinned):
        recorder = FlightRecorder()
        _tapped(recorder).emit(etype, ctx=ctx, critical=True, **fields)
        assert recorder.triggers_fired == {reason: 1}
        (trigger,) = recorder.snapshot()["triggers"]
        assert trigger["reason"] == reason
        assert trigger["trace_id"] == pinned
        # the event's fields ride on the trigger, plus its request id
        assert {k: trigger[k] for k in fields} == fields
        assert trigger.get("request_id") == (ctx.request_id if ctx else None)

    def test_dump_dir_recorder_writes_one_bundle_per_reason(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path)
        log = _tapped(recorder)
        for etype, ctx, fields, _reason, _pinned in INCIDENTS:
            log.emit(etype, ctx=ctx, critical=True, **fields)
        manifests = [load_bundle(path)["manifest"] for path in find_bundles(tmp_path)]
        # request.failed and request.timed_out share error_5xx, whose
        # second trigger falls inside the reason's redump interval
        pins = {}
        for _etype, _ctx, _fields, reason, pinned in INCIDENTS:
            pins.setdefault(reason, pinned)
        assert {m["reason"]: m["trace_id"] for m in manifests} == pins
        assert len(manifests) == len(pins) == 5
        assert recorder.summary()["dump_errors"] == 0

    def test_non_incident_events_arm_nothing(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path)
        log = _tapped(recorder)
        for etype, fields in NON_INCIDENTS:
            log.emit(etype, ctx=OWN, critical=True, **fields)
        assert recorder.events_seen == len(NON_INCIDENTS)
        assert recorder.triggers_fired == {}
        assert recorder.snapshot()["triggers"] == []
        assert find_bundles(tmp_path) == []

    def test_table_names_only_schema_event_types(self):
        assert set(INCIDENT_EVENTS) <= EVENT_TYPES
        assert {reason for reason, _status in INCIDENT_EVENTS.values()} <= set(
            TRIGGER_REASONS
        )


class TestFailedAutoDump:
    def test_auto_dump_failure_is_counted_explicit_dump_raises(self, unwritable_dir):
        recorder = FlightRecorder(dump_dir=unwritable_dir)
        assert recorder.trigger("manual") is None
        assert recorder.triggers_fired == {"manual": 1}
        assert recorder.summary()["dump_errors"] == 1
        with pytest.raises(OSError):
            recorder.dump(reason="manual")

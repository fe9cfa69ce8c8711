"""EventLog: typed schema, head/tail sampling, bounded rings, JSONL export."""

import json

import pytest

from repro.instruments import current, use
from repro.telemetry import (
    REQUEST_ADMITTED,
    REQUEST_FAILED,
    REQUEST_SOLVED,
    SANITIZER_TRIP,
    SCHEMA_VERSION,
    EventLog,
    emit_event,
    mint_context,
    use_trace_context,
)


def _clock_factory(start=1000):
    state = {"t": start}

    def clock():
        state["t"] += 1
        return state["t"]

    return clock


class TestEmission:
    def test_emit_stamps_context(self):
        log = EventLog()
        ctx = mint_context()
        ev = log.emit(REQUEST_ADMITTED, ctx=ctx, solver="cg")
        assert ev.trace_id == ctx.trace_id
        assert ev.span_id == ctx.span_id
        assert ev.request_id == ctx.request_id
        assert ev.fields == {"solver": "cg"}
        assert ev.keep == "head"

    def test_emit_falls_back_to_ambient_context(self):
        log = EventLog()
        ctx = mint_context()
        with use_trace_context(ctx):
            ev = log.emit(REQUEST_SOLVED, latency_ms=1.0)
        assert ev.trace_id == ctx.trace_id

    def test_emit_without_any_context(self):
        log = EventLog()
        ev = log.emit(REQUEST_ADMITTED)
        assert ev.trace_id is None
        assert ev.request_id is None

    def test_unknown_type_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("request.madeup")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestHeadTailSampling:
    def test_unsampled_routine_event_dropped(self):
        log = EventLog()
        ctx = mint_context(sampled=False)
        assert log.emit(REQUEST_ADMITTED, ctx=ctx) is None
        assert len(log) == 0
        assert log.summary()["dropped_head"] == 1

    def test_unsampled_critical_event_kept_as_tail(self):
        log = EventLog()
        ctx = mint_context(sampled=False)
        ev = log.emit(REQUEST_FAILED, ctx=ctx, critical=True, error="boom")
        assert ev is not None
        assert ev.keep == "tail"
        assert len(log) == 1

    def test_sampled_critical_event_keeps_head_verdict(self):
        log = EventLog()
        ev = log.emit(SANITIZER_TRIP, ctx=mint_context(), critical=True)
        assert ev.keep == "head"


class TestBoundedRings:
    def test_routine_ring_wraps(self):
        log = EventLog(capacity=8, clock=_clock_factory())
        for _ in range(20):
            log.emit(REQUEST_ADMITTED, ctx=mint_context())
        assert len(log) == 8
        assert log.emitted == 20

    def test_criticals_survive_routine_wrap(self):
        log = EventLog(capacity=8, clock=_clock_factory())
        victim = mint_context()
        log.emit(REQUEST_FAILED, ctx=victim, critical=True)
        for _ in range(50):
            log.emit(REQUEST_ADMITTED, ctx=mint_context())
        kinds = [ev.type for ev in log.events()]
        assert REQUEST_FAILED in kinds
        assert log.summary()["pinned"] == 1

    def test_events_are_time_ordered_and_deduped(self):
        log = EventLog(capacity=8, clock=_clock_factory())
        log.emit(REQUEST_FAILED, ctx=mint_context(), critical=True)
        log.emit(REQUEST_ADMITTED, ctx=mint_context())
        times = [ev.ts_ns for ev in log.events()]
        assert times == sorted(times)
        # the critical event sits in both rings but exports once
        assert len(log.events()) == 2


class TestExport:
    def test_records_carry_schema_version(self):
        log = EventLog()
        log.emit(REQUEST_ADMITTED, ctx=mint_context())
        rec = log.records()[0]
        assert rec["schema_version"] == SCHEMA_VERSION
        assert set(rec) == {
            "schema_version",
            "type",
            "ts_ns",
            "trace_id",
            "span_id",
            "request_id",
            "keep",
            "fields",
        }

    def test_records_for_filters_one_trace(self):
        log = EventLog()
        mine, other = mint_context(), mint_context()
        log.emit(REQUEST_ADMITTED, ctx=mine)
        log.emit(REQUEST_ADMITTED, ctx=other)
        log.emit(REQUEST_SOLVED, ctx=mine)
        records = log.records_for(mine.trace_id)
        assert len(records) == 2
        assert {r["trace_id"] for r in records} == {mine.trace_id}

    def test_write_jsonl_round_trips(self, tmp_path):
        log = EventLog()
        log.emit(REQUEST_ADMITTED, ctx=mint_context(), solver="cg")
        path = log.write_jsonl(tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["type"] == REQUEST_ADMITTED
        assert rec["fields"]["solver"] == "cg"


class TestGlobalLog:
    def test_emit_event_without_installed_log_is_noop(self):
        assert current().events is None
        assert emit_event(REQUEST_ADMITTED) is None

    def test_use_event_log_installs_and_restores(self):
        log = EventLog()
        with use(events=log):
            assert current().events is log
            emit_event(REQUEST_ADMITTED, ctx=mint_context())
        assert current().events is None
        assert len(log) == 1

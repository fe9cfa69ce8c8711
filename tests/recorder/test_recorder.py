"""FlightRecorder rings, triggers, dump bounds, and ambient installation."""

import json

import pytest

from repro.instruments import current, use
from repro.observability.metrics import MetricsRegistry
from repro.recorder.bundle import (
    BUNDLE_KIND,
    find_bundles,
    is_bundle,
    load_bundle,
    write_bundle,
)
from repro.recorder.recorder import (
    TRIGGER_CHAOS_FAULT,
    TRIGGER_MANUAL,
    TRIGGER_SLO_BURN,
    FlightRecorder,
)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestRings:
    def test_rings_are_bounded(self):
        rec = FlightRecorder(capacity=8)
        for i in range(50):
            rec.record_event({"type": "request.solved", "i": i})
            rec.record_flush({"classes": ["converged"]}, flush_id=f"f{i}")
        snap = rec.snapshot()
        assert len(snap["events"]) == 8
        assert len(snap["flushes"]) == 8
        # newest survive, oldest evicted; one entry carries both halves
        assert snap["events"][-1]["i"] == 49
        assert snap["flushes"][-1]["flush_id"] == "f49"
        assert snap["flushes"][-1]["classes"] == ["converged"]
        assert rec.events_seen == 50 and rec.flushes_seen == 50
        assert set(snap) == {"events", "flushes", "metrics", "triggers"}

    def test_invalid_capacities_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(metric_interval=0)

    def test_metric_snapshots_are_rate_limited_deltas(self):
        rec = FlightRecorder(metric_interval=4)
        reg = MetricsRegistry()
        counter = reg.counter("serve.flushes")
        reg.gauge("serve.queue_depth").set(3)
        for i in range(8):
            counter.inc()
            rec.observe_registry(reg)
        snaps = rec.snapshot()["metrics"]
        # 8 calls / interval 4 = 2 snapshots
        assert len(snaps) == 2
        # first snapshot carries both instruments; second only what moved
        assert snaps[0]["deltas"]["serve.flushes"] == 4.0
        assert snaps[0]["deltas"]["serve.queue_depth"] == 3.0
        assert snaps[1]["deltas"] == {"serve.flushes": 8.0}

    def test_never_set_nan_gauge_skipped(self):
        rec = FlightRecorder(metric_interval=1)
        reg = MetricsRegistry()
        reg.gauge("serve.breaker_state")  # value is NaN until set
        reg.counter("serve.flushes").inc()
        rec.observe_registry(reg)
        deltas = rec.snapshot()["metrics"][0]["deltas"]
        assert "serve.breaker_state" not in deltas
        assert deltas["serve.flushes"] == 1.0


class TestTriggersAndDumps:
    def test_trigger_without_dump_dir_records_only(self):
        rec = FlightRecorder()
        assert rec.trigger(TRIGGER_SLO_BURN, slos=["p99"]) is None
        assert rec.triggers_fired == {TRIGGER_SLO_BURN: 1}
        assert rec.snapshot()["triggers"][0]["reason"] == TRIGGER_SLO_BURN

    def test_trigger_auto_dumps_into_dump_dir(self, tmp_path):
        rec = FlightRecorder(dump_dir=tmp_path, shard="s0")
        rec.record_event({"type": "request.failed"})
        bundle = rec.trigger(TRIGGER_CHAOS_FAULT, trace_id="t-123", kind="worker_die")
        assert bundle is not None and is_bundle(bundle)
        loaded = load_bundle(bundle)
        assert loaded["manifest"]["reason"] == TRIGGER_CHAOS_FAULT
        assert loaded["manifest"]["trace_id"] == "t-123"
        assert loaded["manifest"]["shard"] == "s0"
        assert loaded["events"] == [{"type": "request.failed"}]
        # the trigger itself is in the bundle's trigger stream
        assert loaded["triggers"][0]["kind"] == "worker_die"

    def test_same_reason_redump_rate_limited(self, tmp_path):
        clock = FakeClock()
        rec = FlightRecorder(dump_dir=tmp_path, redump_interval_s=60.0, clock=clock)
        assert rec.trigger(TRIGGER_SLO_BURN) is not None
        clock.t += 10.0
        assert rec.trigger(TRIGGER_SLO_BURN) is None  # within the interval
        clock.t += 60.0
        assert rec.trigger(TRIGGER_SLO_BURN) is not None
        # a different reason is not throttled by slo_burn's window
        assert rec.trigger(TRIGGER_CHAOS_FAULT) is not None

    def test_max_dumps_cap(self, tmp_path):
        clock = FakeClock()
        rec = FlightRecorder(
            dump_dir=tmp_path, max_dumps=2, redump_interval_s=0.0, clock=clock
        )
        paths = []
        for _ in range(5):
            clock.t += 1.0
            path = rec.trigger(TRIGGER_CHAOS_FAULT)
            if path is not None:
                paths.append(path)
        assert len(paths) == 2
        assert rec.dumps_written == 2
        assert len(find_bundles(tmp_path)) == 2

    def test_explicit_dump_requires_a_directory(self):
        rec = FlightRecorder()
        with pytest.raises(ValueError):
            rec.dump()

    def test_dump_names_are_sequenced_and_sanitized(self, tmp_path):
        rec = FlightRecorder()
        first = rec.dump(tmp_path, reason="weird/reason name")
        second = rec.dump(tmp_path)
        assert first.name == "bundle-000-weird_reason_name"
        assert second.name == f"bundle-001-{TRIGGER_MANUAL}"

    def test_bundle_is_json_clean(self, tmp_path):
        rec = FlightRecorder()
        rec.record_flush(
            {"classes": ["converged"], "worst_curve": [1.0, None]}, trace_ids=["t1"]
        )
        bundle = rec.dump(tmp_path)
        lines = (bundle / "flushes.jsonl").read_text().splitlines()
        assert len(lines) == 1
        for line in lines:
            json.loads(line)
        assert not (bundle / "solves.jsonl").exists()


class TestBundleFormat:
    def test_load_rejects_foreign_kind(self, tmp_path):
        path = tmp_path / "foreign"
        path.mkdir()
        (path / "manifest.json").write_text(json.dumps({"kind": "something.else"}))
        assert not is_bundle(path)
        with pytest.raises(ValueError):
            load_bundle(path)

    def test_load_rejects_newer_schema(self, tmp_path):
        path = write_bundle(tmp_path / "b", {}, reason="manual")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_bundle(path)

    def test_missing_streams_written_empty(self, tmp_path):
        path = write_bundle(tmp_path / "b", {"events": [{"a": 1}]}, reason="manual")
        loaded = load_bundle(path)
        assert loaded["events"] == [{"a": 1}]
        assert loaded["flushes"] == [] and loaded["metrics"] == []
        assert "solves" not in loaded
        assert loaded["manifest"]["counts"]["triggers"] == 0
        assert loaded["manifest"]["kind"] == BUNDLE_KIND

    def test_find_bundles_root_or_children(self, tmp_path):
        a = write_bundle(tmp_path / "a", {}, reason="manual")
        write_bundle(tmp_path / "b", {}, reason="manual")
        (tmp_path / "noise").mkdir()
        assert find_bundles(a) == [a]
        assert [p.name for p in find_bundles(tmp_path)] == ["a", "b"]
        assert find_bundles(tmp_path / "missing") == []


class TestAmbientInstall:
    def test_use_recorder_scopes_and_restores(self):
        outer = FlightRecorder()
        inner = FlightRecorder()
        with use(recorder=outer):
            with use(recorder=inner) as active:
                assert active.recorder is inner
                assert current().recorder is inner
            assert current().recorder is outer
        assert current().recorder is None

    def test_event_log_taps_ambient_recorder(self):
        from repro.telemetry.events import REQUEST_SOLVED, EventLog

        rec = FlightRecorder()
        log = EventLog()
        with use(recorder=rec):
            log.emit(REQUEST_SOLVED, latency_ms=1.5)
        assert rec.events_seen == 1
        record = rec.snapshot()["events"][0]
        assert record["type"] == REQUEST_SOLVED
        assert record["fields"]["latency_ms"] == 1.5

"""SLO specs, count extraction (registry + Prometheus), burn-rate alerts."""

import pytest

from repro.instruments import use
from repro.observability import render_prometheus
from repro.observability.metrics import MetricsRegistry
from repro.recorder.recorder import TRIGGER_SLO_BURN, FlightRecorder
from repro.telemetry import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SloMonitor,
    SloSpec,
    counts_from_prometheus,
    counts_from_registry,
    default_slos,
    dump_slos,
    latency_slo,
    load_slos,
    ratio_slo,
)
from repro.telemetry.events import SLO_ALERT, EventLog


class TestSpecs:
    def test_latency_shorthand(self):
        spec = latency_slo("p99", histogram="h", threshold_ms=100.0)
        assert spec.kind == "latency"
        assert spec.error_budget == pytest.approx(0.01)

    def test_ratio_shorthand(self):
        spec = ratio_slo("fb", bad=("fallbacks",), total="served", objective=0.95)
        assert spec.kind == "ratio"
        assert spec.error_budget == pytest.approx(0.05)

    def test_objective_bounds_enforced(self):
        with pytest.raises(ValueError, match="objective"):
            latency_slo("x", histogram="h", threshold_ms=1.0, objective=1.0)

    def test_latency_needs_histogram_and_threshold(self):
        with pytest.raises(ValueError, match="latency"):
            SloSpec(name="x", objective=0.99, kind="latency")

    def test_ratio_needs_counters(self):
        with pytest.raises(ValueError, match="ratio"):
            SloSpec(name="x", objective=0.99, kind="ratio")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec(name="x", objective=0.99, kind="availability")

    def test_window_validation(self):
        with pytest.raises(ValueError, match="short window"):
            BurnWindow("w", short_s=100.0, long_s=50.0, threshold=1.0)

    def test_default_slos_cover_the_serve_instruments(self):
        specs = default_slos(latency_threshold_ms=250.0)
        names = {s.name for s in specs}
        assert names == {"latency_p99", "fallback_rate", "error_rate"}
        latency = next(s for s in specs if s.kind == "latency")
        assert latency.histogram == "serve.latency_hdr_ms"
        assert latency.threshold_ms == 250.0

    def test_dump_load_round_trip(self, tmp_path):
        specs = default_slos()
        path = dump_slos(specs, tmp_path / "slos.json")
        assert load_slos(path) == specs

    def test_from_dict_defaults_windows(self):
        spec = SloSpec.from_dict(
            {"name": "x", "objective": 0.99, "kind": "ratio", "bad": ["b"], "total": "t"}
        )
        assert spec.windows == DEFAULT_WINDOWS


class TestCounts:
    def test_ratio_counts(self):
        registry = MetricsRegistry()
        registry.counter("bad").inc(3)
        registry.counter("total").inc(50)
        spec = ratio_slo("r", bad=("bad",), total="total", objective=0.99)
        assert counts_from_registry(spec, registry) == (3.0, 50.0)

    def test_ratio_counts_sum_multiple_bad_counters(self):
        registry = MetricsRegistry()
        registry.counter("b1").inc(2)
        registry.counter("b2").inc(5)
        registry.counter("total").inc(10)
        spec = ratio_slo("r", bad=("b1", "b2"), total="total", objective=0.99)
        assert counts_from_registry(spec, registry) == (7.0, 10.0)

    def test_latency_counts_split_on_threshold(self):
        registry = MetricsRegistry()
        hist = registry.log_histogram("lat_ms")
        for _ in range(9):
            hist.observe(1.0)
        hist.observe(10000.0)
        spec = latency_slo("p", histogram="lat_ms", threshold_ms=100.0)
        bad, total = counts_from_registry(spec, registry)
        assert total == 10.0
        assert bad == 1.0

    def test_prometheus_twin_agrees_with_registry(self):
        """The offline scraper path reads the same counts as the live one."""
        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_hdr_ms")
        for _ in range(20):
            hist.observe(2.0)
        for _ in range(3):
            hist.observe(5000.0)
        registry.counter("serve.fallbacks").inc(2)
        registry.counter("serve.served").inc(23)
        text = render_prometheus(registry)
        for spec in (
            latency_slo("p", histogram="serve.latency_hdr_ms", threshold_ms=100.0),
            ratio_slo(
                "fb", bad=("serve.fallbacks",), total="serve.served", objective=0.95
            ),
        ):
            assert counts_from_prometheus(spec, text) == counts_from_registry(
                spec, registry
            )


def _ratio_monitor():
    registry = MetricsRegistry()
    spec = ratio_slo("err", bad=("bad",), total="total", objective=0.99)
    state = {"now": 0.0}
    monitor = SloMonitor(registry, specs=[spec], clock=lambda: state["now"])
    return registry, monitor, state


def _advance(registry, monitor, state, epochs, bad_per_epoch, total_per_epoch, dt=600.0):
    for _ in range(epochs):
        registry.counter("bad").inc(bad_per_epoch)
        registry.counter("total").inc(total_per_epoch)
        state["now"] += dt
        monitor.sample()


class TestBurnRateAlerts:
    def test_clean_traffic_never_fires(self):
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=8, bad_per_epoch=0, total_per_epoch=100)
        statuses = monitor.evaluate(now=state["now"])
        assert not any(s.burning for s in statuses)
        assert all(s.compliant for s in statuses)

    def test_regression_fires_fast_and_slow_windows(self):
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=6, bad_per_epoch=0, total_per_epoch=100)
        _advance(registry, monitor, state, epochs=6, bad_per_epoch=30, total_per_epoch=100)
        (status,) = monitor.evaluate(now=state["now"])
        assert status.burning
        firing = {a.window.name for a in status.alerts if a.firing}
        assert firing == {"fast", "slow"}
        # 30% bad against a 1% budget is a 30x burn in the recent windows
        fast = next(a for a in status.alerts if a.window.name == "fast")
        assert fast.short_burn == pytest.approx(30.0, rel=0.01)

    def test_fast_alert_resets_after_recovery(self):
        """The short window exists so the page clears once the burn stops."""
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=6, bad_per_epoch=30, total_per_epoch=100)
        _advance(registry, monitor, state, epochs=3, bad_per_epoch=0, total_per_epoch=100)
        (status,) = monitor.evaluate(now=state["now"])
        fast = next(a for a in status.alerts if a.window.name == "fast")
        assert fast.short_burn == pytest.approx(0.0)
        assert not fast.firing

    def test_single_bad_minute_does_not_page(self):
        """The long window keeps one noisy blip from firing the alert."""
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=30, bad_per_epoch=0, total_per_epoch=100)
        # one 10-minute epoch at 30% bad after five clean hours
        _advance(registry, monitor, state, epochs=1, bad_per_epoch=30, total_per_epoch=100)
        (status,) = monitor.evaluate(now=state["now"])
        fast = next(a for a in status.alerts if a.window.name == "fast")
        assert fast.short_burn > fast.window.threshold  # the blip is visible...
        assert not fast.firing  # ...but the 1 h leg holds the page back

    def test_no_traffic_means_no_verdict(self):
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        state["now"] += 600.0
        monitor.sample()
        (status,) = monitor.evaluate(now=state["now"])
        assert all(a.short_burn is None for a in status.alerts)
        assert not status.burning
        assert status.good_fraction == 1.0

    def test_cold_start_uses_earliest_sample(self):
        """A service younger than the window can still page (SRE workbook)."""
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=2, bad_per_epoch=50, total_per_epoch=100)
        (status,) = monitor.evaluate(now=state["now"])
        slow = next(a for a in status.alerts if a.window.name == "slow")
        assert slow.long_burn == pytest.approx(50.0, rel=0.01)
        assert slow.firing

    def test_report_rows_states(self):
        registry, monitor, state = _ratio_monitor()
        monitor.sample()
        _advance(registry, monitor, state, epochs=6, bad_per_epoch=30, total_per_epoch=100)
        rows = monitor.report_rows(monitor.evaluate(now=state["now"]))
        assert rows[0]["slo"] == "err"
        assert rows[0]["state"] == "BURNING"
        registry2 = MetricsRegistry()
        registry2.counter("total").inc(100)
        spec = ratio_slo("ok", bad=("bad",), total="total", objective=0.99)
        clean = SloMonitor(registry2, specs=[spec], clock=lambda: 0.0)
        clean.sample(now=0.0)
        rows = clean.report_rows(clean.evaluate(now=1.0))
        assert rows[0]["state"] == "OK"

    def test_sample_ring_is_bounded(self):
        registry, monitor, state = _ratio_monitor()
        monitor2 = SloMonitor(
            registry, specs=monitor.specs, clock=lambda: state["now"], max_samples=16
        )
        for _ in range(100):
            state["now"] += 1.0
            monitor2.sample()
        assert monitor2.num_samples == 16


class TestAlertEvents:
    def test_one_alert_per_transition_into_burning(self):
        registry, monitor, state = _ratio_monitor()
        log = EventLog()
        recorder = FlightRecorder()
        burning = []
        with use(events=log, recorder=recorder):
            monitor.sample()
            for bad, epochs in ((30, 6), (30, 1), (30, 1), (0, 3), (0, 1), (30, 6)):
                _advance(registry, monitor, state, epochs, bad, total_per_epoch=100)
                (status,) = monitor.evaluate(now=state["now"])
                burning.append(status.burning)
        # starts, stays, stays, recovers, stays recovered, starts again
        assert burning == [True, True, True, False, False, True]
        alerts = [r for r in log.records() if r["type"] == SLO_ALERT]
        assert [a["fields"]["slos"] for a in alerts] == [["err"], ["err"]]
        assert log.summary()["pinned"] == 2  # critical
        assert recorder.triggers_fired == {TRIGGER_SLO_BURN: 2}
        assert [t["slos"] for t in recorder.snapshot()["triggers"]] == [["err"], ["err"]]

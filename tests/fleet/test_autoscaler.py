"""The autoscaler control loop: pressure signals, hysteresis, cooldown."""

import math
import time

import pytest

from repro.fleet import Autoscaler, FleetConfig, FleetSignals
from repro.fleet.autoscaler import COOLDOWN, HOLD, SCALE_DOWN, SCALE_UP
from repro.instruments import current, use
from repro.observability.metrics import MetricsRegistry
from repro.recorder import FlightRecorder
from repro.serve import ServeConfig


class _FakeShardService:
    """Just enough SolverService surface for the autoscaler's signals."""

    def __init__(self, max_pending: int) -> None:
        self.metrics = MetricsRegistry()
        self.pending = 0


class _FakeShard:
    def __init__(self, name: str, max_pending: int) -> None:
        self.name = name
        self.state = "active"
        self.service = _FakeShardService(max_pending)


class _FakeFleet:
    """A scriptable fleet: tests set latencies/pending, count actions."""

    def __init__(self, replicas: int = 2, **config_overrides) -> None:
        config_overrides.setdefault("initial_replicas", replicas)
        config_overrides.setdefault(
            "serve", ServeConfig(max_pending=100)
        )
        self.config = FleetConfig(**config_overrides)
        self._shards = [
            _FakeShard(f"shard-{i}", self.config.serve.max_pending)
            for i in range(replicas)
        ]
        self.metrics = MetricsRegistry()
        self.scale_up_calls = 0
        self.scale_down_calls = 0

    def active_shards(self):
        return list(self._shards)

    @property
    def pending(self) -> int:
        return sum(s.service.pending for s in self._shards)

    def scale_up(self, count: int = 1) -> list:
        self.scale_up_calls += 1
        name = f"shard-{len(self._shards)}"
        self._shards.append(_FakeShard(name, self.config.serve.max_pending))
        return [name]

    def scale_down(self, count: int = 1, timeout=None) -> list:
        self.scale_down_calls += 1
        return [self._shards.pop().name]

    def set_latency(self, shard_index: int, latency_ms: float, samples: int = 32):
        hdr = self._shards[shard_index].service.metrics.log_histogram(
            "serve.latency_hdr_ms"
        )
        for _ in range(samples):
            hdr.observe(latency_ms)

    def set_pending(self, total: int) -> None:
        per_shard, extra = divmod(total, len(self._shards))
        for i, shard in enumerate(self._shards):
            shard.service.pending = per_shard + (1 if i < extra else 0)


def _scaler(fleet: _FakeFleet) -> Autoscaler:
    # frozen fake clock: the SLO monitors' burn windows never advance, so
    # only the latency/utilization signals drive these tests
    return Autoscaler(fleet, clock=lambda: 1000.0)


class TestSignals:
    def test_observe_collects_everything(self):
        fleet = _FakeFleet(replicas=2, target_p99_ms=100.0)
        fleet.set_latency(0, 40.0)
        fleet.set_latency(1, 250.0)
        fleet.set_pending(50)
        signals = _scaler(fleet).observe()
        assert signals.replicas == 2
        assert signals.pending == 50
        assert signals.utilization == pytest.approx(50 / 200)
        assert signals.worst_p99_ms == pytest.approx(250.0, rel=0.2)
        assert not signals.burning
        assert fleet.metrics.gauge("fleet.utilization").value == signals.utilization

    def test_no_latency_samples_is_nan(self):
        signals = _scaler(_FakeFleet()).observe()
        assert math.isnan(signals.worst_p99_ms)

    def test_burning_property(self):
        quiet = FleetSignals(2, 0, 0.0, math.nan)
        hot = FleetSignals(2, 0, 0.0, math.nan, burning_shards=["shard-0"])
        assert not quiet.burning
        assert hot.burning

    def test_burning_shards_are_pressure(self):
        fleet = _FakeFleet(target_p99_ms=100.0)
        scaler = _scaler(fleet)
        hot = FleetSignals(2, 0, 0.0, math.nan, burning_shards=["shard-0"])
        assert scaler._pressured(hot)
        assert not scaler._relaxed(hot)


class TestHysteresis:
    def test_scale_up_needs_patience(self):
        fleet = _FakeFleet(
            replicas=1, target_p99_ms=100.0, scale_up_patience=2, max_replicas=4
        )
        scaler = _scaler(fleet)
        fleet.set_latency(0, 500.0)
        assert scaler.evaluate() == HOLD  # first pressured evaluation: wait
        assert fleet.scale_up_calls == 0
        assert scaler.evaluate() == SCALE_UP
        assert fleet.scale_up_calls == 1

    def test_one_burst_never_scales(self):
        fleet = _FakeFleet(
            replicas=1, target_p99_ms=100.0, scale_up_patience=2, max_replicas=4
        )
        scaler = _scaler(fleet)
        fleet.set_latency(0, 500.0)
        assert scaler.evaluate() == HOLD
        # the burst passes: a calm evaluation resets the streak
        fleet._shards[0].service.metrics = MetricsRegistry()
        assert scaler.evaluate() == HOLD
        fleet.set_latency(0, 500.0)
        assert scaler.evaluate() == HOLD
        assert fleet.scale_up_calls == 0

    def test_scale_down_when_relaxed(self):
        fleet = _FakeFleet(
            replicas=3,
            target_p99_ms=100.0,
            scale_down_patience=3,
            min_replicas=1,
        )
        scaler = _scaler(fleet)
        for i in range(3):
            fleet.set_latency(i, 10.0)  # well under half the target
        verdicts = [scaler.evaluate() for _ in range(3)]
        assert verdicts == [HOLD, HOLD, SCALE_DOWN]
        assert fleet.scale_down_calls == 1

    def test_bounds_respected(self):
        fleet = _FakeFleet(
            replicas=2, target_p99_ms=100.0, scale_up_patience=1,
            max_replicas=2, cooldown_evaluations=0,
        )
        scaler = _scaler(fleet)
        fleet.set_latency(0, 500.0)
        # pressured but already at max_replicas: hold, do not thrash
        assert scaler.evaluate() == HOLD
        assert fleet.scale_up_calls == 0

    def test_cooldown_after_action(self):
        fleet = _FakeFleet(
            replicas=1, target_p99_ms=100.0, scale_up_patience=1,
            cooldown_evaluations=2, max_replicas=8,
        )
        scaler = _scaler(fleet)
        fleet.set_latency(0, 500.0)
        assert scaler.evaluate() == SCALE_UP
        # still pressured, but the new replica set gets to settle first
        assert scaler.evaluate() == COOLDOWN
        assert scaler.evaluate() == COOLDOWN
        assert scaler.evaluate() == SCALE_UP
        assert fleet.scale_up_calls == 2
        assert scaler.decisions == [SCALE_UP, COOLDOWN, COOLDOWN, SCALE_UP]

    def test_monitors_dropped_with_drained_shards(self):
        fleet = _FakeFleet(replicas=2, target_p99_ms=100.0)
        scaler = _scaler(fleet)
        scaler.observe()
        assert set(scaler._monitors) == {"shard-0", "shard-1"}
        fleet._shards.pop()
        scaler.observe()
        assert set(scaler._monitors) == {"shard-0"}


class TestBackgroundLoop:
    def test_start_stop_runs_evaluations(self):
        fleet = _FakeFleet(replicas=1, target_p99_ms=100.0)
        scaler = _scaler(fleet)
        scaler.start(interval_s=0.01)
        with pytest.raises(RuntimeError):
            scaler.start(interval_s=0.01)
        deadline = time.monotonic() + 5.0
        while not scaler.decisions and time.monotonic() < deadline:
            time.sleep(0.01)
        scaler.stop()
        assert scaler.decisions
        scaler.stop()  # idempotent

    def test_loop_runs_under_observers_installed_at_construction(self):
        """The loop thread sees the recorder installed where the scaler was
        built, so an SLO burn it detects can trigger that recorder."""
        fleet = _FakeFleet(replicas=1, target_p99_ms=100.0)
        recorder = FlightRecorder()
        with use(recorder=recorder):
            scaler = _scaler(fleet)
        seen = []
        scaler.evaluate = lambda: seen.append(current().recorder)
        scaler.start(interval_s=0.01)
        deadline = time.monotonic() + 5.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
        scaler.stop()
        assert seen and seen[0] is recorder

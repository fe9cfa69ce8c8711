"""The autoscaler control loop: the utilization signal, hysteresis, cooldown."""

import time

import pytest

from repro.fleet import Autoscaler, FleetConfig
from repro.fleet.autoscaler import COOLDOWN, HOLD, SCALE_DOWN, SCALE_UP
from repro.observability.metrics import MetricsRegistry
from repro.serve import ServeConfig


class _FakeShardService:
    """Just enough SolverService surface for the autoscaler's signal."""

    def __init__(self) -> None:
        self.pending = 0


class _FakeShard:
    def __init__(self, name: str) -> None:
        self.name = name
        self.state = "active"
        self.service = _FakeShardService()


class _FakeFleet:
    """A scriptable fleet: tests set pending, count actions."""

    def __init__(self, replicas: int = 2, **config_overrides) -> None:
        config_overrides.setdefault("initial_replicas", replicas)
        config_overrides.setdefault(
            "serve", ServeConfig(max_pending=100)
        )
        self.config = FleetConfig(**config_overrides)
        self._shards = [_FakeShard(f"shard-{i}") for i in range(replicas)]
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
        self._shards.append(_FakeShard(name))
        return [name]

    def scale_down(self, count: int = 1, timeout=None) -> list:
        self.scale_down_calls += 1
        return [self._shards.pop().name]

    def set_pending(self, total: int) -> None:
        per_shard, extra = divmod(total, len(self._shards))
        for i, shard in enumerate(self._shards):
            shard.service.pending = per_shard + (1 if i < extra else 0)


class TestSignals:
    def test_observe_collects_everything(self):
        fleet = _FakeFleet(replicas=2)
        fleet.set_pending(50)
        signals = Autoscaler(fleet).observe()
        assert signals.replicas == 2
        assert signals.pending == 50
        assert signals.utilization == pytest.approx(50 / 200)
        assert fleet.metrics.gauge("fleet.utilization").value == signals.utilization


class TestHysteresis:
    def test_scale_up_needs_patience(self):
        fleet = _FakeFleet(replicas=1, scale_up_patience=2, max_replicas=4)
        scaler = Autoscaler(fleet)
        fleet.set_pending(90)  # over the 0.75 high watermark
        assert scaler.evaluate() == HOLD  # first pressured evaluation: wait
        assert fleet.scale_up_calls == 0
        assert scaler.evaluate() == SCALE_UP
        assert fleet.scale_up_calls == 1

    def test_one_burst_never_scales(self):
        fleet = _FakeFleet(replicas=1, scale_up_patience=2, max_replicas=4)
        scaler = Autoscaler(fleet)
        fleet.set_pending(90)
        assert scaler.evaluate() == HOLD
        # the burst passes: a calm evaluation resets the streak
        fleet.set_pending(0)
        assert scaler.evaluate() == HOLD
        fleet.set_pending(90)
        assert scaler.evaluate() == HOLD
        assert fleet.scale_up_calls == 0

    def test_scale_down_when_relaxed(self):
        fleet = _FakeFleet(replicas=3, scale_down_patience=3, min_replicas=1)
        scaler = Autoscaler(fleet)
        fleet.set_pending(30)  # 0.1, under the 0.25 low watermark
        verdicts = [scaler.evaluate() for _ in range(3)]
        assert verdicts == [HOLD, HOLD, SCALE_DOWN]
        assert fleet.scale_down_calls == 1

    def test_bounds_respected(self):
        fleet = _FakeFleet(
            replicas=2, scale_up_patience=1, max_replicas=2, cooldown_evaluations=0
        )
        scaler = Autoscaler(fleet)
        fleet.set_pending(180)
        # pressured but already at max_replicas: hold, do not thrash
        assert scaler.evaluate() == HOLD
        assert fleet.scale_up_calls == 0

    def test_cooldown_after_action(self):
        fleet = _FakeFleet(
            replicas=1, scale_up_patience=1, cooldown_evaluations=2, max_replicas=8
        )
        scaler = Autoscaler(fleet)
        fleet.set_pending(190)  # still over 0.75 of two replicas' capacity
        assert scaler.evaluate() == SCALE_UP
        # still pressured, but the new replica set gets to settle first
        assert scaler.evaluate() == COOLDOWN
        assert scaler.evaluate() == COOLDOWN
        assert scaler.evaluate() == SCALE_UP
        assert fleet.scale_up_calls == 2
        assert scaler.decisions == [SCALE_UP, COOLDOWN, COOLDOWN, SCALE_UP]


class TestBackgroundLoop:
    def test_start_stop_runs_evaluations(self):
        fleet = _FakeFleet(replicas=1)
        scaler = Autoscaler(fleet)
        scaler.start(interval_s=0.01)
        with pytest.raises(RuntimeError):
            scaler.start(interval_s=0.01)
        deadline = time.monotonic() + 5.0
        while not scaler.decisions and time.monotonic() < deadline:
            time.sleep(0.01)
        scaler.stop()
        assert scaler.decisions
        scaler.stop()  # idempotent

"""The replica autoscaler: HDR latency + SLO burn + utilization, with hysteresis.

One control loop, three pressure signals, all read from instruments the
earlier layers already maintain:

* **Tail latency** — each shard's ``serve.latency_hdr_ms``
  :class:`~repro.observability.metrics.LogHistogram` p99 against
  ``FleetConfig.target_p99_ms``.
* **SLO burn** — a per-shard :class:`~repro.telemetry.slo.SloMonitor`
  over :func:`~repro.telemetry.slo.default_slos`; a firing multi-window
  burn-rate alert is scale-up pressure regardless of the instantaneous
  p99 (the budget is going, act before the page).
* **Utilization** — fleet pending over fleet admission capacity
  (``replicas x serve.max_pending``) against the watermarks.

Decisions are damped twice: *patience* (N consecutive pressured/relaxed
evaluations before acting — one burst never scales) and *cooldown*
(evaluations ignored after any action — the new replica set gets to
settle before being judged). Scale-down drains gracefully through
:meth:`~repro.fleet.service.FleetService.scale_down`, so shedding a
replica never drops an admitted request.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.fleet.config import HIGH_WATERMARK, LOW_WATERMARK
from repro.instruments import current, use
from repro.telemetry.slo import SloMonitor, default_slos

#: Decision verdicts returned by :meth:`Autoscaler.evaluate`.
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
HOLD = "hold"
COOLDOWN = "cooldown"


@dataclass
class FleetSignals:
    """What the autoscaler saw at one evaluation (for logs and tests)."""

    replicas: int
    pending: int
    utilization: float
    worst_p99_ms: float  # NaN with no latency samples yet
    burning_shards: list[str] = field(default_factory=list)

    @property
    def burning(self) -> bool:
        return bool(self.burning_shards)


class Autoscaler:
    """Scale a :class:`~repro.fleet.service.FleetService` between its bounds.

    Usage (manual stepping — benches and tests)::

        scaler = Autoscaler(fleet)
        for _ in range(10):
            scaler.evaluate()
            ...

    or as a background control loop::

        scaler.start(interval_s=0.5)
        ...
        scaler.stop()

    ``clock`` is injectable so tests can drive the SLO monitors' burn
    windows over synthetic timelines.
    """

    def __init__(
        self,
        fleet,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.fleet = fleet
        self.config = fleet.config
        self._clock = clock
        self._monitors: dict[str, SloMonitor] = {}
        self._pressure_streak = 0
        self._relaxed_streak = 0
        self._cooldown = 0
        self.decisions: list[str] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # the loop thread runs under the observers installed here, so an
        # SLO burn it detects reaches the installed flight recorder
        self._instruments = current()

    # -- signal collection ----------------------------------------------------

    def _monitor_for(self, shard) -> SloMonitor:
        monitor = self._monitors.get(shard.name)
        if monitor is None:
            monitor = SloMonitor(
                shard.service.metrics,
                specs=default_slos(latency_threshold_ms=self.config.target_p99_ms),
                clock=self._clock,
            )
            self._monitors[shard.name] = monitor
        return monitor

    def observe(self, now: float | None = None) -> FleetSignals:
        """Collect the three pressure signals without deciding anything."""
        shards = self.fleet.active_shards()
        # forget monitors of shards that drained away
        alive = {s.name for s in shards}
        for name in list(self._monitors):
            if name not in alive:
                del self._monitors[name]

        worst_p99 = math.nan
        burning: list[str] = []
        for shard in shards:
            hdr = shard.service.metrics.log_histogram("serve.latency_hdr_ms")
            p99 = hdr.percentile(99.0)
            if not math.isnan(p99) and (math.isnan(worst_p99) or p99 > worst_p99):
                worst_p99 = p99
            statuses = self._monitor_for(shard).evaluate(now=now)
            if any(status.burning for status in statuses):
                burning.append(shard.name)

        pending = self.fleet.pending
        capacity = max(1, len(shards)) * self.config.serve.max_pending
        signals = FleetSignals(
            replicas=len(shards),
            pending=pending,
            utilization=pending / capacity,
            worst_p99_ms=worst_p99,
            burning_shards=burning,
        )
        metrics = self.fleet.metrics
        metrics.gauge("fleet.utilization").set(signals.utilization)
        if not math.isnan(worst_p99):
            metrics.gauge("fleet.worst_p99_ms").set(worst_p99)
        return signals

    # -- the control decision -------------------------------------------------

    def _pressured(self, signals: FleetSignals) -> bool:
        hot_tail = (
            not math.isnan(signals.worst_p99_ms)
            and signals.worst_p99_ms > self.config.target_p99_ms
        )
        return (
            hot_tail
            or signals.utilization > HIGH_WATERMARK
            or signals.burning
        )

    def _relaxed(self, signals: FleetSignals) -> bool:
        cool_tail = (
            math.isnan(signals.worst_p99_ms)
            or signals.worst_p99_ms < 0.5 * self.config.target_p99_ms
        )
        return (
            cool_tail
            and signals.utilization < LOW_WATERMARK
            and not signals.burning
        )

    def evaluate(self, now: float | None = None) -> str:
        """One control-loop step: observe, damp, maybe scale.

        Returns the verdict: ``"scale_up"`` / ``"scale_down"`` when an
        action was taken, ``"cooldown"`` while settling after one, and
        ``"hold"`` otherwise.
        """
        signals = self.observe(now=now)
        if self._cooldown > 0:
            self._cooldown -= 1
            self._pressure_streak = 0
            self._relaxed_streak = 0
            return self._record(COOLDOWN)

        if self._pressured(signals):
            self._pressure_streak += 1
            self._relaxed_streak = 0
        elif self._relaxed(signals):
            self._relaxed_streak += 1
            self._pressure_streak = 0
        else:
            self._pressure_streak = 0
            self._relaxed_streak = 0

        if (
            self._pressure_streak >= self.config.scale_up_patience
            and signals.replicas < self.config.max_replicas
        ):
            self.fleet.scale_up(1)
            self._after_action()
            return self._record(SCALE_UP)
        if (
            self._relaxed_streak >= self.config.scale_down_patience
            and signals.replicas > self.config.min_replicas
        ):
            self.fleet.scale_down(1)
            self._after_action()
            return self._record(SCALE_DOWN)
        return self._record(HOLD)

    def _after_action(self) -> None:
        self._pressure_streak = 0
        self._relaxed_streak = 0
        self._cooldown = self.config.cooldown_evaluations

    def _record(self, decision: str) -> str:
        self.decisions.append(decision)
        return decision

    # -- background loop ------------------------------------------------------

    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`evaluate` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("autoscaler already running")
        self._stop.clear()

        def loop() -> None:
            with use(**vars(self._instruments)):
                while not self._stop.wait(interval_s):
                    try:
                        self.evaluate()
                    except Exception:  # the fleet may be closing under us
                        return

        self._thread = threading.Thread(
            target=loop, name="fleet-autoscaler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop (no-op when not running)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

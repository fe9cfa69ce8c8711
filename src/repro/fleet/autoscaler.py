"""The replica autoscaler: admission utilization, with hysteresis.

One control loop over one pressure signal: fleet pending over fleet
admission capacity (``replicas x serve.max_pending``) against the
watermarks. It is the one signal an extra in-process shard can relieve.
A shard adds admission slots but no compute, because every shard runs
under the same interpreter lock, so adding one cannot lower a tail
latency or stop an SLO burn.

Decisions are damped twice: *patience* (N consecutive pressured/relaxed
evaluations before acting — one burst never scales) and *cooldown*
(evaluations ignored after any action — the new replica set gets to
settle before being judged). Scale-down drains gracefully through
:meth:`~repro.fleet.service.FleetService.scale_down`, so shedding a
replica never drops an admitted request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.fleet.config import HIGH_WATERMARK, LOW_WATERMARK

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
    """

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self.config = fleet.config
        self._pressure_streak = 0
        self._relaxed_streak = 0
        self._cooldown = 0
        self.decisions: list[str] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def observe(self) -> FleetSignals:
        """Collect the utilization signal without deciding anything."""
        replicas = len(self.fleet.active_shards())
        pending = self.fleet.pending
        capacity = max(1, replicas) * self.config.serve.max_pending
        signals = FleetSignals(
            replicas=replicas, pending=pending, utilization=pending / capacity
        )
        self.fleet.metrics.gauge("fleet.utilization").set(signals.utilization)
        return signals

    def evaluate(self) -> str:
        """One control-loop step: observe, damp, maybe scale.

        Returns the verdict: ``"scale_up"`` / ``"scale_down"`` when an
        action was taken, ``"cooldown"`` while settling after one, and
        ``"hold"`` otherwise.
        """
        signals = self.observe()
        if self._cooldown > 0:
            self._cooldown -= 1
            self._pressure_streak = 0
            self._relaxed_streak = 0
            return self._record(COOLDOWN)

        if signals.utilization > HIGH_WATERMARK:
            self._pressure_streak += 1
            self._relaxed_streak = 0
        elif signals.utilization < LOW_WATERMARK:
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

"""Command-wide telemetry hub behind ``repro run --with slo <command>``.

A :class:`SolverService` owns its metrics registry; ``python -m repro run
--with slo`` needs to evaluate objectives over *whatever services the
wrapped command created*. When a hub is installed
(``use(hub=hub, events=hub.event_log)`` from :mod:`repro.instruments`),
every service registers its registry on construction and logs to the
hub's shared event log — so one invocation sees the combined telemetry
of the whole command, the same way ``repro run --with trace <command>``
sees its spans. :func:`repro.chaos.replay.run_replay` collects through a
hub the same way.
"""

from __future__ import annotations

import threading

from repro.observability.metrics import MetricsRegistry
from repro.telemetry.events import EventLog
from repro.telemetry.slo import SloSpec, SloStatus, counts_from_registry

__all__ = ["TelemetryHub"]


class TelemetryHub:
    """Collects the registries (and shares one event log) of a command."""

    def __init__(self, event_log_capacity: int = 4096) -> None:
        self.event_log = EventLog(capacity=event_log_capacity)
        self._registries: list[MetricsRegistry] = []
        self._lock = threading.Lock()

    def register(self, registry: MetricsRegistry) -> None:
        """Attach one service's registry (idempotent per object)."""
        with self._lock:
            if all(registry is not r for r in self._registries):
                self._registries.append(registry)

    @property
    def registries(self) -> list[MetricsRegistry]:
        with self._lock:
            return list(self._registries)

    def slo_statuses(self, specs: tuple[SloSpec, ...] | list[SloSpec]) -> list[SloStatus]:
        """Overall compliance of each spec across every registered registry.

        The wrapper evaluates once at command exit, so there is no sample
        history — statuses carry overall compliance, not burn windows.
        """
        statuses = []
        for spec in specs:
            bad = 0.0
            total = 0.0
            for registry in self.registries:
                b, t = counts_from_registry(spec, registry)
                bad += b
                total += t
            statuses.append(SloStatus(spec=spec, bad=bad, total=total))
        return statuses

"""repro.telemetry — request-scoped tracing, structured events, and SLOs.

The layer above :mod:`repro.observability`: where that package records
*what the process did* (spans, counters, histograms), this one attributes
behaviour to *individual requests* and judges it against *objectives*:

* :mod:`repro.observability.context` (re-exported here) — the
  :class:`TraceContext` minted per :class:`~repro.serve.request.
  SolveRequest` and propagated ambiently via ``contextvars`` through the
  micro-batcher, worker pool, kernel launches and distributed rank lanes;
  batch fan-in is recorded as span links.
* :mod:`repro.telemetry.events` — the typed, schema-versioned structured
  event log with head/tail sampling and bounded-memory rings.
* :mod:`repro.telemetry.slo` — declarative SLO specs over the PR-5
  instruments, evaluated with Google-SRE multi-window burn-rate alerts.
* :mod:`repro.telemetry.dashboard` — the ``python -m repro top`` frame
  renderer.
* :mod:`repro.telemetry.hub` — the command-wide collection point behind
  ``python -m repro run --with slo <command>``.

Quickstart::

    from repro.serve import ServeConfig, SolverService, SolveRequest
    from repro.telemetry import SloMonitor, default_slos

    with SolverService(ServeConfig()) as service:
        monitor = SloMonitor(service.metrics, default_slos())
        ticket = service.submit(SolveRequest(a, b))
        outcome = ticket.result(timeout=5.0)
        print(outcome.trace_id, outcome.request_id)   # request attribution
        for status in monitor.evaluate():
            print(status.spec.name, status.good_fraction, status.burning)
"""

from repro.observability.context import (
    TraceContext,
    current_trace_context,
    mint_context,
    new_request_id,
    new_span_id,
    new_trace_id,
    set_trace_context,
    use_trace_context,
)
from repro.telemetry.dashboard import dashboard_text, sparkline
from repro.telemetry.events import (
    EVENT_TYPES,
    REQUEST_ADMITTED,
    REQUEST_FAILED,
    REQUEST_FALLBACK,
    REQUEST_REJECTED,
    REQUEST_SOLVED,
    REQUEST_TIMED_OUT,
    SANITIZER_TRIP,
    SCHEMA_VERSION,
    SLO_ALERT,
    EventLog,
    TelemetryEvent,
    emit_event,
)
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.slo import (
    DEFAULT_WINDOWS,
    BurnAlert,
    BurnWindow,
    SloMonitor,
    SloSpec,
    SloStatus,
    counts_from_prometheus,
    counts_from_registry,
    default_slos,
    dump_slos,
    latency_slo,
    load_slos,
    ratio_slo,
)

__all__ = [
    "BurnAlert",
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "EVENT_TYPES",
    "EventLog",
    "REQUEST_ADMITTED",
    "REQUEST_FAILED",
    "REQUEST_FALLBACK",
    "REQUEST_REJECTED",
    "REQUEST_SOLVED",
    "REQUEST_TIMED_OUT",
    "SANITIZER_TRIP",
    "SCHEMA_VERSION",
    "SLO_ALERT",
    "SloMonitor",
    "SloSpec",
    "SloStatus",
    "TelemetryEvent",
    "TelemetryHub",
    "TraceContext",
    "counts_from_prometheus",
    "counts_from_registry",
    "current_trace_context",
    "dashboard_text",
    "default_slos",
    "dump_slos",
    "emit_event",
    "latency_slo",
    "load_slos",
    "mint_context",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "ratio_slo",
    "set_trace_context",
    "sparkline",
    "use_trace_context",
]

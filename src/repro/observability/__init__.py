"""Unified tracing and metrics for the reproduction (the observability spine).

The paper's argument rests on *measured* kernel behaviour — one fused
launch per solve (Section 3.4), SLM-priority placement (Section 3.5), the
Advisor metrics of Fig. 8 — and this package gives every layer one place
to report it:

* :mod:`repro.observability.tracer` — a span-based tracer modelled on
  Intel's unitrace/Level-Zero tracing: nested spans with integer-nanosecond
  timestamps (``time.perf_counter_ns``), instant events and Chrome-style
  counter series, a context-manager and decorator API, and a zero-overhead
  no-op path when tracing is disabled.
* :mod:`repro.observability.metrics` — a registry of counters, gauges and
  histograms (with percentile summaries) subsuming per-solver convergence
  telemetry.
* :mod:`repro.observability.export` — exporters: Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``), a flat JSONL event log,
  and an ASCII summary table rendered through :mod:`repro.bench.report`.

Instrumented layers: :mod:`repro.sycl.queue` / :mod:`repro.sycl.executor`
(kernel-launch spans carrying :class:`~repro.sycl.executor.LaunchStats`),
:mod:`repro.core.dispatch` / :mod:`repro.core.launch` (the dispatch tuple),
:mod:`repro.core.solver` (per-iteration convergence events),
:mod:`repro.multi.distributed` (per-device lane spans) and
:mod:`repro.hw.timing` (modelled device time alongside host wall-clock).

Usage::

    from repro.instruments import use
    from repro.observability import Tracer, write_chrome_trace

    tracer = Tracer()
    with use(tracer=tracer):
        factory.solve(matrix, b)          # all layers feed the tracer
    write_chrome_trace(tracer, "trace.json")

or from the command line::

    python -m repro run --with trace --trace-out trace.json stencil
"""

from repro.observability.context import (
    TraceContext,
    current_trace_context,
    mint_context,
    new_span_id,
    new_trace_id,
    set_trace_context,
    use_trace_context,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    LogHistogram,
    MetricsRegistry,
)
from repro.observability.prometheus import render as render_prometheus
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    current_tracer,
    traced,
)
from repro.observability.export import (
    chrome_trace,
    chrome_trace_events,
    format_summary,
    summary_rows,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "render_prometheus",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "current_trace_context",
    "current_tracer",
    "format_summary",
    "mint_context",
    "new_span_id",
    "new_trace_id",
    "set_trace_context",
    "summary_rows",
    "traced",
    "use_trace_context",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

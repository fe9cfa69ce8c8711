"""The live text dashboard behind ``python -m repro top``.

One frame is a plain-text rendering of the process's observability state:
gauges, counters, HDR latency percentiles (with a log-bucket sparkline),
per-phase kernel counters from an installed
:class:`~repro.profile.profiler.Profiler`, active SLO burn state from an
:class:`~repro.telemetry.slo.SloMonitor`, and the tail of the structured
event log. Everything renders through :func:`repro.bench.report.
format_table`, so the dashboard, the trace summary and the bench reports
share one look.

The renderer is a pure function of its inputs — the CLI loop just prints
frames — so tests assert on frame content without a terminal.
"""

from __future__ import annotations

import re
import time

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    LogHistogram,
    MetricsRegistry,
)
from repro.telemetry.events import EventLog
from repro.telemetry.slo import SloMonitor

__all__ = ["dashboard_text", "sparkline"]

_SPARK_CHARS = " .:-=+*#%@"


def sparkline(counts: list[int], width: int = 24) -> str:
    """A fixed-width character strip of a bucket-count distribution."""
    if not counts:
        return " " * width
    # resample onto `width` cells (merge neighbours when there are more
    # buckets than cells, repeat when fewer)
    cells = []
    for i in range(width):
        lo = i * len(counts) // width
        hi = max(lo + 1, (i + 1) * len(counts) // width)
        cells.append(sum(counts[lo:hi]))
    peak = max(cells)
    if peak <= 0:
        return " " * width
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(top, (c * top + peak - 1) // peak)] for c in cells
    )


_TENANT_METRIC = re.compile(r'^serve\.(tenant_pending|quota_rejected)\{tenant="(.*)"\}$')


def _breaker_rows(registry: MetricsRegistry) -> list[dict]:
    """The local service's breaker row (a fleet's are in its shard panel)."""
    rows = []
    if "serve.breaker_state" in registry:
        state = registry.gauge("serve.breaker_state").value
        rows.append(
            {
                "breaker": "serve",
                "state": "open" if state == 1 else "closed",
                "opens": int(registry.counter("serve.breaker_opens").value)
                if "serve.breaker_opens" in registry
                else 0,
                "closes": int(registry.counter("serve.breaker_closes").value)
                if "serve.breaker_closes" in registry
                else 0,
                "fast_fails": int(registry.counter("serve.breaker_fast_fails").value)
                if "serve.breaker_fast_fails" in registry
                else 0,
            }
        )
    return rows


def _tenant_rows(registry: MetricsRegistry) -> list[dict]:
    """Per-tenant QoS rows parsed from the labeled serve instruments."""
    tenants: dict[str, dict] = {}
    for metric in registry.instruments():
        match = _TENANT_METRIC.match(metric.name)
        if match is None:
            continue
        kind, tenant = match.groups()
        row = tenants.setdefault(tenant, {"tenant": tenant, "pending": 0, "rejected": 0})
        if kind == "tenant_pending":
            row["pending"] = int(metric.value) if metric.value == metric.value else 0
        else:
            row["rejected"] = int(metric.value)
    return [tenants[name] for name in sorted(tenants)]


def _bucket_counts(hist: LogHistogram) -> list[int]:
    """Per-bucket (non-cumulative) counts from the cumulative bounds."""
    counts = []
    previous = 0
    for _bound, cumulative in hist.bucket_bounds():
        counts.append(cumulative - previous)
        previous = cumulative
    return counts


def dashboard_text(
    registry: MetricsRegistry,
    monitor: SloMonitor | None = None,
    events: EventLog | None = None,
    profiler=None,
    fleet=None,
    title: str = "repro top",
    clock=time.time,
) -> str:
    """Render one dashboard frame from the live registry (pure function).

    ``fleet`` is duck-typed (anything with ``shard_stats()`` and
    ``ring_occupancy()``, i.e. a :class:`repro.fleet.FleetService`) so
    the telemetry layer never imports the fleet package.
    """
    # deferred: repro.bench pulls the hardware/device stack in, and the
    # sanitizer (imported by the executor) needs repro.telemetry importable
    # without that cycle
    from repro.bench.report import format_table

    parts: list[str] = []
    stamp = time.strftime("%H:%M:%S", time.localtime(clock()))
    parts.append(f"== {title} — {stamp} — {len(registry)} instruments ==")

    gauges = [m for m in registry.instruments() if isinstance(m, Gauge)]
    if gauges:
        rows = [{"gauge": g.name, "value": f"{g.value:g}"} for g in gauges
                if g.value == g.value]  # skip NaN (never-set) gauges
        if rows:
            parts.append("")
            parts.append(format_table(rows, "gauges"))

    counters = [m for m in registry.instruments() if isinstance(m, Counter)]
    if counters:
        parts.append("")
        parts.append(
            format_table(
                [{"counter": c.name, "value": int(c.value)} for c in counters],
                "counters",
            )
        )

    breaker_rows = _breaker_rows(registry)
    if breaker_rows:
        parts.append("")
        parts.append(format_table(breaker_rows, "circuit breakers"))

    tenant_rows = _tenant_rows(registry)
    if tenant_rows:
        parts.append("")
        parts.append(format_table(tenant_rows, "tenant quotas"))

    hists = [
        m for m in registry.instruments() if isinstance(m, (Histogram, LogHistogram))
    ]
    if hists:
        rows = []
        for h in hists:
            summary = h.summary()
            row = {
                "histogram": h.name,
                "count": summary["count"],
                "p50": f"{summary['p50']:.3g}",
                "p90": f"{summary['p90']:.3g}",
                "p99": f"{summary['p99']:.3g}",
                "max": f"{summary['max']:.3g}",
            }
            if isinstance(h, LogHistogram):
                row["distribution"] = sparkline(_bucket_counts(h))
                exemplar = h.exemplar_for(99)
                row["p99_exemplar"] = (
                    (exemplar[0] or "-")[:10] if exemplar is not None else "-"
                )
            else:
                row["distribution"] = ""
                row["p99_exemplar"] = "-"
            rows.append(row)
        parts.append("")
        parts.append(format_table(rows, "latency / distributions"))

    if profiler is not None and profiler.kernel_names():
        rows = []
        for name in profiler.kernel_names():
            profile = profiler.profile_for(name)
            for phase, counters_ in profile.sorted_phases():
                rows.append(
                    {
                        "kernel": name,
                        "phase": phase,
                        "flops": counters_.flops,
                        "global_B": counters_.global_bytes,
                        "slm_B": counters_.slm_bytes,
                        "barriers": counters_.barriers,
                    }
                )
        if rows:
            parts.append("")
            parts.append(format_table(rows, "per-phase kernel counters"))

    if fleet is not None:
        rows = [
            {
                "shard": row["shard"],
                "state": row["state"],
                "pending": row["pending"],
                "served": row["served"],
                "rejected": row["rejected"],
                "flushes": row["flushes"],
                "fallbacks": row["fallbacks"],
                "breaker": row["breaker"],
                "p99_ms": f"{row['p99_ms']:.3g}" if row["p99_ms"] == row["p99_ms"] else "-",
            }
            for row in fleet.shard_stats()
        ]
        if rows:
            parts.append("")
            parts.append(format_table(rows, "fleet shards"))
        occupancy = fleet.ring_occupancy()
        if occupancy:
            parts.append("")
            parts.append(
                "ring occupancy: "
                + ", ".join(
                    f"{shard} {share:.1%}" for shard, share in sorted(occupancy.items())
                )
            )

    if monitor is not None:
        statuses = monitor.evaluate()
        parts.append("")
        parts.append(format_table(monitor.report_rows(statuses), "slo burn state"))

    if events is not None:
        tail = events.events()[-8:]
        if tail:
            rows = [
                {
                    "event": ev.type,
                    "request": ev.request_id or "-",
                    "keep": ev.keep,
                    "detail": ", ".join(
                        f"{k}={v}" for k, v in sorted(ev.fields.items())
                    )[:48] or "-",
                }
                for ev in tail
            ]
            parts.append("")
            parts.append(format_table(rows, "recent events"))
        summary = events.summary()
        parts.append("")
        parts.append(
            f"events: {summary['emitted']} emitted, {summary['retained']} retained "
            f"({summary['pinned']} pinned), {summary['dropped_head']} head-sampled away"
        )

    return "\n".join(parts) + "\n"

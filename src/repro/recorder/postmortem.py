"""Cross-shard postmortem analysis over flight-recorder bundles.

Given one or more diagnostic bundles (each a shard's black box at the
moment a trigger fired), this module answers the incident-review
questions:

* **analyze** — what faults were injected or occurred, which requests
  were the victims (joined through trace links), and is each failure an
  *infrastructure* fault (chaos kind, sanitizer trip, breaker) or a
  *numerical* one (breakdown / stagnation / divergence / NaN residual)?
* **timeline** — the merged, time-ordered event stream across every
  shard's bundle, so a cross-shard incident reads as one story.
* **diff** — what changed between two bundles (event mix, convergence
  class mix, trigger counts, final metric values) — before/after a
  deploy, or healthy shard vs. sick shard.

The reader deliberately speaks the *wire* format: event types are the
literal strings the telemetry schema exports (``"chaos.injected"``,
``"request.failed"``, ...) rather than imports from
:mod:`repro.telemetry.events`, because the telemetry layer taps into
the recorder and must stay importable without us.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from repro.recorder.bundle import find_bundles, load_bundle
from repro.recorder.classify import CONVERGED, SEVERITY

__all__ = [
    "load_bundles",
    "analyze_bundles",
    "render_analysis",
    "timeline_rows",
    "render_timeline",
    "diff_bundles",
    "render_diff",
]

# -- wire-format event types (mirrors repro.telemetry.events) -----------------

EVT_SOLVED = "request.solved"
EVT_FAILED = "request.failed"
EVT_TIMED_OUT = "request.timed_out"
EVT_FALLBACK = "request.fallback"
EVT_CHAOS = "chaos.injected"
EVT_SANITIZER = "sanitizer.trip"
EVT_BREAKER_OPEN = "breaker.open"
EVT_SLO_ALERT = "slo.alert"

#: Event types that count as request-level failures to attribute.
FAILURE_EVENTS = (EVT_FAILED, EVT_TIMED_OUT)

ATTR_INFRASTRUCTURE = "infrastructure"
ATTR_CONVERGENCE = "convergence"
ATTR_UNATTRIBUTED = "unattributed"


def load_bundles(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Load every bundle at or directly under each path (sorted, deduped)."""
    seen: set[str] = set()
    bundles: list[dict[str, Any]] = []
    for path in paths:
        found = find_bundles(path)
        if not found:
            raise ValueError(f"no recorder bundles at {path}")
        for bundle_path in found:
            key = str(Path(bundle_path).resolve())
            if key in seen:
                continue
            seen.add(key)
            bundles.append(load_bundle(bundle_path))
    return bundles


def _shard_of(bundle: dict[str, Any]) -> str:
    return bundle["manifest"].get("shard") or Path(bundle["path"]).name


# -- analyze ------------------------------------------------------------------


def analyze_bundles(bundles: list[dict[str, Any]]) -> dict[str, Any]:
    """Attribute every incident and failure across ``bundles``.

    Returns a JSON-ready analysis: the incident list (one per injected
    chaos fault / sanitizer trip / bad-convergence flush, deduplicated
    across bundles and joined to its victim trace ids), the failure
    attribution (each ``request.failed``/``request.timed_out`` event
    assigned to an infrastructure fault class, a convergence class, or
    left unattributed), and the aggregate convergence class mix.
    """
    # trace joins: flush_id -> victim traces, from the solved-flush
    # records and the chaos triggers (a faulted flush never solves, and
    # its trigger carries the authoritative victim list)
    flush_traces: dict[str, list[str]] = {}
    for bundle in bundles:
        chaos = [t for t in bundle["triggers"] if t.get("reason") == "chaos_fault"]
        for rec in bundle["flushes"] + chaos:
            traces = flush_traces.setdefault(rec.get("flush_id", ""), [])
            for tid in rec.get("trace_ids") or ():
                if tid not in traces:
                    traces.append(tid)

    # incidents: chaos faults first (deduped across bundles), then
    # sanitizer trips not already explained by a chaos fault, then
    # flushes whose numerics went bad
    incidents: list[dict[str, Any]] = []
    seen_faults: set[tuple] = set()
    chaos_flushes: set[str] = set()
    for bundle in bundles:
        shard = _shard_of(bundle)
        for ev in bundle["events"]:
            if ev.get("type") != EVT_CHAOS:
                continue
            fields = ev.get("fields", {})
            key = (fields.get("kind"), fields.get("flush_id"), fields.get("flush_index"))
            if key in seen_faults:
                continue
            seen_faults.add(key)
            fid = fields.get("flush_id", "")
            victims = flush_traces.get(fid, [])
            chaos_flushes.add(fid)
            incidents.append(
                {
                    "source": ATTR_INFRASTRUCTURE,
                    "fault_class": fields.get("kind", "unknown"),
                    "flush_id": fid,
                    "flush_index": fields.get("flush_index"),
                    "worker": fields.get("worker", ""),
                    "shard": shard,
                    "ts_ns": ev.get("ts_ns"),
                    "trace_id": victims[0] if victims else ev.get("trace_id"),
                    "trace_ids": victims,
                }
            )
    seen_trips: set[tuple] = set()
    for bundle in bundles:
        shard = _shard_of(bundle)
        for ev in bundle["events"]:
            if ev.get("type") != EVT_SANITIZER:
                continue
            fields = ev.get("fields", {})
            fid = fields.get("flush_id", "")
            key = (fid, fields.get("kind"))
            if key in seen_trips or fid in chaos_flushes:
                continue  # an injected sanitizer_trip already owns this flush
            seen_trips.add(key)
            victims = fields.get("trace_ids") or flush_traces.get(fid, [])
            incidents.append(
                {
                    "source": ATTR_INFRASTRUCTURE,
                    "fault_class": fields.get("kind", "sanitizer.trip"),
                    "flush_id": fid,
                    "shard": shard,
                    "ts_ns": ev.get("ts_ns"),
                    "trace_id": victims[0] if victims else ev.get("trace_id"),
                    "trace_ids": list(victims),
                }
            )

    # convergence: aggregate class mix, plus per-trace bad classes
    class_counts: dict[str, int] = {}
    trace_class: dict[str, str] = {}
    seen_flushes: set[tuple] = set()
    bad_flushes: list[dict[str, Any]] = []
    for bundle in bundles:
        shard = _shard_of(bundle)
        for rec in bundle["flushes"]:
            key = (rec.get("flush_id"), rec.get("ts"))
            if key in seen_flushes:
                continue
            seen_flushes.add(key)
            for cls, n in rec.get("class_counts", {}).items():
                class_counts[cls] = class_counts.get(cls, 0) + int(n)
            classes = rec.get("classes", [])
            traces = rec.get("trace_ids", [])
            for i, cls in enumerate(classes):
                if cls == CONVERGED or i >= len(traces):
                    continue
                prev = trace_class.get(traces[i])
                if prev is None or SEVERITY.get(cls, 0) > SEVERITY.get(prev, 0):
                    trace_class[traces[i]] = cls
            worst = rec.get("worst_class", CONVERGED)
            if worst != CONVERGED and rec.get("flush_id") not in chaos_flushes:
                bad_flushes.append(
                    {
                        "source": ATTR_CONVERGENCE,
                        "fault_class": worst,
                        "flush_id": rec.get("flush_id", ""),
                        "shard": shard,
                        "solver": rec.get("solver", ""),
                        "trace_id": (
                            traces[rec["worst_index"]]
                            if traces and rec.get("worst_index", 0) < len(traces)
                            else None
                        ),
                        "trace_ids": traces,
                        "worst_curve": rec.get("worst_curve"),
                    }
                )
    incidents.extend(bad_flushes)

    # failure attribution: infrastructure (victim of a fault) beats
    # convergence (the request's own numerics went bad) beats nothing
    trace_fault: dict[str, dict] = {}
    for incident in incidents:
        if incident["source"] != ATTR_INFRASTRUCTURE:
            continue
        for tid in incident.get("trace_ids", []):
            trace_fault.setdefault(tid, incident)
    failures: list[dict[str, Any]] = []
    seen_failures: set[tuple] = set()
    attribution_counts = {
        ATTR_INFRASTRUCTURE: 0,
        ATTR_CONVERGENCE: 0,
        ATTR_UNATTRIBUTED: 0,
    }
    for bundle in bundles:
        shard = _shard_of(bundle)
        for ev in bundle["events"]:
            if ev.get("type") not in FAILURE_EVENTS:
                continue
            tid = ev.get("trace_id")
            key = (ev.get("type"), tid, ev.get("ts_ns"))
            if key in seen_failures:
                continue
            seen_failures.add(key)
            fields = ev.get("fields", {})
            if tid in trace_fault:
                attribution = ATTR_INFRASTRUCTURE
                fault_class = trace_fault[tid]["fault_class"]
            elif tid in trace_class:
                attribution = ATTR_CONVERGENCE
                fault_class = trace_class[tid]
            else:
                attribution = ATTR_UNATTRIBUTED
                fault_class = fields.get("error", "")
            attribution_counts[attribution] += 1
            failures.append(
                {
                    "type": ev.get("type"),
                    "trace_id": tid,
                    "shard": shard,
                    "ts_ns": ev.get("ts_ns"),
                    "error": fields.get("error", ""),
                    "status_code": fields.get("status_code"),
                    "attribution": attribution,
                    "fault_class": fault_class,
                }
            )

    total_failures = len(failures)
    attributed = total_failures - attribution_counts[ATTR_UNATTRIBUTED]
    incidents.sort(key=lambda inc: (inc.get("ts_ns") or 0, inc.get("flush_id") or ""))
    return {
        "bundles": [
            {
                "path": b["path"],
                "shard": _shard_of(b),
                "reason": b["manifest"].get("reason"),
                "trace_id": b["manifest"].get("trace_id"),
                "counts": b["manifest"].get("counts", {}),
            }
            for b in bundles
        ],
        "incidents": incidents,
        "failures": failures,
        "class_counts": class_counts,
        "attribution_counts": attribution_counts,
        "attributed_fraction": (attributed / total_failures) if total_failures else 1.0,
    }


def render_analysis(analysis: dict[str, Any]) -> str:
    """The human-facing markdown/ASCII report for :func:`analyze_bundles`."""
    from repro.bench.report import format_table

    lines = ["# Postmortem analysis", ""]
    lines.append(
        format_table(
            [
                {
                    "bundle": Path(b["path"]).name,
                    "shard": b["shard"],
                    "reason": b["reason"],
                    "pinned_trace": _short(b["trace_id"]),
                    "events": b["counts"].get("events", 0),
                    "flushes": b["counts"].get("flushes", 0),
                }
                for b in analysis["bundles"]
            ],
            title="## Bundles",
        )
    )
    lines.append("")
    incidents = analysis["incidents"]
    if incidents:
        lines.append(
            format_table(
                [
                    {
                        "source": inc["source"],
                        "class": inc["fault_class"],
                        "flush": _short(inc.get("flush_id")),
                        "shard": inc.get("shard", ""),
                        "worker": inc.get("worker", ""),
                        "trace": _short(inc.get("trace_id")),
                        "victims": len(inc.get("trace_ids", [])),
                    }
                    for inc in incidents
                ],
                title=f"## Incidents ({len(incidents)})",
            )
        )
    else:
        lines.append("## Incidents\n(none)")
    lines.append("")
    counts = analysis["attribution_counts"]
    lines.append(
        format_table(
            [
                {
                    "failures": len(analysis["failures"]),
                    "infrastructure": counts[ATTR_INFRASTRUCTURE],
                    "convergence": counts[ATTR_CONVERGENCE],
                    "unattributed": counts[ATTR_UNATTRIBUTED],
                    "attributed_pct": f"{100.0 * analysis['attributed_fraction']:.1f}",
                }
            ],
            title="## Failure attribution",
        )
    )
    lines.append("")
    if analysis["class_counts"]:
        lines.append(
            format_table(
                [
                    {"class": cls, "systems": n}
                    for cls, n in sorted(analysis["class_counts"].items())
                ],
                title="## Convergence class mix",
            )
        )
    else:
        lines.append("## Convergence class mix\n(no flush records)")
    return "\n".join(lines) + "\n"


# -- timeline -----------------------------------------------------------------


def timeline_rows(
    bundles: list[dict[str, Any]], limit: int | None = None
) -> list[dict[str, Any]]:
    """The merged cross-shard event stream, oldest first.

    Events from every bundle are deduplicated (two dumps of the same
    ring overlap) and ordered by their monotonic ``ts_ns``; rows carry
    the owning shard so interleavings across shards read directly.
    """
    merged: dict[tuple, dict[str, Any]] = {}
    for bundle in bundles:
        shard = _shard_of(bundle)
        for ev in bundle["events"]:
            key = (ev.get("ts_ns"), ev.get("type"), ev.get("trace_id"))
            if key not in merged:
                merged[key] = {"shard": shard, "event": ev}
    ordered = sorted(merged.values(), key=lambda row: row["event"].get("ts_ns") or 0)
    if limit is not None and len(ordered) > limit:
        ordered = ordered[-limit:]
    if not ordered:
        return []
    t0 = ordered[0]["event"].get("ts_ns") or 0
    rows = []
    for row in ordered:
        ev = row["event"]
        fields = ev.get("fields", {})
        detail = ", ".join(
            f"{k}={_compact(v)}"
            for k, v in list(fields.items())[:4]
        )
        rows.append(
            {
                "t_ms": f"{((ev.get('ts_ns') or 0) - t0) / 1e6:+.3f}",
                "shard": row["shard"],
                "type": ev.get("type", ""),
                "trace": _short(ev.get("trace_id")),
                "keep": ev.get("keep", ""),
                "detail": detail,
            }
        )
    return rows


def render_timeline(bundles: list[dict[str, Any]], limit: int | None = None) -> str:
    """ASCII timeline report for :func:`timeline_rows`."""
    from repro.bench.report import format_table

    rows = timeline_rows(bundles, limit=limit)
    names = ", ".join(sorted({_shard_of(b) for b in bundles}))
    title = f"# Incident timeline — shards: {names} ({len(rows)} events)"
    if not rows:
        return title + "\n(no events)\n"
    return format_table(rows, title=title) + "\n"


# -- diff ---------------------------------------------------------------------


def _event_counts(bundle: dict[str, Any]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ev in bundle["events"]:
        counts[ev.get("type", "?")] = counts.get(ev.get("type", "?"), 0) + 1
    return counts


def _class_counts(bundle: dict[str, Any]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in bundle["flushes"]:
        for cls, n in rec.get("class_counts", {}).items():
            counts[cls] = counts.get(cls, 0) + int(n)
    return counts


def _trigger_counts(bundle: dict[str, Any]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for trig in bundle["triggers"]:
        counts[trig.get("reason", "?")] = counts.get(trig.get("reason", "?"), 0) + 1
    return counts


def _final_metrics(bundle: dict[str, Any]) -> dict[str, float]:
    finals: dict[str, float] = {}
    for rec in bundle["metrics"]:
        for name, value in rec.get("deltas", {}).items():
            finals[name] = value
    return finals


def diff_bundles(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """What changed from bundle ``a`` to bundle ``b`` (counts and metrics)."""

    def table(left: dict, right: dict) -> list[dict[str, Any]]:
        keys = sorted(set(left) | set(right))
        rows = []
        for key in keys:
            lv, rv = left.get(key, 0), right.get(key, 0)
            if lv != rv:
                rows.append({"key": key, "a": lv, "b": rv, "delta": rv - lv})
        return rows

    return {
        "a": {"path": a["path"], "shard": _shard_of(a), "reason": a["manifest"].get("reason")},
        "b": {"path": b["path"], "shard": _shard_of(b), "reason": b["manifest"].get("reason")},
        "events": table(_event_counts(a), _event_counts(b)),
        "classes": table(_class_counts(a), _class_counts(b)),
        "triggers": table(_trigger_counts(a), _trigger_counts(b)),
        "metrics": table(_final_metrics(a), _final_metrics(b)),
    }


def render_diff(diff: dict[str, Any]) -> str:
    """ASCII report for :func:`diff_bundles`."""
    from repro.bench.report import format_table

    lines = [
        "# Bundle diff",
        f"a: {diff['a']['path']} (shard={diff['a']['shard']}, reason={diff['a']['reason']})",
        f"b: {diff['b']['path']} (shard={diff['b']['shard']}, reason={diff['b']['reason']})",
        "",
    ]
    for section in ("events", "classes", "triggers", "metrics"):
        rows = diff[section]
        if rows:
            lines.append(format_table(rows, title=f"## {section}"))
        else:
            lines.append(f"## {section}\n(no differences)")
        lines.append("")
    return "\n".join(lines)


# -- small renderers ----------------------------------------------------------


def _short(value: Any) -> str:
    text = str(value) if value else ""
    return text[:10]


def _compact(value: Any) -> str:
    text = str(value)
    return text if len(text) <= 24 else text[:21] + "..."

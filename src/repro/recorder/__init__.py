"""repro.recorder — black-box flight recording and convergence forensics.

Three pieces, layered bottom-up:

* :mod:`repro.recorder.classify` — pure-numpy classification of what a
  batched solve did (converged / breakdown / stagnation / divergence /
  NaN residual) from its residual trajectories.
* :mod:`repro.recorder.recorder` — the always-on, bounded
  :class:`FlightRecorder`: ring buffers of recent events, solved
  flushes and metric deltas, dumped to a schema-versioned bundle
  (:mod:`repro.recorder.bundle`) when a trigger fires.
* :mod:`repro.recorder.postmortem` — cross-shard analysis over one or
  more bundles (``python -m repro postmortem {analyze,timeline,diff}``).

Nothing in this package imports the telemetry or serving layers: the
event log taps *into* the recorder, so the recorder must sit below it
in the import graph.
"""

from repro.recorder.bundle import (
    BUNDLE_KIND,
    BUNDLE_SCHEMA_VERSION,
    find_bundles,
    is_bundle,
    load_bundle,
    write_bundle,
)
from repro.recorder.classify import (
    BREAKDOWN,
    CLASSES,
    CONVERGED,
    CURVE_POINTS,
    DIVERGENCE,
    NAN_RESIDUAL,
    STAGNATION,
    classify_curve,
    classify_history,
    downsample_curve,
    solve_summary,
)
from repro.recorder.postmortem import (
    analyze_bundles,
    diff_bundles,
    load_bundles,
    render_analysis,
    render_diff,
    render_timeline,
    timeline_rows,
)
from repro.recorder.recorder import (
    TRIGGER_BREAKER_OPEN,
    TRIGGER_CHAOS_FAULT,
    TRIGGER_ERROR_5XX,
    TRIGGER_MANUAL,
    TRIGGER_REASONS,
    TRIGGER_SANITIZER_TRIP,
    TRIGGER_SLO_BURN,
    FlightRecorder,
)

__all__ = [
    "FlightRecorder",
    "TRIGGER_ERROR_5XX",
    "TRIGGER_SANITIZER_TRIP",
    "TRIGGER_BREAKER_OPEN",
    "TRIGGER_SLO_BURN",
    "TRIGGER_CHAOS_FAULT",
    "TRIGGER_MANUAL",
    "TRIGGER_REASONS",
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_KIND",
    "write_bundle",
    "load_bundle",
    "is_bundle",
    "find_bundles",
    "CONVERGED",
    "BREAKDOWN",
    "STAGNATION",
    "DIVERGENCE",
    "NAN_RESIDUAL",
    "CLASSES",
    "CURVE_POINTS",
    "classify_curve",
    "classify_history",
    "downsample_curve",
    "solve_summary",
    "load_bundles",
    "analyze_bundles",
    "render_analysis",
    "timeline_rows",
    "render_timeline",
    "diff_bundles",
    "render_diff",
]

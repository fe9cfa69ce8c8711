"""Cross-shard postmortem: attribution, timeline merge, and bundle diff.

Bundles here are synthesized directly through ``write_bundle`` so every
join (flush -> victims, trace -> convergence class, failure ->
attribution) is exercised with known ground truth.
"""

import pytest

from repro.recorder.bundle import write_bundle
from repro.recorder.postmortem import (
    ATTR_CONVERGENCE,
    ATTR_INFRASTRUCTURE,
    ATTR_UNATTRIBUTED,
    analyze_bundles,
    diff_bundles,
    load_bundles,
    render_analysis,
    render_diff,
    render_timeline,
    timeline_rows,
)


def _event(type, trace_id, ts_ns, **fields):
    return {
        "schema_version": 1,
        "type": type,
        "ts_ns": ts_ns,
        "trace_id": trace_id,
        "span_id": None,
        "request_id": trace_id,
        "keep": "tail",
        "fields": fields,
    }


def _chaos_bundle(tmp_path, name="shard-a"):
    """A shard that lost flush f1 to an injected worker death.

    The faulted flush never solved, so no flush record names its
    victims: the chaos trigger does.
    """
    events = [
        _event("request.admitted", "t1", 100, solver="cg"),
        _event("request.admitted", "t2", 110, solver="cg"),
        _event("chaos.injected", None, 120, kind="worker_die", flush_id="f1", flush_index=0),
        _event("request.failed", "t1", 200, error="WorkerDiedError", status_code=503),
        _event("request.failed", "t2", 210, error="WorkerDiedError", status_code=503),
    ]
    triggers = [
        {
            "ts": 1.0,
            "reason": "chaos_fault",
            "trace_id": "t1",
            "kind": "worker_die",
            "flush_id": "f1",
            "trace_ids": ["t1", "t2"],
        }
    ]
    return write_bundle(
        tmp_path / name,
        {"events": events, "triggers": triggers},
        reason="chaos_fault",
        trace_id="t1",
        shard=name,
    )


def _divergence_bundle(tmp_path, name="shard-b"):
    """A shard whose flush f2 failed on its own numerics (divergence).

    Its one flush record carries both the forensics and the victims.
    """
    events = [
        _event("request.admitted", "t3", 300, solver="bicgstab"),
        _event("request.failed", "t3", 400, error="SolveFailedError", status_code=500),
    ]
    flushes = [
        {
            "ts": 2.0,
            "flush_id": "f2",
            "reason": "size",
            "worker": "serve-worker-0",
            "solve_ms": 1.5,
            "solver": "bicgstab",
            "classes": ["divergence"],
            "class_counts": {"divergence": 1},
            "trace_ids": ["t3"],
            "worst_index": 0,
            "worst_class": "divergence",
            "worst_curve": [1.0, 100.0],
        }
    ]
    return write_bundle(
        tmp_path / name,
        {"events": events, "flushes": flushes},
        reason="error_5xx",
        trace_id="t3",
        shard=name,
    )


def _v1_divergence_bundle(tmp_path, name="shard-v1"):
    """``_divergence_bundle``'s story in the v1 layout, written by hand.

    v1 rang a flush's facts and its convergence forensics as two
    records in two streams (``flushes`` and ``solves``) and logged a
    ``request.flushed`` event per request. Flush f3's facts were
    evicted from the ring; only its forensics survive.
    """
    import json

    path = tmp_path / name
    path.mkdir()
    streams = {
        "events": [
            _event("request.admitted", "t3", 300, solver="bicgstab"),
            _event("request.flushed", "t3", 310, flush_id="f2", reason="size"),
            _event("request.failed", "t3", 400, error="SolveFailedError", status_code=500),
        ],
        "flushes": [
            {
                "ts": 2.0,
                "flush_id": "f2",
                "reason": "size",
                "batch_size": 1,
                "worker": "serve-worker-0",
                "solver": "bicgstab",
                "solve_ms": 1.5,
                "cache_hit": False,
                "trace_ids": ["t3"],
            }
        ],
        "solves": [
            {
                "ts": 2.1,
                "flush_id": "f2",
                "solver": "bicgstab",
                "classes": ["divergence"],
                "class_counts": {"divergence": 1},
                "trace_ids": ["t3"],
                "worst_index": 0,
                "worst_class": "divergence",
                "worst_curve": [1.0, 100.0],
            },
            {
                "ts": 2.5,
                "flush_id": "f3",
                "solver": "cg",
                "classes": ["converged", "converged"],
                "class_counts": {"converged": 2},
                "trace_ids": ["t4", "t5"],
                "worst_index": 0,
                "worst_class": "converged",
            },
        ],
        "metrics": [],
        "triggers": [],
    }
    for stream, records in streams.items():
        with (path / f"{stream}.jsonl").open("w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
    manifest = {
        "schema_version": 1,
        "kind": "repro.recorder.bundle",
        "recorder_schema_version": 1,
        "reason": "error_5xx",
        "trace_id": "t3",
        "shard": name,
        "created_unix": 0.0,
        "counts": {stream: len(records) for stream, records in streams.items()},
        "streams": {stream: f"{stream}.jsonl" for stream in streams},
    }
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


class TestAnalyze:
    def test_infrastructure_attribution_via_trace_join(self, tmp_path):
        _chaos_bundle(tmp_path)
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert len(analysis["incidents"]) == 1
        incident = analysis["incidents"][0]
        assert incident["source"] == ATTR_INFRASTRUCTURE
        assert incident["fault_class"] == "worker_die"
        assert incident["trace_ids"] == ["t1", "t2"]
        assert incident["trace_id"] == "t1"  # the pinned victim
        # both co-batched failures blamed on the injected fault
        assert analysis["attribution_counts"][ATTR_INFRASTRUCTURE] == 2
        assert analysis["attributed_fraction"] == 1.0

    def test_convergence_attribution(self, tmp_path):
        _divergence_bundle(tmp_path)
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert analysis["class_counts"] == {"divergence": 1}
        [incident] = analysis["incidents"]
        assert incident["source"] == ATTR_CONVERGENCE
        assert incident["fault_class"] == "divergence"
        assert incident["trace_id"] == "t3"
        [failure] = analysis["failures"]
        assert failure["attribution"] == ATTR_CONVERGENCE
        assert failure["fault_class"] == "divergence"

    def test_v1_bundle_folds_its_solves_into_flush_records(self, tmp_path):
        from repro.recorder.bundle import load_bundle

        bundle = load_bundle(_v1_divergence_bundle(tmp_path))
        assert "solves" not in bundle
        f2, f3 = bundle["flushes"]
        assert (f2["flush_id"], f2["reason"], f2["ts"]) == ("f2", "size", 2.0)
        assert f2["worst_class"] == "divergence"  # forensics folded in
        assert f3["flush_id"] == "f3" and f3["class_counts"] == {"converged": 2}
        analysis = analyze_bundles([bundle])
        assert analysis["class_counts"] == {"divergence": 1, "converged": 2}
        [incident] = analysis["incidents"]
        assert incident["source"] == ATTR_CONVERGENCE
        assert incident["fault_class"] == "divergence"
        [failure] = analysis["failures"]
        assert failure["attribution"] == ATTR_CONVERGENCE
        # diff reads the same folded records
        diff = diff_bundles(load_bundle(_divergence_bundle(tmp_path)), bundle)
        assert {row["key"] for row in diff["classes"]} == {"converged"}

    def test_cross_shard_merge_keeps_both_stories(self, tmp_path):
        _chaos_bundle(tmp_path, "shard-a")
        _divergence_bundle(tmp_path, "shard-b")
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert len(analysis["bundles"]) == 2
        assert {inc["source"] for inc in analysis["incidents"]} == {
            ATTR_INFRASTRUCTURE,
            ATTR_CONVERGENCE,
        }
        counts = analysis["attribution_counts"]
        assert counts[ATTR_INFRASTRUCTURE] == 2
        assert counts[ATTR_CONVERGENCE] == 1
        assert counts[ATTR_UNATTRIBUTED] == 0
        assert analysis["attributed_fraction"] == 1.0

    def test_overlapping_dumps_deduplicate(self, tmp_path):
        # two dumps of the same ring: same events, same trigger
        _chaos_bundle(tmp_path, "dump-1")
        _chaos_bundle(tmp_path, "dump-2")
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert len(analysis["incidents"]) == 1
        assert len(analysis["failures"]) == 2  # t1 and t2, once each

    def test_unattributed_failure_counted_honestly(self, tmp_path):
        events = [_event("request.timed_out", "t9", 500, error="RequestTimeoutError")]
        write_bundle(tmp_path / "b", {"events": events}, reason="manual", shard="s")
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert analysis["attribution_counts"][ATTR_UNATTRIBUTED] == 1
        assert analysis["attributed_fraction"] == 0.0

    def test_no_failures_is_fully_attributed(self, tmp_path):
        write_bundle(tmp_path / "b", {}, reason="manual", shard="s")
        analysis = analyze_bundles(load_bundles([tmp_path]))
        assert analysis["failures"] == []
        assert analysis["attributed_fraction"] == 1.0

    def test_load_bundles_rejects_empty_path(self, tmp_path):
        with pytest.raises(ValueError):
            load_bundles([tmp_path / "nothing-here"])

    def test_render_analysis_mentions_the_verdict(self, tmp_path):
        _chaos_bundle(tmp_path)
        text = render_analysis(analyze_bundles(load_bundles([tmp_path])))
        assert "worker_die" in text
        assert "Failure attribution" in text
        assert "100.0" in text


class TestTimeline:
    def test_merged_ordering_and_dedup(self, tmp_path):
        _chaos_bundle(tmp_path, "shard-a")
        _divergence_bundle(tmp_path, "shard-b")
        rows = timeline_rows(load_bundles([tmp_path]))
        assert len(rows) == 7  # 5 + 2, no overlap
        assert [r["shard"] for r in rows[:3]] == ["shard-a"] * 3
        assert rows[0]["t_ms"] == "+0.000"
        assert rows[-1]["type"] == "request.failed"
        # same bundles loaded twice: no duplicate rows
        twice = timeline_rows(load_bundles([tmp_path, tmp_path]))
        assert len(twice) == 7

    def test_limit_keeps_the_tail(self, tmp_path):
        _chaos_bundle(tmp_path)
        rows = timeline_rows(load_bundles([tmp_path]), limit=2)
        assert len(rows) == 2
        assert all(r["type"] == "request.failed" for r in rows)

    def test_render_timeline_empty_bundle(self, tmp_path):
        write_bundle(tmp_path / "b", {}, reason="manual", shard="s")
        text = render_timeline(load_bundles([tmp_path]))
        assert "(no events)" in text


class TestDiff:
    def test_diff_surfaces_what_changed(self, tmp_path):
        a = _chaos_bundle(tmp_path, "before")
        b = _divergence_bundle(tmp_path, "after")
        from repro.recorder.bundle import load_bundle

        diff = diff_bundles(load_bundle(a), load_bundle(b))
        events = {row["key"]: row for row in diff["events"]}
        assert events["chaos.injected"]["delta"] == -1
        assert events["request.failed"]["delta"] == -1  # 2 -> 1
        classes = {row["key"]: row for row in diff["classes"]}
        assert classes["divergence"]["delta"] == 1
        triggers = {row["key"]: row for row in diff["triggers"]}
        assert triggers["chaos_fault"]["delta"] == -1
        text = render_diff(diff)
        assert "chaos.injected" in text and "divergence" in text

    def test_identical_bundles_diff_empty(self, tmp_path):
        from repro.recorder.bundle import load_bundle

        path = _chaos_bundle(tmp_path)
        diff = diff_bundles(load_bundle(path), load_bundle(path))
        assert diff["events"] == [] and diff["classes"] == []
        assert "(no differences)" in render_diff(diff)

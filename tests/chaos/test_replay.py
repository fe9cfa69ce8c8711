"""Trace building, the replay format, and SLO-scored replay runs."""

import json

import numpy as np
import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.chaos.replay import (
    DEFAULT_TENANTS,
    ReplayItem,
    TenantSpec,
    _latency_percentiles,
    build_trace,
    load_trace,
    run_replay,
    save_trace,
    trace_requests,
)
from repro.observability.metrics import MetricsRegistry
from repro.serve import ServeConfig, SolverService
from repro.telemetry.hub import TelemetryHub
from repro.workloads.arrivals import diurnal_offsets


class TestDiurnalOffsets:
    def test_offsets_are_sorted_and_anchored(self):
        rng = np.random.default_rng(0)
        offsets = diurnal_offsets(100.0, 200, rng, period_s=2.0)
        assert offsets.shape == (200,)
        assert offsets[0] == 0.0
        assert np.all(np.diff(offsets) >= 0)

    def test_rate_modulation_is_visible(self):
        # the first half-period runs above the base rate, the second below:
        # more arrivals land in the peak half-cycle than in the trough
        rng = np.random.default_rng(1)
        period = 4.0
        offsets = diurnal_offsets(200.0, 800, rng, period_s=period, depth=0.9)
        phase = (offsets % period) / period
        peak = np.sum(phase < 0.5)
        trough = np.sum(phase >= 0.5)
        assert peak > 1.5 * trough

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="depth"):
            diurnal_offsets(10.0, 4, rng, depth=1.0)
        with pytest.raises(ValueError, match="period_s"):
            diurnal_offsets(10.0, 4, rng, period_s=0.0)


class TestBuildTrace:
    def test_deterministic_in_the_seed(self):
        a = build_trace(seed=5, num_requests=50, rate_rps=100.0)
        b = build_trace(seed=5, num_requests=50, rate_rps=100.0)
        assert a == b
        c = build_trace(seed=6, num_requests=50, rate_rps=100.0)
        assert a != c

    def test_tenant_mix_follows_weights(self):
        trace = build_trace(seed=0, num_requests=600, rate_rps=100.0)
        counts = {t.name: 0 for t in DEFAULT_TENANTS}
        for item in trace:
            counts[item.tenant] += 1
        # weights 5:3:2 over 600 draws — free must dominate enterprise
        assert counts["free"] > counts["pro"] > counts["enterprise"]

    def test_priority_inherited_from_tenant(self):
        trace = build_trace(seed=0, num_requests=100, rate_rps=100.0)
        priority_of = {t.name: t.priority for t in DEFAULT_TENANTS}
        assert all(item.priority == priority_of[item.tenant] for item in trace)

    def test_mechanisms_and_keys_mix(self):
        trace = build_trace(seed=0, num_requests=200, rate_rps=100.0, num_keys=4)
        assert {item.solver for item in trace} == {"cg", "bicgstab"}
        assert {item.key for item in trace} == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError, match="pattern"):
            build_trace(seed=0, num_requests=4, rate_rps=10.0, pattern="square-wave")
        with pytest.raises(ValueError, match="tenant"):
            build_trace(seed=0, num_requests=4, rate_rps=10.0, tenants=())
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=0.0)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        trace = build_trace(seed=3, num_requests=40, rate_rps=100.0, pattern="bursty")
        path = save_trace(trace, tmp_path / "trace.jsonl")
        assert load_trace(path) == trace

    def test_header_validates_kind_and_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "something_else", "schema_version": 1}) + "\n")
        with pytest.raises(ValueError, match="not a replay trace"):
            load_trace(path)
        trace = build_trace(seed=0, num_requests=4, rate_rps=10.0)
        good = save_trace(trace, tmp_path / "good.jsonl")
        lines = good.read_text().splitlines()
        (tmp_path / "truncated.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="declares"):
            load_trace(tmp_path / "truncated.jsonl")

    def test_item_round_trip(self):
        item = ReplayItem(offset_s=1.5, tenant="pro", priority="normal",
                          solver="cg", key=2)
        assert ReplayItem.from_dict(item.to_dict()) == item


class TestTraceRequests:
    def test_requests_match_items(self):
        trace = build_trace(seed=1, num_requests=30, rate_rps=100.0, num_keys=3)
        requests = trace_requests(trace, seed=1, size=16)
        for item, request in zip(trace, requests):
            assert request.tenant == item.tenant
            assert request.priority == item.priority
            assert request.solver == item.solver
            assert request.max_iterations == 500 + item.key

    def test_cg_systems_stay_symmetric(self):
        # the per-request perturbation is a congruence D A D: symmetry
        # (hence SPD for the stencil) must survive, or cg replays would
        # report phantom fallbacks
        trace = build_trace(seed=1, num_requests=5, rate_rps=100.0)
        for request in trace_requests(trace, seed=1, size=12):
            import scipy.sparse as sp

            matrix = sp.csr_matrix(
                (request.values, request.col_idxs, request.row_ptrs), shape=(12, 12)
            )
            assert abs(matrix - matrix.T).max() < 1e-12


class TestLatencyRollup:
    def test_percentiles_come_from_the_merged_histogram(self):
        # 100 requests at 1 ms on one registry, 10 at 100 ms on another:
        # a count-weighted mean of the two p50s reads about 10 ms, which
        # no request took; the merged buckets put p50 at about 1 ms
        hub = TelemetryHub()
        for value, count in ((1.0, 100), (100.0, 10)):
            registry = MetricsRegistry()
            registry.log_histogram("serve.latency_hdr_ms").observe_many([value] * count)
            hub.register(registry)
        p50, p99 = _latency_percentiles(hub)
        assert p50 == pytest.approx(1.0, rel=0.2)
        assert p99 == pytest.approx(100.0, rel=0.2)

    def test_no_samples_reads_zero(self):
        hub = TelemetryHub()
        hub.register(MetricsRegistry())
        assert _latency_percentiles(hub) == (0.0, 0.0)


class TestRunReplay:
    def _factory(self, chaos=None):
        config = ServeConfig(max_batch_size=8, max_wait_ms=2.0, num_workers=2)
        return lambda: SolverService(config, chaos=chaos)

    def test_clean_replay_is_compliant(self):
        trace = build_trace(seed=7, num_requests=40, rate_rps=400.0)
        report = run_replay(trace, self._factory(), seed=7, result_timeout_s=30.0)
        assert report.total == 40
        assert report.completed == 40
        assert report.lost == 0
        assert report.fallbacks == 0
        assert report.slo_compliant, report.to_metrics()
        assert report.latency_p99_ms > 0.0
        assert sum(b["completed"] for b in report.per_tenant.values()) == 40

    def test_battery_replay_loses_nothing(self):
        trace = build_trace(seed=7, num_requests=40, rate_rps=400.0)
        chaos = ChaosInjector(FaultPlan.battery(seed=0))
        report = run_replay(trace, self._factory(chaos), seed=7, result_timeout_s=30.0)
        assert report.lost == 0
        assert report.completed + report.failed + report.rejected == report.total
        assert report.injected_total > 0
        assert report.injected == chaos.injected_by_kind()
        # structured failures only: nothing lands in the 500 bucket
        assert report.statuses.get(500, 0) == 0

    def test_to_metrics_is_flat_and_bench_ready(self):
        trace = build_trace(seed=7, num_requests=16, rate_rps=400.0)
        report = run_replay(trace, self._factory(), seed=7)
        metrics = report.to_metrics()
        assert metrics["lost_requests"] == 0
        assert metrics["slo_compliant"] is True
        assert all(
            isinstance(v, (int, float, bool)) for v in metrics.values()
        ), metrics

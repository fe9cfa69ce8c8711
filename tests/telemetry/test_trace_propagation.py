"""End-to-end request attribution through the serving layer.

The acceptance test of the telemetry layer: N concurrent requests go
through the micro-batcher, plan cache, worker pool and simulated kernel
launches, and afterwards every span and event that carries a trace id
carries exactly one of the N minted ids — and each request's full path
(batcher fan-in → plan lookup → launch → scatter) is reconstructable
from the flush span's links and span parentage alone.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.observability.tracer import Tracer
from repro.sanitize.report import SLM_RACE, SanitizerReport
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.telemetry import (
    REQUEST_ADMITTED,
    REQUEST_FALLBACK,
    REQUEST_SOLVED,
    SANITIZER_TRIP,
    mint_context,
    use_trace_context,
)

N = 8


def _tridiag(n, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _request(rng, n=10):
    return SolveRequest(
        _tridiag(n, rng.uniform(0.5, 2.0)),
        rng.standard_normal(n),
        solver="bicgstab",
        preconditioner="jacobi",
        tolerance=1e-8,
    )


@pytest.fixture(scope="module")
def served():
    """Solve N concurrent requests under a tracer; return the evidence."""
    tracer = Tracer()
    rng = np.random.default_rng(3)
    config = ServeConfig(max_batch_size=4, max_wait_ms=20.0, num_workers=2)
    with SolverService(config, tracer=tracer) as service:
        requests = [_request(rng) for _ in range(N)]
        tickets = [service.submit(r) for r in requests]
        outcomes = [t.result(timeout=30.0) for t in tickets]
        events = service.events
    return requests, outcomes, tracer, events


class TestAttribution:
    def test_outcomes_carry_their_request_identity(self, served):
        requests, outcomes, _tracer, _events = served
        for request, outcome in zip(requests, outcomes):
            assert outcome.trace_id == request.trace_context.trace_id
            assert outcome.request_id == request.request_id
        assert len({o.trace_id for o in outcomes}) == N

    def test_every_attributed_span_names_one_of_the_n_traces(self, served):
        requests, _outcomes, tracer, _events = served
        ids = {r.trace_context.trace_id for r in requests}
        attributed = [s for s in tracer.spans if s.trace_id is not None]
        assert attributed, "no spans carried a trace id"
        for span in attributed:
            assert span.trace_id in ids, f"{span.name} carries foreign id"

    def test_every_attributed_event_names_one_of_the_n_traces(self, served):
        requests, _outcomes, _tracer, events = served
        ids = {r.trace_context.trace_id for r in requests}
        records = events.records()
        assert records
        for rec in records:
            assert rec["trace_id"] in ids

    def test_flush_links_cover_every_request_exactly_once(self, served):
        requests, _outcomes, tracer, _events = served
        flushes = [s for s in tracer.spans if s.name == "serve.flush"]
        assert flushes
        linked = [link["trace_id"] for f in flushes for link in f.links]
        assert sorted(linked) == sorted(r.trace_context.trace_id for r in requests)
        # links point at the request's ROOT span id, the fan-in anchor
        by_trace = {r.trace_context.trace_id: r.trace_context for r in requests}
        for f in flushes:
            for link in f.links:
                assert link["span_id"] == by_trace[link["trace_id"]].span_id


def _ancestors(span):
    chain = []
    node = span.parent
    while node is not None:
        chain.append(node)
        node = node.parent
    return chain


class TestPathReconstruction:
    def test_batcher_plan_launch_scatter_chain(self, served):
        """From one request id alone, walk its whole journey."""
        requests, _outcomes, tracer, events = served
        flushes = [s for s in tracer.spans if s.name == "serve.flush"]
        for request in requests:
            tid = request.trace_context.trace_id

            # batcher fan-in: exactly one flush links this request
            (flush,) = [
                f for f in flushes if any(l["trace_id"] == tid for l in f.links)
            ]

            # plan-cache lookup and launch ran inside that flush
            plan_spans = [
                s
                for s in tracer.spans
                if s.name == "serve.plan" and flush in _ancestors(s)
            ]
            assert len(plan_spans) == 1
            assert "cache_hit" in plan_spans[0].args
            solve_spans = [
                s
                for s in tracer.spans
                if s.name == "serve.solve" and flush in _ancestors(s)
            ]
            assert len(solve_spans) == 1
            kernel_spans = [
                s
                for s in tracer.spans
                if s.category == "kernel" and flush in _ancestors(s)
            ]
            assert kernel_spans, "no simulated kernel launch under the flush"

            # scatter leg: the per-request span is pinned to this trace and
            # its parent_id is the request's ROOT span id
            (leg,) = [s for s in tracer.spans if s.trace_id == tid]
            assert leg.name == "serve.request"
            assert leg.parent_id == request.trace_context.span_id
            assert flush in _ancestors(leg)
            assert leg.args["flush_id"] == flush.args["flush_id"]

            # and the event log tells the same story: admitted, then solved
            types = [rec["type"] for rec in events.records_for(tid)]
            assert types == [REQUEST_ADMITTED, REQUEST_SOLVED]

    def test_flush_events_name_the_flush(self, served):
        requests, _outcomes, tracer, events = served
        legs = {s.trace_id: s for s in tracer.spans if s.name == "serve.request"}
        solved = [rec for rec in events.records() if rec["type"] == REQUEST_SOLVED]
        assert len(solved) == len(requests)
        for rec in solved:
            assert rec["fields"]["flush_id"] == legs[rec["trace_id"]].args["flush_id"]
            assert rec["fields"]["queue_wait_ms"] >= 0.0


class TestHeadSampling:
    def test_unsampled_service_drops_routine_events(self):
        rng = np.random.default_rng(5)
        config = ServeConfig(
            max_batch_size=4, max_wait_ms=20.0, num_workers=1, telemetry_sample_rate=0.0
        )
        with SolverService(config) as service:
            tickets = [service.submit(_request(rng)) for _ in range(4)]
            for t in tickets:
                assert t.result(timeout=30.0).converged
            assert len(service.events) == 0
            assert service.events.summary()["dropped_head"] > 0
            # the sampling decision is stamped back onto the request
            assert all(not t.trace_context.sampled for t in tickets)

    def test_sample_rate_is_deterministic_per_trace_id(self):
        config = ServeConfig(telemetry_sample_rate=0.5)
        with SolverService(config) as service:
            rng = np.random.default_rng(7)
            request = _request(rng)
            before = request.trace_context.trace_id
            service._stamp_sampling(request)
            decided = request.trace_context.sampled
            # re-stamping the same trace id gives the same verdict
            service._stamp_sampling(request)
            assert request.trace_context.sampled == decided
            assert request.trace_context.trace_id == before


class TestSanitizerVictims:
    def test_trip_report_names_every_victim_request(self, monkeypatch):
        """A trip aborting a shared flush stamps whose systems died."""
        rng = np.random.default_rng(9)
        config = ServeConfig(max_batch_size=4, max_wait_ms=50.0, num_workers=1)
        with SolverService(config) as service:
            report = SanitizerReport(
                kind=SLM_RACE,
                kernel="batch_bicgstab_fused",
                group_id=0,
                message="write/write race",
            )

            calls = {"n": 0}
            real_plan_for = service.plan_cache.plan_for

            def tripping_plan_for(key):
                calls["n"] += 1
                if calls["n"] == 1:
                    exc = RuntimeError(report.format())
                    exc.report = report
                    raise exc
                return real_plan_for(key)

            monkeypatch.setattr(service.plan_cache, "plan_for", tripping_plan_for)

            tickets = [service.submit(_request(rng)) for _ in range(4)]
            outcomes = [t.result(timeout=30.0) for t in tickets]
            events = service.events

        # every victim was rescued by the per-request fallback
        assert all(o.converged for o in outcomes)
        assert all(o.used_fallback for o in outcomes)

        # the report names every victim of the shared launch
        victims = {t.trace_context.trace_id for t in tickets}
        assert set(report.trace_ids) == victims
        assert set(report.request_ids) == {t.request.request_id for t in tickets}
        formatted = report.format()
        for request_id in report.request_ids:
            assert request_id in formatted

        # and the trip event is pinned with the same attribution
        trips = [r for r in events.records() if r["type"] == SANITIZER_TRIP]
        assert len(trips) == 1
        assert set(trips[0]["fields"]["trace_ids"]) == victims
        rescues = [r for r in events.records() if r["type"] == REQUEST_FALLBACK]
        assert {r["trace_id"] for r in rescues} == victims


class TestMultiFanIn:
    def test_distributed_solve_links_ambient_request(self):
        from repro.core.dispatch import BatchSolverFactory
        from repro.multi.comm import SimWorld
        from repro.multi.distributed import solve_distributed
        from repro.instruments import use
        from repro.workloads.stencil import stencil_rhs, three_point_stencil

        tracer = Tracer()
        ctx = mint_context()
        matrix = three_point_stencil(16, 4)
        rhs = stencil_rhs(16, 4)
        factory = BatchSolverFactory(
            solver="cg", preconditioner="jacobi", tolerance=1e-9
        )
        with use(tracer=tracer), use_trace_context(ctx):
            result = solve_distributed(SimWorld(2), factory, matrix, rhs)
        assert result.all_converged
        (multi_span,) = [s for s in tracer.spans if s.name == "multi.solve_distributed"]
        assert {"trace_id": ctx.trace_id, "span_id": ctx.span_id} in multi_span.links
        # rank lanes inherit the trace via parentage under the multi span
        lanes = [s for s in tracer.spans if s.category == "multi.lane"]
        assert len(lanes) == 2
        for lane in lanes:
            assert multi_span in _ancestors(lane)

"""SolverService end-to-end: correctness, backpressure, timeouts, fallback."""

import collections
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.instruments import use
from repro.observability.tracer import NULL_TRACER, Tracer, current_tracer
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.serve.plan_cache import ExecutionPlan
from repro.serve.request import TIMED_OUT


def _tridiag(n, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _dense_of(request):
    n = request.num_rows
    dense = np.zeros((n, n))
    for row in range(n):
        lo, hi = request.row_ptrs[row], request.row_ptrs[row + 1]
        dense[row, request.col_idxs[lo:hi]] = request.values[lo:hi]
    return dense


def _poisoned(n):
    """A nonsymmetric system on the tridiagonal pattern; CG cannot converge."""
    matrix = _tridiag(n)
    data = matrix.data.copy()
    off = data < 0
    data[off] = np.where(np.arange(off.sum()) % 2 == 0, 100.0, -99.0)
    matrix.data = data
    return matrix


class TestEndToEnd:
    def test_solutions_match_lu_reference(self):
        rng = np.random.default_rng(0)
        config = ServeConfig(max_batch_size=4, max_wait_ms=50.0, num_workers=2)
        with SolverService(config) as service:
            requests = [
                SolveRequest(
                    _tridiag(12, scale=rng.uniform(0.5, 2.0)),
                    rng.standard_normal(12),
                    solver="bicgstab",
                    preconditioner="jacobi",
                    tolerance=1e-10,
                )
                for _ in range(8)
            ]
            tickets = [service.submit(r) for r in requests]
            outcomes = [t.result(timeout=30.0) for t in tickets]
        for request, outcome in zip(requests, outcomes):
            assert outcome.converged
            reference = np.linalg.solve(_dense_of(request), request.b)
            np.testing.assert_allclose(outcome.x, reference, rtol=1e-6, atol=1e-8)
        # two full size-triggered flushes of 4
        assert all(o.batch_size == 4 for o in outcomes)

    def test_incompatible_configs_get_separate_batches(self):
        rng = np.random.default_rng(1)
        config = ServeConfig(max_batch_size=16, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            loose = [
                service.submit(
                    SolveRequest(_tridiag(8), rng.standard_normal(8), tolerance=1e-4)
                )
                for _ in range(3)
            ]
            tight = [
                service.submit(
                    SolveRequest(_tridiag(8), rng.standard_normal(8), tolerance=1e-10)
                )
                for _ in range(2)
            ]
            service.flush()
            loose_outcomes = [t.result(timeout=30.0) for t in loose]
            tight_outcomes = [t.result(timeout=30.0) for t in tight]
        assert all(o.batch_size == 3 for o in loose_outcomes)
        assert all(o.batch_size == 2 for o in tight_outcomes)

    def test_deadline_flush_serves_partial_batch(self):
        config = ServeConfig(max_batch_size=64, max_wait_ms=5.0, num_workers=1)
        with SolverService(config) as service:
            ticket = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            outcome = ticket.result(timeout=30.0)
        assert outcome.converged and outcome.batch_size == 1
        assert service.metrics.counter("serve.flushes.deadline").value >= 1

    def test_plan_cache_accounting_across_flushes(self):
        config = ServeConfig(max_batch_size=2, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            tickets = [
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
                for _ in range(8)  # four size flushes, one compatibility class
            ]
            for ticket in tickets:
                ticket.result(timeout=30.0)
            assert service.plan_cache.misses == 1
            assert service.plan_cache.hits == 3
            assert service.plan_cache.hit_rate == 0.75
            hits = [t.result(timeout=1.0).plan_cache_hit for t in tickets]
        assert sum(1 for h in hits if not h) == 2  # the first flush's requests

    def test_tracer_records_serve_spans(self):
        tracer = Tracer()
        config = ServeConfig(max_batch_size=2, max_wait_ms=500.0, num_workers=1)
        with SolverService(config, tracer=tracer) as service:
            for _ in range(2):
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            service.wait_idle(timeout=30.0)
        names = {span.name for span in tracer.spans}
        assert {"serve.flush", "serve.assembly", "serve.solve", "serve.scatter"} <= names


class TestBackpressure:
    def test_submit_past_max_pending_rejected(self):
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=5000.0, max_pending=2, num_workers=1
        )
        service = SolverService(config)
        try:
            for _ in range(2):
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            with pytest.raises(ServiceSaturatedError) as excinfo:
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            assert excinfo.value.retry_after_s > 0
            assert service.metrics.counter("serve.rejected").value == 1
        finally:
            service.close()

    def test_capacity_frees_up_after_completion(self):
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=5000.0, max_pending=1, num_workers=1
        )
        with SolverService(config) as service:
            service.submit(SolveRequest(_tridiag(8), np.ones(8))).result(timeout=30.0)
            service.wait_idle(timeout=30.0)
            # pending slot released → next submit admitted
            service.submit(SolveRequest(_tridiag(8), np.ones(8))).result(timeout=30.0)

    def test_flush_release_keeps_pending_exact_under_contention(self):
        # four workers on two cores, three clients, three tenants and a
        # tiny switch interval: a lost update in a flush's one-pass release
        # would leave a pending count or a tenant gauge above zero
        config = ServeConfig(max_batch_size=4, max_wait_ms=1.0, num_workers=4)
        tickets = []
        lock = threading.Lock()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SolverService(config) as service:

                def client(tenant):
                    for _ in range(24):
                        ticket = service.submit(
                            SolveRequest(_tridiag(8), np.ones(8), tenant=tenant)
                        )
                        with lock:
                            tickets.append(ticket)

                clients = [
                    threading.Thread(target=client, args=(f"t{i}",)) for i in range(3)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                outcomes = [t.result(timeout=60.0) for t in tickets]
                assert service.wait_idle(timeout=30.0)
                assert service.pending == 0
                assert service.metrics.gauge("serve.pending").value == 0
                for i in range(3):
                    gauge = service.metrics.gauge("serve.tenant_pending")
                    assert gauge.labels(tenant=f"t{i}").value == 0
        finally:
            sys.setswitchinterval(old_interval)
        assert len(outcomes) == 72 and all(o.converged for o in outcomes)
        # every answer owns its x: none is a view into its flush's batch
        assert all(o.x.flags.owndata for o in outcomes)

    def test_answered_tickets_release_when_the_scatter_raises(self, monkeypatch, capsys):
        # completing a ticket can raise (a breaker opening dumps a recorder
        # bundle to disk); the tickets the scatter already answered must
        # still free their slots
        config = ServeConfig(max_batch_size=4, max_wait_ms=10_000.0, num_workers=1)
        with SolverService(config) as service:
            finish_ok = service._finish_ok
            calls = []

            def flaky_finish_ok(ticket, *args):
                calls.append(ticket)
                if len(calls) == 3:
                    raise RuntimeError("bundle write failed")
                finish_ok(ticket, *args)

            monkeypatch.setattr(service, "_finish_ok", flaky_finish_ok)
            tickets = [
                service.submit(SolveRequest(_tridiag(8), np.ones(8))) for _ in range(4)
            ]
            for ticket in tickets[:2]:
                assert ticket.result(timeout=30.0).converged
            service.pool.join()
            assert [t.done() for t in tickets] == [True, True, False, False]
            assert service.pending == 2  # exactly the two never answered
            assert service.metrics.gauge("serve.pending").value == 2
        assert "bundle write failed" in capsys.readouterr().err

    def test_submit_after_close_rejected(self):
        service = SolverService(ServeConfig(num_workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(SolveRequest(_tridiag(8), np.ones(8)))


class _Clock:
    """A settable stand-in for the service clock (integer nanoseconds)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class _Counting:
    """Forwards to ``target``, counting calls to the methods named in ``kinds``."""

    def __init__(self, target, label, calls, kinds) -> None:
        self._target, self._label, self._calls, self._kinds = target, label, calls, kinds

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if attr not in self._kinds:
            return value

        def counted(*args, **kwargs):
            self._calls[(self._label, attr)] += 1
            return value(*args, **kwargs)

        return counted


class _CountingRegistry:
    """A metrics registry whose instruments count their record calls."""

    WRITES = ("inc", "set", "add", "observe", "observe_many")

    def __init__(self, registry, calls) -> None:
        self._registry, self._calls = registry, calls

    def __getattr__(self, attr):
        make = getattr(self._registry, attr)
        if attr not in ("counter", "gauge", "log_histogram"):
            return make
        return lambda name: _Counting(make(name), name, self._calls, self.WRITES)


class _CountingCondition(_Counting):
    """A condition variable whose ``notify_all`` calls are counted."""

    def __enter__(self):
        return self._target.__enter__()

    def __exit__(self, *exc):
        return self._target.__exit__(*exc)


class TestPerFlushAccounting:
    def test_a_full_size_flush_writes_each_kind_once(self):
        """CI guard by count: one fold per flush, not one write per request."""
        calls = collections.Counter()
        config = ServeConfig(max_batch_size=64, max_wait_ms=60_000.0, num_workers=1)
        with SolverService(config) as service:
            service.metrics = _CountingRegistry(service.metrics, calls)
            service.breaker = _Counting(
                service.breaker, "breaker", calls, ("record", "record_many")
            )
            service._state = _CountingCondition(service._state, "state", calls, ("notify_all",))
            tickets = [service.submit(SolveRequest(_tridiag(8), np.ones(8)))]
            opened = calls[("state", "notify_all")]
            tickets += [service.submit(SolveRequest(_tridiag(8), np.ones(8))) for _ in range(62)]
            # offers that join the open bucket leave the flusher asleep
            assert calls[("state", "notify_all")] == opened
            tickets.append(service.submit(SolveRequest(_tridiag(8), np.ones(8))))
            outcomes = [t.result(timeout=60.0) for t in tickets]
            assert service.wait_idle(timeout=30.0)
        assert all(o.converged and o.batch_size == 64 for o in outcomes)
        for name in ("serve.latency_hdr_ms", "serve.queue_wait_hdr_ms"):
            assert calls[(name, "observe_many")] == 1, name
            assert calls[(name, "observe")] == 0, name
        assert calls[("serve.served", "inc")] == 1
        assert calls[("breaker", "record_many")] == 1
        assert calls[("breaker", "record")] == 0
        assert service.metrics.counter("serve.served").value == 64

    def test_tail_is_judged_against_the_p99_before_the_flush(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr("repro.serve.service.monotonic_ns", clock)
        # head sampling off: only critical events survive, so a request.solved
        # event exists exactly for the requests judged tail
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=60_000.0, num_workers=1,
            telemetry_sample_rate=0.0,
        )
        with SolverService(config) as service:
            hdr = service.metrics.log_histogram("serve.latency_hdr_ms")
            hdr.observe_many([10.0] * 100)
            assert hdr.percentile(99.0) == 10.0
            tickets = {}
            # latencies at 100 ms: 100, 10.2, 10.0 and 5 ms; folding the
            # first one in would lift p99 to its bucket midpoint, 10.37 ms
            for name, submitted_ms in (("slow", 0.0), ("above", 89.8), ("at", 90.0),
                                       ("fast", 95.0)):
                clock.now = round(submitted_ms * 1e6)
                tickets[name] = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            clock.now = 100_000_000
            service.flush()
            assert all(t.result(timeout=30.0).converged for t in tickets.values())
        solved = {
            r["trace_id"]: r for r in service.events.records() if r["type"] == "request.solved"
        }
        judged = {
            name for name, t in tickets.items() if t.trace_context.trace_id in solved
        }
        assert judged == {"slow", "above", "at"}
        assert all(r["fields"]["tail"] and r["keep"] == "tail" for r in solved.values())
        assert hdr.count == 104


class TestTimeout:
    def test_expired_request_fails_with_timeout_error(self):
        config = ServeConfig(
            max_batch_size=64,
            max_wait_ms=10_000.0,  # flusher never fires on its own
            num_workers=1,
            request_timeout_ms=1.0,
        )
        service = SolverService(config)
        try:
            ticket = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            time.sleep(0.02)  # let the 1 ms deadline lapse while queued
            service.flush()
            with pytest.raises(RequestTimeoutError):
                ticket.result(timeout=30.0)
            assert ticket.status == TIMED_OUT
            assert service.metrics.counter("serve.timeouts").value == 1
        finally:
            service.close()


class TestGracefulDegradation:
    def test_nonconvergent_request_falls_back_without_harming_batch(self):
        rng = np.random.default_rng(2)
        n = 12
        config = ServeConfig(max_batch_size=8, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            healthy = [
                service.submit(
                    SolveRequest(
                        _tridiag(n),
                        rng.standard_normal(n),
                        solver="cg",
                        preconditioner="jacobi",
                        max_iterations=40,
                    )
                )
                for _ in range(3)
            ]
            bad_request = SolveRequest(
                _poisoned(n),
                rng.standard_normal(n),
                solver="cg",
                preconditioner="jacobi",
                max_iterations=40,
            )
            assert bad_request.batch_key == healthy[0].request.batch_key
            bad = service.submit(bad_request)
            service.flush()
            bad_outcome = bad.result(timeout=30.0)
            healthy_outcomes = [t.result(timeout=30.0) for t in healthy]

        assert bad_outcome.used_fallback
        assert bad_outcome.solver_name == "direct"
        assert bad_outcome.converged
        reference = np.linalg.solve(_dense_of(bad_request), bad_request.b)
        np.testing.assert_allclose(bad_outcome.x, reference, rtol=1e-8)
        assert all(o.converged and not o.used_fallback for o in healthy_outcomes)
        assert all(o.batch_size == 4 for o in healthy_outcomes)
        assert service.metrics.counter("serve.fallbacks").value == 1
        assert service.metrics.counter("serve.failed").value == 0

    def test_fallback_disabled_reports_nonconvergence(self):
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=500.0, num_workers=1, fallback=False
        )
        with SolverService(config) as service:
            outcome = service.solve(
                SolveRequest(
                    _poisoned(12),
                    np.ones(12),
                    solver="cg",
                    preconditioner="jacobi",
                    max_iterations=40,
                ),
                timeout=30.0,
            )
        assert not outcome.converged
        assert not outcome.used_fallback
        assert service.metrics.counter("serve.fallbacks").value == 0


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        config = ServeConfig(max_batch_size=64, max_wait_ms=10_000.0, num_workers=1)
        service = SolverService(config)
        tickets = [
            service.submit(SolveRequest(_tridiag(8), np.ones(8))) for _ in range(3)
        ]
        service.close(drain=True)
        for ticket in tickets:
            assert ticket.result(timeout=1.0).converged
        assert service.pending == 0

    def test_close_is_idempotent(self):
        service = SolverService(ServeConfig(num_workers=1))
        service.close()
        service.close()


def _ancestors(span):
    chain = []
    while span.parent is not None:
        span = span.parent
        chain.append(span)
    return chain


def _kernel_span_under(tracer, flush):
    return any(s.category == "kernel" and flush in _ancestors(s) for s in tracer.spans)


class TestInstrumentCapture:
    """Flushes run under the observers captured when the service was built."""

    def test_concurrent_flushes_keep_their_tracer(self, monkeypatch):
        """The first flush to enter finishes while the second is mid-solve.

        Neither flush may take the other's tracer away, and nothing stays
        installed once the service is closed.
        """
        entered = {8: threading.Event(), 9: threading.Event()}
        release = {8: threading.Event(), 9: threading.Event()}
        build_solver = ExecutionPlan.build_solver

        def gated_build_solver(plan, matrix):
            entered[matrix.num_rows].set()
            assert release[matrix.num_rows].wait(30.0)
            return build_solver(plan, matrix)

        monkeypatch.setattr(ExecutionPlan, "build_solver", gated_build_solver)
        tracer = Tracer()
        config = ServeConfig(max_batch_size=1, max_wait_ms=60_000.0, num_workers=2)
        service = SolverService(config, tracer=tracer)
        try:
            first = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            assert entered[8].wait(30.0)
            second = service.submit(SolveRequest(_tridiag(9), np.ones(9)))
            assert entered[9].wait(30.0)  # both flushes are open now
            release[8].set()
            assert first.result(timeout=30.0).converged
            deadline = time.monotonic() + 30.0
            while sum(w.completed for w in service.pool.workers) < 1:
                assert time.monotonic() < deadline, "first flush never finished"
                time.sleep(0.001)
            release[9].set()  # the second flush solves after the first left
            assert second.result(timeout=30.0).converged
        finally:
            for event in release.values():
                event.set()
            service.close()
        flushes = [s for s in tracer.spans if s.name == "serve.flush"]
        assert len(flushes) == 2
        for flush in flushes:
            assert _kernel_span_under(tracer, flush), flush.args["num_rows"]
        assert current_tracer() is NULL_TRACER

    def test_deadline_flush_sees_tracer_installed_at_construction(self):
        tracer = Tracer()
        config = ServeConfig(max_batch_size=64, max_wait_ms=5.0, num_workers=1)
        with use(tracer=tracer):
            service = SolverService(config)
        with service:  # the flusher thread issues the flush, outside the scope
            outcome = service.submit(SolveRequest(_tridiag(8), np.ones(8))).result(30.0)
        assert outcome.converged
        (flush,) = [s for s in tracer.spans if s.name == "serve.flush"]
        assert flush.args["reason"] == "deadline"
        assert _kernel_span_under(tracer, flush)

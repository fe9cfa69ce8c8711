"""Streaming (HDR-style) latency metrics wired into the serve path."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.observability import LogHistogram, render_prometheus
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.serve.request import monotonic_ns


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


@pytest.fixture(scope="module")
def served_metrics():
    config = ServeConfig(max_batch_size=4, max_wait_ms=5.0, num_workers=1)
    with SolverService(config) as service:
        rng = np.random.default_rng(3)
        start = monotonic_ns()
        tickets = [
            service.submit(
                SolveRequest(
                    _tridiag(8),
                    rng.standard_normal(8),
                    solver="cg",
                    preconditioner="jacobi",
                    tolerance=1e-8,
                )
            )
            for _ in range(6)
        ]
        outcomes = [t.result(timeout=60.0) for t in tickets]
        elapsed_ms = (monotonic_ns() - start) / 1e6
        assert all(o.converged for o in outcomes)
        yield service.metrics, service.config, outcomes, elapsed_ms


def test_hdr_instruments_track_served_tickets(served_metrics):
    metrics, _, outcomes, elapsed_ms = served_metrics
    latency = metrics.log_histogram("serve.latency_hdr_ms")
    queue_wait = metrics.log_histogram("serve.queue_wait_hdr_ms")
    assert isinstance(latency, LogHistogram)
    assert latency.count == queue_wait.count == len(outcomes) > 0
    # a request's latency covers its queue wait and its flush's solve, and
    # ends inside the window the test held its ticket open
    floor = sum(o.queue_wait_ms + o.solve_ms for o in outcomes)
    assert floor <= latency.total <= len(outcomes) * elapsed_ms
    assert queue_wait.total == pytest.approx(sum(o.queue_wait_ms for o in outcomes))
    batch_size = metrics.log_histogram("serve.batch_size")
    assert batch_size.count == metrics.counter("serve.flushes").value
    assert batch_size.total == len(outcomes)
    assert metrics.log_histogram("serve.flush_solve_hdr_ms").count > 0


def test_flush_counter_labelled_by_backend_and_solver(served_metrics):
    metrics, config, *_ = served_metrics
    flushes = metrics.counter("serve.flush_solves")
    labelled = flushes.labels(backend=config.backend, solver="cg")
    assert labelled.value > 0


def test_prometheus_scrape_exposes_serve_instruments(served_metrics):
    metrics, config, *_ = served_metrics
    text = render_prometheus(metrics)
    assert "# TYPE serve_latency_hdr_ms histogram" in text
    assert 'serve_latency_hdr_ms_bucket{le="+Inf"}' in text
    assert "serve_latency_hdr_ms_count" in text
    assert (
        f'serve_flush_solves{{backend="{config.backend}",solver="cg"}}' in text
    )

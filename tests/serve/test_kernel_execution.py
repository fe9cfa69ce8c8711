"""``execution="kernel"``: flushes run on the fused device kernels.

Covers the kernel branch of ``SolverService._solve_batch``, which runs
the flush through :func:`repro.kernels.solve_fused` when the kernels
cover it: the fused CG/BiCGSTAB/Richardson kernels on the faithful
(``sycl``) and lockstep (``wide``) backends, and the vectorized fallback
for what the kernels do not cover (warm starts, CUDA devices).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.launch import LaunchConfigurator
from repro.kernels import queue_for
from repro.observability.tracer import Tracer
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.workloads.arrivals import stencil_pattern

N = 16
TOLERANCE = 1e-8


def _serve_one_flush(backend, solver, pattern=None, tracer=None, **request_kwargs):
    """Four requests, one size-triggered flush; returns (requests, outcomes, metrics)."""
    config = ServeConfig(
        max_batch_size=4,
        max_wait_ms=1000.0,
        num_workers=1,
        backend=backend,
        execution="kernel",
    )
    rng = np.random.default_rng(5)
    pattern = stencil_pattern(N) if pattern is None else pattern
    # scaled copies of one SPD stencil, one scale per request
    requests = [
        SolveRequest(
            pattern * rng.uniform(0.5, 2.0),
            rng.standard_normal(N),
            solver=solver,
            preconditioner="jacobi",
            tolerance=TOLERANCE,
            **request_kwargs,
        )
        for _ in range(4)
    ]
    with SolverService(config, tracer=tracer) as service:
        tickets = [service.submit(r) for r in requests]
        outcomes = [t.result(timeout=60.0) for t in tickets]
    return requests, outcomes, service.metrics


def _counter(metrics, name, **labels):
    return metrics.counter(name).labels(**labels).value


@pytest.mark.parametrize("backend", ["wide", "sycl"])
@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_flush_runs_on_the_fused_kernels(backend, solver):
    requests, outcomes, metrics = _serve_one_flush(backend, solver)
    assert _counter(metrics, "serve.kernel_solves", backend=backend, solver=solver) == 1
    assert _counter(metrics, "serve.kernel_fallbacks", solver=solver) == 0
    for request, outcome in zip(requests, outcomes):
        assert outcome.batch_size == 4
        assert outcome.converged and not outcome.used_fallback  # the kernel's own answer
        a = sp.csr_matrix((request.values, request.col_idxs, request.row_ptrs), shape=(N, N))
        residual = np.linalg.norm(request.b - a @ outcome.x) / np.linalg.norm(request.b)
        assert residual <= 10 * TOLERANCE


@pytest.mark.parametrize("backend", ["wide", "sycl"])
@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_flush_geometry_sits_on_its_kernel_span_only(backend, solver):
    tracer = Tracer()
    _serve_one_flush(backend, solver, tracer=tracer)
    (solve,) = [s for s in tracer.spans if s.name == "serve.solve"]

    def under_solve(span):
        while span.parent is not None:
            span = span.parent
            if span is solve:
                return True
        return False

    kernels = [s for s in tracer.spans if s.category == "kernel" and under_solve(s)]
    assert len(kernels) == 1
    expected = LaunchConfigurator(queue_for(backend).device).configure(N, 4)
    assert kernels[0].args["work_group_size"] == expected.work_group_size
    assert kernels[0].args["sub_group_size"] == expected.sub_group_size
    # serve.solve carries no geometry of its own to disagree with the launch
    assert "work_group_size" not in solve.args
    assert "slm_bytes_per_group" not in solve.args
    # nor does any other span (the host task): neither key sits anywhere
    # but the kernel span
    geometry = {"work_group_size", "slm_bytes_per_group"}
    assert [s for s in tracer.spans if geometry & set(s.args)] == kernels


def test_warm_start_falls_back_to_the_vectorized_path():
    _, outcomes, metrics = _serve_one_flush("wide", "cg", x0=np.zeros(N))
    assert _counter(metrics, "serve.kernel_fallbacks", solver="cg") == 1
    assert _counter(metrics, "serve.kernel_solves", backend="wide", solver="cg") == 0
    assert all(o.converged for o in outcomes)


@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_cuda_backend_always_falls_back(solver):
    _, outcomes, metrics = _serve_one_flush("cuda", solver)
    assert _counter(metrics, "serve.kernel_fallbacks", solver=solver) == 1
    assert _counter(metrics, "serve.kernel_solves", backend="cuda", solver=solver) == 0
    assert all(o.converged for o in outcomes)


@pytest.mark.parametrize("backend", ["wide", "sycl"])
def test_richardson_flush_runs_on_the_fused_kernel(backend):
    # Jacobi-Richardson contracts by about 0.25 per step on this strongly
    # diagonally dominant stencil; on the (-1, 2, -1) one it would need
    # hundreds of iterations
    pattern = sp.diags(
        [np.full(N - 1, -0.5), np.full(N, 4.0), np.full(N - 1, -0.5)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    requests, outcomes, metrics = _serve_one_flush(backend, "richardson", pattern)
    assert _counter(metrics, "serve.kernel_solves", backend=backend, solver="richardson") == 1
    assert _counter(metrics, "serve.kernel_fallbacks", solver="richardson") == 0
    for request, outcome in zip(requests, outcomes):
        assert outcome.converged and not outcome.used_fallback
        a = sp.csr_matrix((request.values, request.col_idxs, request.row_ptrs), shape=(N, N))
        residual = np.linalg.norm(request.b - a @ outcome.x) / np.linalg.norm(request.b)
        assert residual <= 10 * TOLERANCE

"""The one fused-kernel entry point: ``queue_for``, ``launch_fused``, ``solve_fused``.

Every caller of the fused kernels (the serve kernel path, the sanitize
differential harness, the profile runner) goes through these three, so
the backend-to-queue map, the coverage tables and the CUDA reduction
rule are checked here once, on every backend.
"""

import numpy as np
import pytest

from repro.core.dispatch import BatchSolverFactory
from repro.core.matrix.batch_csr import BatchCsr
from repro.cudasim.device import a100_device
from repro.cudasim.stream import Stream
from repro.exceptions import UnsupportedCombinationError
from repro.kernels import (
    BACKENDS,
    KERNEL_SOLVERS,
    launch_fused,
    queue_for,
    solve_fused,
)
from repro.profile.runner import build_workload, run_profiled
from repro.sycl.device import cpu_device, pvc_stack_device
from repro.sycl.queue import Queue
from repro.wide.queue import WideQueue

TOLERANCE = 1e-8
MAX_ITERATIONS = 200


def _spd_batch(n=16, nb=3, seed=11):
    """Scaled copies of the SPD, strongly diagonally dominant stencil
    (-0.5, 4, -0.5): every kernel solver, Richardson included, converges
    on it in a few dozen iterations."""
    rng = np.random.default_rng(seed)
    stencil = 4.0 * np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    dense = np.stack([stencil * rng.uniform(0.5, 2.0) for _ in range(nb)])
    return BatchCsr.from_dense(dense), rng.standard_normal((nb, n))


def _keywords(solver, preconditioner="jacobi"):
    return dict(
        solver=solver,
        preconditioner=preconditioner,
        tolerance=TOLERANCE,
        max_iterations=MAX_ITERATIONS,
    )


class TestQueueFor:
    @pytest.mark.parametrize(
        "backend, cls, device",
        [
            ("sycl", Queue, pvc_stack_device(1)),
            ("cuda", Stream, a100_device()),
            ("wide", WideQueue, pvc_stack_device(1)),
        ],
    )
    def test_backend_maps_to_its_queue_and_device(self, backend, cls, device):
        queue = queue_for(backend)
        assert type(queue) is cls
        assert queue.device == device
        assert queue.events == []
        assert queue_for(backend) is not queue  # a fresh queue per call

    def test_device_overrides_the_default(self):
        assert queue_for("wide", cpu_device()).device == cpu_device()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            queue_for("cudasim")

    def test_backends_table(self):
        assert BACKENDS == ("sycl", "cuda", "wide")


class TestUnsupportedCombinations:
    @pytest.mark.parametrize("entry", [launch_fused, solve_fused])
    @pytest.mark.parametrize(
        "solver, preconditioner", [("gmres", "jacobi"), ("cg", "ilu")]
    )
    def test_raises_before_launching(self, entry, solver, preconditioner):
        matrix, b = _spd_batch()
        queue = queue_for("sycl")
        with pytest.raises(UnsupportedCombinationError, match="no fused kernel"):
            entry(queue, matrix, b, **_keywords(solver, preconditioner))
        assert queue.events == []

    def test_profile_runner_rejects_a_preconditioner_without_a_kernel(self):
        # it used to profile the unpreconditioned kernel for any name but jacobi
        matrix, b = build_workload("stencil:8", num_batch=2)
        with pytest.raises(UnsupportedCombinationError):
            run_profiled(matrix, b, solver="cg", preconditioner="ilu", max_iterations=5)


class TestReductionStyle:
    @pytest.mark.parametrize(
        "backend, kernel",
        [
            ("cuda", "batch_bicgstab_fused_cuda"),
            ("sycl", "batch_bicgstab_fused_group"),
            ("wide", "batch_bicgstab_fused_group"),
        ],
    )
    def test_bicgstab_reduces_the_backends_way(self, backend, kernel):
        matrix, b = _spd_batch(nb=2)
        queue = queue_for(backend)
        launch_fused(queue, matrix, b, **_keywords("bicgstab"))
        assert [event.name for event in queue.events] == [kernel]

    def test_profile_runner_profiles_the_cuda_reduction(self):
        matrix, b = build_workload("stencil:8", num_batch=2)
        profiler = run_profiled(
            matrix, b, solver="bicgstab", backend="cuda", max_iterations=5
        )
        assert profiler.kernel_names() == ["batch_bicgstab_fused_cuda"]
        assert profiler.profile_for("batch_bicgstab_fused_cuda").totals().flops > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("solver", KERNEL_SOLVERS)
def test_solve_fused_reports_a_batch_solve_result(backend, solver):
    matrix, b = _spd_batch()
    result = solve_fused(queue_for(backend), matrix, b, **_keywords(solver))
    reference = BatchSolverFactory(
        solver=solver,
        preconditioner="jacobi",
        tolerance=TOLERANCE,
        max_iterations=MAX_ITERATIONS,
    ).solve(matrix, b)

    assert result.solver_name == solver
    assert result.all_converged
    np.testing.assert_array_equal(result.logger.converged, result.converged)
    curves = result.logger.residual_curves()
    for i, curve in enumerate(curves):
        assert curve.size == result.iterations[i] + 1
        assert result.residual_norms[i] == curve[-1]
    assert np.abs(result.iterations - reference.iterations).max() <= 1
    rel = np.linalg.norm(matrix.apply(result.x) - b, axis=1) / np.linalg.norm(b, axis=1)
    assert rel.max() <= 10 * TOLERANCE

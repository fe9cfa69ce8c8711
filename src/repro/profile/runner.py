"""Profiled workload runner behind the CLI, smoke test and drift check.

Builds a batched workload (a PeleLM mechanism from
:mod:`repro.workloads.pele` or the 3-point stencil), runs the fused
solver kernels on one or both simulated backends under a fresh
:class:`~repro.profile.profiler.Profiler` per backend, and hands the
collected counters to the report / roofline layers. Each solve is one
:func:`repro.kernels.launch_fused` on :func:`repro.kernels.queue_for`,
the entry point every fused-kernel caller shares, without a residual
history (the profiler would count its writes).
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix.batch_csr import BatchCsr
from repro.instruments import use
from repro.kernels import launch_fused, queue_for
from repro.profile.profiler import Profiler
from repro.workloads.pele import MECHANISMS, pele_batch, pele_rhs
from repro.workloads.stencil import stencil_rhs, three_point_stencil

#: The backends a profile observes. Not ``wide``: under a profiler its
#: launches run the faithful interpreter, so a wide profile would
#: silently be a sycl one.
PROFILED_BACKENDS = ("sycl", "cuda")


def build_workload(
    workload: str, num_batch: int | None = None, seed: int = 0
) -> tuple[BatchCsr, np.ndarray]:
    """``(matrix, b)`` for a named workload.

    ``workload`` is a PeleLM mechanism name (``drm19``, ...) or
    ``stencil:<n>`` for the 3-point stencil with ``n`` rows.
    """
    if workload.startswith("stencil:"):
        n = int(workload.split(":", 1)[1])
        nb = num_batch or 4
        matrix = three_point_stencil(n, nb)
        return matrix, stencil_rhs(n, nb)
    if workload not in MECHANISMS:
        known = ", ".join(sorted(MECHANISMS)) + ", stencil:<n>"
        raise ValueError(f"unknown workload {workload!r}; known: {known}")
    matrix = pele_batch(workload, num_batch=num_batch, seed=seed)
    return matrix, pele_rhs(matrix, seed=seed + 1)


def run_profiled(
    matrix: BatchCsr,
    b: np.ndarray,
    solver: str = "cg",
    backend: str = "sycl",
    preconditioner: str = "jacobi",
    tolerance: float = 1e-8,
    max_iterations: int = 40,
    profiler: Profiler | None = None,
) -> Profiler:
    """One fused-kernel solve under a profiler; returns the profiler."""
    if backend not in PROFILED_BACKENDS:
        raise ValueError(f"backend must be one of {PROFILED_BACKENDS}, got {backend!r}")
    prof = profiler if profiler is not None else Profiler()
    with use(profiler=prof):
        launch_fused(
            queue_for(backend),
            matrix,
            b,
            solver=solver,
            preconditioner=preconditioner,
            tolerance=tolerance,
            max_iterations=max_iterations,
        )
    return prof


def profile_workload(
    workload: str = "drm19",
    solvers: tuple[str, ...] = ("cg", "bicgstab"),
    backends: tuple[str, ...] = PROFILED_BACKENDS,
    num_batch: int | None = 8,
    preconditioner: str = "jacobi",
    tolerance: float = 1e-8,
    max_iterations: int = 40,
) -> dict[str, Profiler]:
    """Run the solver grid on every backend; one profiler per backend."""
    matrix, b = build_workload(workload, num_batch=num_batch)
    profilers: dict[str, Profiler] = {}
    for backend in backends:
        prof = Profiler()
        for solver in solvers:
            run_profiled(
                matrix,
                b,
                solver=solver,
                backend=backend,
                preconditioner=preconditioner,
                tolerance=tolerance,
                max_iterations=max_iterations,
                profiler=prof,
            )
        profilers[backend] = prof
    return profilers

"""Profiled workload runner behind the CLI, smoke test and drift check.

Builds a batched workload (a PeleLM mechanism from
:mod:`repro.workloads.pele` or the 3-point stencil), runs the fused
solver kernels on one or both simulated backends under a fresh
:class:`~repro.profile.profiler.Profiler` per backend, and hands the
collected counters to the report / roofline layers. The backend plumbing
mirrors the differential harness (:mod:`repro.sanitize.diff`): PVC
single-stack for ``sycl``, A100 for ``cuda``, group reductions on SYCL
and the warp-shuffle structure on CUDA.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix.batch_csr import BatchCsr
from repro.cudasim.device import a100_device
from repro.instruments import use
from repro.kernels import (
    run_batch_bicgstab_on_device,
    run_batch_cg_on_device,
    run_batch_richardson_on_device,
)
from repro.profile.profiler import Profiler
from repro.sycl.device import pvc_stack_device
from repro.workloads.pele import MECHANISMS, pele_batch, pele_rhs
from repro.workloads.stencil import stencil_rhs, three_point_stencil

BACKENDS = ("sycl", "cuda")
SOLVERS = ("cg", "bicgstab", "richardson")


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
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    device = pvc_stack_device(1) if backend == "sycl" else a100_device()
    inv_diag = None
    if preconditioner == "jacobi":
        inv_diag = 1.0 / matrix.diagonal()
    prof = profiler if profiler is not None else Profiler()
    with use(profiler=prof):
        if solver == "cg":
            run_batch_cg_on_device(
                device,
                matrix,
                b,
                inv_diag=inv_diag,
                tolerance=tolerance,
                max_iterations=max_iterations,
            )
        elif solver == "bicgstab":
            style = "cuda" if backend == "cuda" else "group"
            run_batch_bicgstab_on_device(
                device,
                matrix,
                b,
                inv_diag=inv_diag,
                tolerance=tolerance,
                max_iterations=max_iterations,
                reduce_style=style,
            )
        elif solver == "richardson":
            run_batch_richardson_on_device(
                device,
                matrix,
                b,
                inv_diag=inv_diag,
                tolerance=tolerance,
                max_iterations=max_iterations,
            )
        else:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    return prof


def profile_workload(
    workload: str = "drm19",
    solvers: tuple[str, ...] = ("cg", "bicgstab"),
    backends: tuple[str, ...] = BACKENDS,
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

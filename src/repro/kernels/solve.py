"""The one fused-kernel entry point and the one backend-to-queue map.

Every caller of the fused kernels builds its queue with :func:`queue_for`
and launches through :func:`launch_fused` or :func:`solve_fused`, so the
solver dispatch, the Jacobi set-up and the CUDA reduction rule (Section
3.2) live here once.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import TrafficLedger
from repro.core.logger import ConvergenceLogger
from repro.core.matrix.batch_csr import BatchCsr
from repro.core.preconditioner.jacobi import BatchJacobi
from repro.core.solver.base import BatchSolveResult
from repro.cudasim.device import CudaDevice, a100_device
from repro.cudasim.stream import Stream
from repro.exceptions import UnsupportedCombinationError
from repro.kernels import bicgstab_kernel, cg_kernel, richardson_kernel
from repro.sycl.device import SyclDevice, pvc_stack_device
from repro.sycl.queue import Queue
from repro.wide.queue import WideQueue

#: Solvers with a fused device kernel.
KERNEL_SOLVERS = ("cg", "bicgstab", "richardson")

#: Preconditioners the fused kernels implement (identity / scalar Jacobi).
KERNEL_PRECONDITIONERS = ("identity", "jacobi")

#: Backend name -> (queue class, default device).
_CONTEXTS = {
    "sycl": (Queue, lambda: pvc_stack_device(1)),
    "cuda": (Stream, a100_device),
    "wide": (WideQueue, lambda: pvc_stack_device(1)),
}

#: The simulated backends the fused kernels run on.
BACKENDS = tuple(_CONTEXTS)


def queue_for(backend: str, device: SyclDevice | None = None) -> Queue:
    """A fresh queue for ``backend``; ``device`` overrides its default device."""
    if backend not in _CONTEXTS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    cls, default_device = _CONTEXTS[backend]
    return cls(device if device is not None else default_device())


def launch_fused(
    queue: Queue,
    matrix: BatchCsr,
    b: np.ndarray,
    *,
    solver: str,
    preconditioner: str,
    tolerance: float,
    max_iterations: int,
    omega: float = 1.0,
    res_history: np.ndarray | None = None,
):
    """Launch one fused ``solver`` kernel on ``queue``; returns ``(x, iterations, event)``.

    ``omega`` relaxes Richardson; ``res_history`` has the host wrappers'
    meaning. A solver or preconditioner without a fused kernel raises
    :class:`~repro.exceptions.UnsupportedCombinationError`.
    """
    if solver not in KERNEL_SOLVERS or preconditioner not in KERNEL_PRECONDITIONERS:
        raise UnsupportedCombinationError(
            f"no fused kernel for {solver}+{preconditioner}; kernel solvers "
            f"{KERNEL_SOLVERS}, kernel preconditioners {KERNEL_PRECONDITIONERS}"
        )
    common = dict(
        inv_diag=BatchJacobi(matrix).inv_diag if preconditioner == "jacobi" else None,
        tolerance=tolerance,
        max_iterations=max_iterations,
        queue=queue,
        res_history=res_history,
    )
    # looked up on their modules at call time: the repo benchmark's probes
    # (perf/layers.py) replace the host wrappers there
    if solver == "cg":
        return cg_kernel.run_batch_cg_on_device(queue.device, matrix, b, **common)
    if solver == "bicgstab":
        style = "cuda" if isinstance(queue.device, CudaDevice) else "group"
        return bicgstab_kernel.run_batch_bicgstab_on_device(
            queue.device, matrix, b, reduce_style=style, **common
        )
    return richardson_kernel.run_batch_richardson_on_device(
        queue.device, matrix, b, omega=omega, **common
    )


def solve_fused(queue: Queue, matrix: BatchCsr, b: np.ndarray, **kwargs) -> BatchSolveResult:
    """:func:`launch_fused` (same keywords), reported as a :class:`BatchSolveResult`.

    The residual history the kernel records (NaN-padded; allocated here
    unless the caller passes ``res_history`` to keep) gives the final
    residuals, the relative-residual verdict and the forensic curves.
    """
    nb = matrix.num_batch
    history = kwargs.pop("res_history", None)
    if history is None:
        history = np.full((nb, kwargs["max_iterations"] + 1), np.nan)
    x, iters, _event = launch_fused(queue, matrix, b, res_history=history, **kwargs)
    iters = np.asarray(iters, dtype=np.int64)
    final = history[np.arange(nb), iters]
    converged = final <= kwargs["tolerance"] * np.linalg.norm(b, axis=1)
    logger = ConvergenceLogger(nb)
    logger.iterations = iters.copy()
    logger.final_residuals = final.copy()
    logger.mark_converged(converged)
    # the device history becomes the always-on bounded curves the flight
    # recorder classifies from
    logger.adopt_history_curves(history, iters)
    return BatchSolveResult(
        x=np.asarray(x, dtype=np.float64),
        iterations=iters,
        residual_norms=final,
        converged=converged,
        logger=logger,
        ledger=TrafficLedger(fp_bytes=np.dtype(matrix.dtype).itemsize),
        solver_name=kwargs["solver"],
    )

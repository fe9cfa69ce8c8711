"""BatchRichardson: batched stationary (relaxed preconditioned) iteration.

Listed in the paper's roadmap as part of the extended batched solver
collection; also useful as the simplest possible fused kernel for testing
the dispatch and workspace machinery. Iterates

    x <- x + omega * M (b - A x)

which converges whenever ``||I - omega M A|| < 1`` (e.g. scalar-Jacobi on
diagonally dominant systems).
"""

from __future__ import annotations

import numpy as np

from repro.core import blas
from repro.core.counters import TrafficLedger
from repro.core.solver.base import BatchIterativeSolver, ConvergenceTracker


class BatchRichardson(BatchIterativeSolver):
    """Relaxed preconditioned Richardson iteration.

    Parameters
    ----------
    omega:
        Relaxation factor (default 1.0 — plain preconditioned Richardson).
    """

    solver_name = "richardson"

    def __init__(self, matrix, preconditioner=None, settings=None, omega: float = 1.0) -> None:
        super().__init__(matrix, preconditioner, settings)
        if not 0.0 < omega <= 2.0:
            raise ValueError(f"relaxation factor omega must be in (0, 2], got {omega}")
        self.omega = float(omega)

    def workspace_vectors(self) -> list[tuple[str, int]]:
        n = self.matrix.num_rows
        return [("r", n), ("z", n), ("x", n), ("A_cache", self.matrix.nnz_per_item)]

    def _iterate(
        self,
        b: np.ndarray,
        x: np.ndarray,
        tracker: ConvergenceTracker,
        ledger: TrafficLedger,
    ) -> None:
        matrix = self.matrix
        precond = self.preconditioner

        r = self._initial_residual(b, x, ledger)
        res_norms = blas.norm2(r, ledger, "r")
        tracker.start(res_norms)

        z = np.empty_like(b)
        t = np.empty_like(b)
        # every pass tallies the same amounts: tally the first, scale it below
        one_pass = TrafficLedger(fp_bytes=ledger.fp_bytes)
        tally, passes = one_pass, 0
        for iteration in range(1, self.settings.max_iterations + 1):
            active = tracker.active
            if not np.count_nonzero(active):
                break
            passes += 1

            precond.apply(r, out=z, ledger=tally)
            step = np.where(active, self.omega, 0.0)
            blas.axpy(step, z, x, tally, ("z", "x"))

            # r <- b - A x, computed incrementally: r -= omega * A z
            matrix.apply(z, out=t, ledger=tally, x_name="z", y_name="t")
            blas.axpy(-step, t, r, tally, ("t", "r"))

            res_norms = blas.norm2(r, tally, "r")
            tracker.update(iteration, res_norms, active)
            tally = None
        ledger.add_scaled(one_pass, passes)

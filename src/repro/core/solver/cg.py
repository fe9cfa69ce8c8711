"""BatchCg: batched preconditioned conjugate gradients (Algorithm 1).

For symmetric positive definite batch items (the paper's 3-point-stencil
study uses CG on SPD stencil matrices). The implementation follows
Algorithm 1 of the paper, vectorized across the batch with per-system
freezing of converged items.
"""

from __future__ import annotations

import numpy as np

from repro.core import blas
from repro.core.counters import TrafficLedger
from repro.core.solver.base import (
    BatchIterativeSolver,
    ConvergenceTracker,
    guarded_divide,
)


class BatchCg(BatchIterativeSolver):
    """Preconditioned CG over a batch of SPD systems."""

    solver_name = "cg"

    def workspace_vectors(self) -> list[tuple[str, int]]:
        # Section 3.5: decreasing priority r, z, p, t, x; the (preconditioned)
        # matrix values are "also allocated on the SLM" after the vectors,
        # and the preconditioner workspace comes last (plan_workspace adds it).
        n = self.matrix.num_rows
        return [
            ("r", n),
            ("z", n),
            ("p", n),
            ("t", n),
            ("x", n),
            ("A_cache", self.matrix.nnz_per_item),
        ]

    def _iterate(
        self,
        b: np.ndarray,
        x: np.ndarray,
        tracker: ConvergenceTracker,
        ledger: TrafficLedger,
    ) -> None:
        matrix = self.matrix
        precond = self.preconditioner

        # r <- b - A x ; z <- M r ; p <- z  (Algorithm 1, line 2)
        r = self._initial_residual(b, x, ledger)
        z = precond.apply(r, ledger=ledger)
        p = z.copy()
        ledger.tally_copy(*b.shape, "z", "p")
        rho = blas.dot(r, z, ledger, ("r", "z"))

        res_norms = blas.norm2(r, ledger, "r")
        tracker.start(res_norms)

        t = np.empty_like(b)
        # every pass tallies the same amounts: tally the first, scale it below
        one_pass = TrafficLedger(fp_bytes=ledger.fp_bytes)
        tally, passes = one_pass, 0
        for iteration in range(1, self.settings.max_iterations + 1):
            active = tracker.active
            if not np.count_nonzero(active):
                break
            passes += 1

            # t <- A p ; alpha <- rho / (p . t)
            matrix.apply(p, out=t, ledger=tally, x_name="p", y_name="t")
            pt = blas.dot(p, t, tally, ("p", "t"))
            alpha, breakdown = guarded_divide(rho, pt, active)
            if np.count_nonzero(breakdown):
                tracker.freeze(breakdown)
                active = active & ~breakdown

            # x <- x + alpha p ; r <- r - alpha t
            blas.axpy(alpha, p, x, tally, ("p", "x"))
            blas.axpy(-alpha, t, r, tally, ("t", "r"))

            res_norms = blas.norm2(r, tally, "r")
            tracker.update(iteration, res_norms, active)

            # z <- M r ; beta <- (r . z) / rho ; p <- z + beta p
            precond.apply(r, out=z, ledger=tally)
            rho_new = blas.dot(r, z, tally, ("r", "z"))
            beta, breakdown = guarded_divide(rho_new, rho, tracker.active)
            if np.count_nonzero(breakdown):
                tracker.freeze(breakdown)
            blas.axpby(1.0, z, beta, p, tally, ("z", "p"))
            rho = rho_new
            tally = None
        ledger.add_scaled(one_pass, passes)

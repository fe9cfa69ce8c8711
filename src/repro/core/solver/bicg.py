"""BatchBicg: batched two-sided biconjugate gradients.

Another roadmap extension (Section 5): classic BiCG is the two-sided
ancestor of BiCGSTAB/CGS and needs products with both ``A`` and ``A^T``
per iteration. The shared-pattern formats make the batched transpose
cheap (one pattern permutation for the whole batch —
:meth:`repro.core.matrix.BatchCsr.transpose`), so BiCG slots into the
same fused design; its presence also exercises the transpose code path
the other solvers never touch.

Preconditioning is split symmetrically (M applied to both recurrences),
matching the textbook preconditioned BiCG.
"""

from __future__ import annotations

import numpy as np

from repro.core import blas
from repro.core.counters import TrafficLedger
from repro.core.matrix.batch_csr import BatchCsr
from repro.core.solver.base import (
    BatchIterativeSolver,
    ConvergenceTracker,
    guarded_divide,
)
from repro.exceptions import UnsupportedCombinationError


class BatchBicg(BatchIterativeSolver):
    """Preconditioned BiCG over a batch of general systems (needs BatchCsr)."""

    solver_name = "bicg"

    def __init__(self, matrix, preconditioner=None, settings=None) -> None:
        super().__init__(matrix, preconditioner, settings)
        if not isinstance(matrix, BatchCsr):
            raise UnsupportedCombinationError(
                "BatchBicg applies A^T and therefore requires the BatchCsr "
                f"format (cheap shared-pattern transpose); got {matrix.format_name!r}"
            )
        self._transposed = matrix.transpose()

    def workspace_vectors(self) -> list[tuple[str, int]]:
        n = self.matrix.num_rows
        return [
            ("r", n),
            ("r_star", n),
            ("p", n),
            ("p_star", n),
            ("z", n),
            ("z_star", n),
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
        transposed = self._transposed
        precond = self.preconditioner

        r = self._initial_residual(b, x, ledger)
        r_star = r.copy()
        ledger.tally_copy(*b.shape, "r", "r_star")

        z = precond.apply(r, ledger=ledger)
        z_star = precond.apply(r_star, ledger=ledger)
        p = z.copy()
        p_star = z_star.copy()
        ledger.tally_copy(*b.shape, "z", "p")
        ledger.tally_copy(*b.shape, "z_star", "p_star")
        rho = blas.dot(z, r_star, ledger, ("z", "r_star"))

        t = np.empty_like(b)
        t_star = np.empty_like(b)

        res_norms = blas.norm2(r, ledger, "r")
        tracker.start(res_norms)

        # every pass tallies the same amounts: tally the first, scale it below
        one_pass = TrafficLedger(fp_bytes=ledger.fp_bytes)
        tally, passes = one_pass, 0
        for iteration in range(1, self.settings.max_iterations + 1):
            active = tracker.active
            if not np.count_nonzero(active):
                break
            passes += 1

            # t = A p ; t* = A^T p* ; alpha = rho / (p* . t)
            matrix.apply(p, out=t, ledger=tally, x_name="p", y_name="t")
            transposed.apply(
                p_star, out=t_star, ledger=tally, x_name="p_star", y_name="t_star"
            )
            pt = blas.dot(p_star, t, tally, ("p_star", "t"))
            alpha, breakdown = guarded_divide(rho, pt, active)
            if np.count_nonzero(breakdown):
                tracker.freeze(breakdown)
                active = active & ~breakdown

            blas.axpy(alpha, p, x, tally, ("p", "x"))
            blas.axpy(-alpha, t, r, tally, ("t", "r"))
            blas.axpy(-alpha, t_star, r_star, tally, ("t_star", "r_star"))

            res_norms = blas.norm2(r, tally, "r")
            tracker.update(iteration, res_norms, active)

            precond.apply(r, out=z, ledger=tally)
            precond.apply(r_star, out=z_star, ledger=tally)
            rho_new = blas.dot(z, r_star, tally, ("z", "r_star"))
            beta, breakdown = guarded_divide(rho_new, rho, tracker.active)
            if np.count_nonzero(breakdown):
                tracker.freeze(breakdown)
            blas.axpby(1.0, z, beta, p, tally, ("z", "p"))
            blas.axpby(1.0, z_star, beta, p_star, tally, ("z_star", "p_star"))
            rho = rho_new
            tally = None
        ledger.add_scaled(one_pass, passes)

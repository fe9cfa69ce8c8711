"""BatchCgs: batched conjugate gradient squared.

An extension beyond the paper's Table 3 (Ginkgo's batched roadmap —
Section 5 — grows the solver set over time): CGS is the transpose-free
sibling of BiCGSTAB with the same building blocks (two SpMV, a handful of
dots/axpys per iteration), so it drops into the same fused-kernel design,
workspace planner and dispatch machinery. Right-preconditioned, per-system
masked like the other solvers.
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


class BatchCgs(BatchIterativeSolver):
    """Preconditioned CGS over a batch of general systems."""

    solver_name = "cgs"

    def workspace_vectors(self) -> list[tuple[str, int]]:
        n = self.matrix.num_rows
        return [
            ("r", n),
            ("u", n),
            ("p", n),
            ("q", n),
            ("v", n),
            ("t", n),
            ("r_hat", n),
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
        nb = b.shape[0]

        r = self._initial_residual(b, x, ledger)
        r_hat = r.copy()
        ledger.tally_copy(*b.shape, "r", "r_hat")

        u = np.zeros_like(b)
        p = np.zeros_like(b)
        q = np.zeros_like(b)
        v = np.empty_like(b)
        t = np.empty_like(b)
        hat = np.empty_like(b)
        rho_old = np.ones(nb)

        res_norms = blas.norm2(r, ledger, "r")
        tracker.start(res_norms)

        # the first pass copies where later passes update: tally the first
        # and the second, and scale the second by the passes after the first
        first = TrafficLedger(fp_bytes=ledger.fp_bytes)
        later = TrafficLedger(fp_bytes=ledger.fp_bytes)
        tally, passes = first, 0
        for iteration in range(1, self.settings.max_iterations + 1):
            active = tracker.active
            if not np.count_nonzero(active):
                break
            passes += 1

            rho = blas.dot(r_hat, r, tally, ("r_hat", "r"))
            if iteration == 1:
                blas.copy(r, u, tally, ("r", "u"))
                blas.copy(r, p, tally, ("r", "p"))
            else:
                beta, breakdown = guarded_divide(rho, rho_old, active)
                if np.count_nonzero(breakdown):
                    tracker.freeze(breakdown)
                    active = active & ~breakdown
                # u = r + beta q ; p = u + beta (q + beta p)
                blas.copy(r, u, tally, ("r", "u"))
                blas.axpy(beta, q, u, tally, ("q", "u"))
                blas.axpby(1.0, q, beta, p, tally, ("q", "p"))
                blas.axpby(1.0, u, beta, p, tally, ("u", "p"))

            # v = A M p ; alpha = rho / (r_hat . v)
            precond.apply(p, out=hat, ledger=tally)
            matrix.apply(hat, out=v, ledger=tally, x_name="p_hat", y_name="v")
            sigma = blas.dot(r_hat, v, tally, ("r_hat", "v"))
            alpha, breakdown = guarded_divide(rho, sigma, active)
            if np.count_nonzero(breakdown):
                tracker.freeze(breakdown)
                active = active & ~breakdown

            # q = u - alpha v ; correction direction u + q
            blas.copy(u, q, tally, ("u", "q"))
            blas.axpy(-alpha, v, q, tally, ("v", "q"))
            np.add(u, q, out=t)
            if tally is not None:
                tally.tally_axpy(nb, b.shape[1], "u", "q")

            # x += alpha M (u + q) ; r -= alpha A M (u + q)
            precond.apply(t, out=hat, ledger=tally)
            blas.axpy(alpha, hat, x, tally, ("uq_hat", "x"))
            matrix.apply(hat, out=t, ledger=tally, x_name="uq_hat", y_name="t")
            blas.axpy(-alpha, t, r, tally, ("t", "r"))

            res_norms = blas.norm2(r, tally, "r")
            tracker.update(iteration, res_norms, active)
            rho_old = np.where(active, rho, rho_old)
            tally = later if passes == 1 else None
        ledger.add_scaled(first, min(passes, 1))
        ledger.add_scaled(later, max(passes - 1, 0))

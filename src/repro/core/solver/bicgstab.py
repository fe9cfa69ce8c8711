"""BatchBicgstab: batched preconditioned BiCGSTAB.

The workhorse solver of the paper's evaluation: the PeleLM chemistry
Jacobians are non-SPD, so only BiCGSTAB (not CG) is applicable
(Section 4.3). Right-preconditioned BiCGSTAB in the Ginkgo formulation:
the preconditioner is applied to the search directions (``p_hat``,
``s_hat``) so the recurrence works on the true residual.
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


class BatchBicgstab(BatchIterativeSolver):
    """Preconditioned BiCGSTAB over a batch of general systems."""

    solver_name = "bicgstab"

    def workspace_vectors(self) -> list[tuple[str, int]]:
        # Priority by usage frequency and size, analogous to the BatchCg
        # ordering of Section 3.5: the residual pair and search vectors
        # first, the shadow residual and x copy last.
        n = self.matrix.num_rows
        return [
            ("r", n),
            ("p", n),
            ("v", n),
            ("s", n),
            ("t", n),
            ("p_hat", n),
            ("s_hat", n),
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

        rho_old = np.ones(nb)
        alpha = np.ones(nb)
        omega = np.ones(nb)
        p = np.zeros_like(b)
        v = np.zeros_like(b)
        p_hat = np.empty_like(b)
        s = np.empty_like(b)
        s_hat = np.empty_like(b)
        t = np.empty_like(b)

        res_norms = blas.norm2(r, ledger, "r")
        tracker.start(res_norms)

        # every pass tallies the same amounts: tally the first, scale it below
        one_pass = TrafficLedger(fp_bytes=ledger.fp_bytes)
        tally, passes = one_pass, 0
        for iteration in range(1, self.settings.max_iterations + 1):
            active = tracker.active
            if not active.any():
                break
            passes += 1

            # rho = (r_hat . r); beta = (rho/rho_old)(alpha/omega), 0 where inactive
            rho = blas.dot(r_hat, r, tally, ("r_hat", "r"))
            ratio, breakdown = guarded_divide(rho, rho_old, active)
            alpha_over_omega, brk2 = guarded_divide(alpha, omega, active)
            breakdown |= brk2
            beta = ratio * alpha_over_omega

            # p = r + beta (p - omega v)
            blas.axpy(-omega, v, p, tally, ("v", "p"))
            blas.axpby(1.0, r, beta, p, tally, ("r", "p"))

            # p_hat = M p ; v = A p_hat
            precond.apply(p, out=p_hat, ledger=tally)
            matrix.apply(p_hat, out=v, ledger=tally, x_name="p_hat", y_name="v")

            # alpha = rho / (r_hat . v)
            rv = blas.dot(r_hat, v, tally, ("r_hat", "v"))
            alpha, brk3 = guarded_divide(rho, rv, active)
            breakdown |= brk3

            # s = r - alpha v
            blas.copy(r, s, tally, ("r", "s"))
            blas.axpy(-alpha, v, s, tally, ("v", "s"))

            # s_hat = M s ; t = A s_hat
            precond.apply(s, out=s_hat, ledger=tally)
            matrix.apply(s_hat, out=t, ledger=tally, x_name="s_hat", y_name="t")

            # omega = (t . s) / (t . t)
            ts = blas.dot(t, s, tally, ("t", "s"))
            tt = blas.dot(t, t, tally, ("t", "t"))
            omega, brk4 = guarded_divide(ts, tt, active)
            breakdown |= brk4

            # x += alpha p_hat + omega s_hat ; r = s - omega t
            blas.axpy(alpha, p_hat, x, tally, ("p_hat", "x"))
            blas.axpy(omega, s_hat, x, tally, ("s_hat", "x"))
            blas.copy(s, r, tally, ("s", "r"))
            blas.axpy(-omega, t, r, tally, ("t", "r"))

            res_norms = blas.norm2(r, tally, "r")
            tracker.update(iteration, res_norms, active)
            if breakdown.any():
                # A vanished denominator usually means the residual already
                # collapsed; only freeze systems that are still above their
                # threshold after this iteration's update.
                tracker.freeze(breakdown & tracker.active)

            rho_old = np.where(active, rho, rho_old)
            tally = None
        ledger.add_scaled(one_pass, passes)

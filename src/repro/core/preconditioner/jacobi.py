"""Scalar Jacobi preconditioner: M_i = diag(A_i)^{-1}.

The paper uses this preconditioner for all PeleLM + SUNDIALS inputs
("the PeleLM+SUNDIALS matrices use a scalar Jacobi preconditioner to
accelerate convergence", Section 4.1). Generation extracts each system's
diagonal; application is one elementwise multiply per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import TrafficLedger
from repro.core.matrix.base import BatchedMatrix
from repro.core.preconditioner.base import BatchPreconditioner
from repro.exceptions import SingularMatrixError


class BatchJacobi(BatchPreconditioner):
    """Inverse-diagonal scaling, generated per batch item."""

    preconditioner_name = "jacobi"

    def __init__(self, matrix: BatchedMatrix) -> None:
        super().__init__(matrix)
        diag = matrix.diagonal()
        if diag.shape[1] != matrix.num_rows:
            raise SingularMatrixError(
                "scalar Jacobi requires a square system (full main diagonal)"
            )
        # np.isclose(diag, 0.0)'s test (atol 1e-8; NaN and +-inf are not
        # close to zero) at a tenth of its cost
        zero_rows = np.abs(diag) <= 1e-8
        if np.count_nonzero(zero_rows):
            bad = np.argwhere(zero_rows)[0]
            raise SingularMatrixError(
                f"zero diagonal entry at batch item {bad[0]}, row {bad[1]}; "
                "scalar Jacobi is undefined"
            )
        self.inv_diag = 1.0 / diag

    def apply(
        self,
        r: np.ndarray,
        out: np.ndarray | None = None,
        ledger: TrafficLedger | None = None,
    ) -> np.ndarray:
        out = self._prepare_out(r, out)
        np.multiply(self.inv_diag, r, out=out)
        if ledger is not None:
            ledger.tally_precond_apply(
                r.shape[0], r.shape[1], self.work_flops_per_row, "precond"
            )
        return out

    def workspace_doubles_per_system(self) -> int:
        # one inverse-diagonal entry per row
        return self.num_rows

    @property
    def work_flops_per_row(self) -> float:
        return 1.0

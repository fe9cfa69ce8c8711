"""Common machinery of the batched solvers.

Every solver follows the structure of the paper's fused kernel
(Section 3.4): one logical kernel performs the whole iteration for every
batch item, each system converging individually against the configured
stopping criterion. The vectorized implementation mirrors that with a
single NumPy iteration loop over the whole batch and a per-system active
mask: converged systems have their update scalars forced to zero, freezing
their state exactly as a work-group that broke out of its loop would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.counters import TrafficLedger
from repro.core.logger import ConvergenceLogger
from repro.core.matrix.base import BatchedMatrix
from repro.core.preconditioner.base import BatchPreconditioner
from repro.core.preconditioner.identity import BatchIdentity
from repro.core.stop import RelativeResidual, StoppingCriterion
from repro.exceptions import DimensionMismatchError
from repro.instruments import use
from repro.observability.tracer import NULL_TRACER, Tracer, current_tracer


@dataclass
class SolverSettings:
    """User-facing solve parameters.

    ``max_iterations`` bounds the iteration count per system;
    ``criterion`` is the per-system stopping criterion (Table 3 offers
    absolute and relative residual criteria); ``keep_history`` records
    residual norms every iteration (costs memory; used by examples/tests).
    """

    max_iterations: int = 500
    criterion: StoppingCriterion = field(default_factory=lambda: RelativeResidual(1e-8))
    keep_history: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if not isinstance(self.criterion, StoppingCriterion):
            raise TypeError(
                f"criterion must be a StoppingCriterion, got {type(self.criterion)}"
            )


@dataclass
class BatchSolveResult:
    """Outcome of one batched solve."""

    x: np.ndarray
    iterations: np.ndarray
    residual_norms: np.ndarray
    converged: np.ndarray
    logger: ConvergenceLogger
    ledger: TrafficLedger
    solver_name: str

    @property
    def num_batch(self) -> int:
        """Number of systems solved."""
        return self.x.shape[0]

    @property
    def all_converged(self) -> bool:
        """True when every system satisfied the stopping criterion."""
        return bool(self.converged.all())

    @property
    def max_iterations_used(self) -> int:
        """Largest per-system iteration count."""
        return int(self.iterations.max())

    def __repr__(self) -> str:
        return (
            f"BatchSolveResult(solver={self.solver_name!r}, "
            f"num_batch={self.num_batch}, converged={int(self.converged.sum())}"
            f"/{self.num_batch}, max_iters={self.max_iterations_used})"
        )


class ConvergenceTracker:
    """Per-system convergence bookkeeping shared by all iterative solvers.

    ``active`` is the mask of systems that still iterate, ``~(converged |
    frozen)``. It is an attribute, reassigned (never mutated in place)
    whenever a system converges or freezes, so a solver may hold the array
    it read across :meth:`update`.
    """

    def __init__(
        self,
        criterion: StoppingCriterion,
        b_norms: np.ndarray,
        logger: ConvergenceLogger,
        tracer: Tracer | None = None,
    ) -> None:
        self.thresholds = criterion.thresholds(b_norms)
        self.logger = logger
        self.converged = np.zeros(b_norms.shape[0], dtype=bool)
        self._frozen = np.zeros(b_norms.shape[0], dtype=bool)
        self.active = np.ones(b_norms.shape[0], dtype=bool)
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def start(self, res_norms: np.ndarray) -> None:
        """Record iteration 0; systems may converge immediately."""
        self.logger.log_initial(res_norms)
        self.converged = res_norms <= self.thresholds
        self.logger.mark_converged(self.converged)
        self.active = ~(self.converged | self._frozen)
        self._emit_convergence(res_norms)

    def update(self, iteration: int, res_norms: np.ndarray, active: np.ndarray) -> None:
        """Record an iteration and absorb newly converged systems."""
        self.logger.log_iteration(iteration, res_norms, active)
        newly = active & (res_norms <= self.thresholds)
        if newly.any():
            self.converged |= newly
            self.logger.mark_converged(newly)
            self.active = ~(self.converged | self._frozen)
        self._emit_convergence(res_norms)

    def _emit_convergence(self, res_norms: np.ndarray) -> None:
        """Per-iteration counter sample on the installed tracer (if any)."""
        tracer = self._tracer
        if not tracer.enabled:
            return
        active = self.active
        num_active = int(active.sum())
        worst = float(np.max(res_norms[active])) if num_active else 0.0
        tracer.counter(
            "convergence.active_systems", active=num_active, converged=int(self.converged.sum())
        )
        tracer.counter("convergence.worst_residual", residual=worst)

    def freeze(self, mask: np.ndarray) -> None:
        """Stop iterating the masked systems without marking them converged.

        Used on breakdown (zero denominators): the system keeps its current
        iterate and is reported as not converged.
        """
        self._frozen |= mask
        self.logger.mark_frozen(mask)
        self.active = ~(self.converged | self._frozen)
        if self._tracer.enabled and np.any(mask):
            self._tracer.instant("solver.breakdown", systems=int(np.sum(mask)))
            self._tracer.metrics.counter("solver.breakdowns").inc(int(np.sum(mask)))

    @property
    def all_done(self) -> bool:
        """True when no system remains active."""
        return not self.active.any()


def guarded_divide(numerator: np.ndarray, denominator: np.ndarray, active: np.ndarray):
    """Per-system division that returns 0 where inactive or denominator is 0.

    Returns ``(quotient, breakdown_mask)``; ``breakdown_mask`` flags active
    systems whose denominator vanished (solver breakdown).
    """
    mask = active & (denominator != 0.0)
    quotient = np.zeros(mask.shape, dtype=np.result_type(numerator, denominator))
    np.divide(numerator, denominator, out=quotient, where=mask)
    return quotient, active ^ mask


class BatchIterativeSolver(ABC):
    """Base class: holds the matrix, preconditioner and settings."""

    solver_name: str = "abstract"

    def __init__(
        self,
        matrix: BatchedMatrix,
        preconditioner: BatchPreconditioner | None = None,
        settings: SolverSettings | None = None,
    ) -> None:
        if matrix.num_rows != matrix.num_cols:
            raise DimensionMismatchError(
                f"batched solvers require square systems, got "
                f"{matrix.num_rows}x{matrix.num_cols}"
            )
        self.matrix = matrix
        self.preconditioner = (
            preconditioner if preconditioner is not None else BatchIdentity(matrix)
        )
        if self.preconditioner.num_batch != matrix.num_batch:
            raise DimensionMismatchError(
                "preconditioner batch size does not match the matrix batch size"
            )
        self.settings = settings if settings is not None else SolverSettings()

    # -- solver-specific pieces ------------------------------------------------

    @abstractmethod
    def workspace_vectors(self) -> list[tuple[str, int]]:
        """``(name, doubles_per_system)`` in decreasing SLM priority.

        Feeds :func:`repro.core.workspace.plan_workspace`; the order
        follows Section 3.5 (usage frequency and size).
        """

    @abstractmethod
    def _iterate(
        self,
        b: np.ndarray,
        x: np.ndarray,
        tracker: ConvergenceTracker,
        ledger: TrafficLedger,
    ) -> None:
        """Run the iteration in-place on ``x``."""

    # -- the public solve entry point ----------------------------------------------

    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        tracer: Tracer | None = None,
    ) -> BatchSolveResult:
        """Solve ``A_i x_i = b_i`` for every batch item.

        ``b`` is ``(num_batch, n)`` or ``(n,)`` (broadcast); ``x0`` is the
        optional initial guess (zero by default) — the capability the
        paper highlights as the key advantage of iterative batched solvers
        inside nonlinear outer loops. ``tracer`` opts this solve into the
        observability layer: it is installed for the duration of the call
        (so nested layers feed it too) and receives one solver span, one
        fused-kernel span (the Section 3.4 single-launch structure) and
        per-iteration convergence counters.
        """
        matrix = self.matrix
        b = matrix.check_vector("b", b)
        if x0 is None:
            x = np.zeros_like(b)
        else:
            x = matrix.check_vector("x0", x0).copy()

        with nullcontext() if tracer is None else use(tracer=tracer):
            tr = current_tracer()
            ledger = TrafficLedger(fp_bytes=matrix.value_bytes)
            logger = ConvergenceLogger(matrix.num_batch, self.settings.keep_history)
            from repro.core import blas  # local import to avoid a cycle at module load

            with tr.span(
                f"solve.{self.solver_name}",
                category="solver",
                solver=self.solver_name,
                preconditioner=self.preconditioner.preconditioner_name,
                matrix_format=matrix.format_name,
                precision=str(matrix.dtype),
                num_batch=matrix.num_batch,
                num_rows=matrix.num_rows,
            ) as span:
                b_norms = blas.norm2(b, ledger, "b")
                tracker = ConvergenceTracker(
                    self.settings.criterion, b_norms, logger, tracer=tr
                )

                kernel_args = (
                    self._fused_kernel_trace_args() if tr.enabled else {}
                )
                with tr.span(
                    f"batch_{self.solver_name}_fused", category="kernel", **kernel_args
                ) as kspan:
                    self._iterate(b, x, tracker, ledger)
                    kspan.set("iterations", int(logger.iterations.max()))

                if tr.enabled:
                    num_converged = int(tracker.converged.sum())
                    span.set_args(
                        converged=num_converged,
                        max_iterations_used=int(logger.iterations.max()),
                        flops=ledger.flops,
                        logical_bytes=ledger.total_bytes,
                    )
                    metrics = tr.metrics
                    metrics.counter("solver.solves").inc()
                    metrics.counter("solver.systems").inc(matrix.num_batch)
                    metrics.counter("solver.systems_converged").inc(num_converged)
                    metrics.counter("solver.iterations_total").inc(int(logger.iterations.sum()))
                    metrics.counter("solver.flops").inc(ledger.flops)
                    metrics.counter("solver.logical_bytes").inc(ledger.total_bytes)
                    metrics.histogram("solver.iterations_per_system").observe_many(
                        logger.iterations.tolist()
                    )

        return BatchSolveResult(
            x=x,
            iterations=logger.iterations.copy(),
            residual_norms=logger.final_residuals.copy(),
            converged=tracker.converged.copy(),
            logger=logger,
            ledger=ledger,
            solver_name=self.solver_name,
        )

    def _fused_kernel_trace_args(self) -> dict:
        """LaunchStats-shaped arguments for the fused-kernel span.

        The vectorized path executes one logical fused launch per solve
        (the paper's single-kernel structure); its geometry is what the
        launch configurator would pick on the reference device (PVC-1S,
        Section 3.6), with the SLM footprint from the Section 3.5
        priority-ordered workspace plan.
        """
        from repro.core.launch import LaunchConfigurator
        from repro.core.workspace import SlmBudget, plan_workspace
        from repro.sycl.device import pvc_stack_device

        device = pvc_stack_device(1)
        workspace = plan_workspace(
            self.workspace_vectors(),
            SlmBudget(device.slm_bytes_per_cu),
            precond_doubles=self.preconditioner.workspace_doubles_per_system(),
            bytes_per_value=self.matrix.value_bytes,
        )
        plan = LaunchConfigurator(device).configure(
            self.matrix.num_rows, self.matrix.num_batch, workspace
        )
        return {
            "num_groups": plan.num_groups,
            "work_group_size": plan.work_group_size,
            "sub_group_size": plan.sub_group_size,
            "reduction_scope": plan.reduction_scope,
            "slm_bytes_per_group": plan.slm_bytes_per_group,
            "launch_device": device.name,
        }

    # -- hardware-model hooks -------------------------------------------------------

    def model_stages(self, result: BatchSolveResult) -> float:
        """Dependent kernel stages per system, for the timing model.

        Iterative solvers advance in synchronized iterations, so the mean
        iteration count is the critical-path length. Direct kernels
        override this: their user-facing iteration count is 1, but their
        elimination/substitution sweeps are sequentially dependent stages
        the wave-timing model must price.
        """
        return float(max(1.0, float(np.mean(result.iterations))))

    # -- shared helpers -----------------------------------------------------------

    def _initial_residual(
        self, b: np.ndarray, x: np.ndarray, ledger: TrafficLedger
    ) -> np.ndarray:
        """``r = b - A x`` (skips the SpMV for an all-zero initial guess)."""
        if not x.any():
            return b.copy()
        r = self.matrix.apply(x, ledger=ledger, x_name="x", y_name="r")
        np.subtract(b, r, out=r)
        ledger.tally_axpy(b.shape[0], b.shape[1], "b", "r")
        return r

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(matrix={self.matrix!r}, "
            f"preconditioner={self.preconditioner.preconditioner_name!r})"
        )

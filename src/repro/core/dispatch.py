"""The multi-level dispatch mechanism (Section 3.3, Figure 3).

Ginkgo's batched solvers resolve, at runtime, a full kernel configuration
from string-level choices: matrix format x solver x preconditioner x
stopping criterion (and, one level below, sub-group size and reduction
scope — see :mod:`repro.core.launch`). Templates make each resolved
combination a single fused kernel; here the resolution produces a
concrete solver object wired to concrete preconditioner/criterion
instances, with the same legality rules (e.g. BatchIsai requires the
BatchCsr format).

:func:`feature_matrix` reproduces Table 3 of the paper.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.matrix import BatchCsr, BatchDense, BatchEll, BatchedMatrix
from repro.core.matrix.conversions import convert
from repro.core.preconditioner import (
    BatchBlockJacobi,
    BatchIc0,
    BatchIdentity,
    BatchIlu,
    BatchIsai,
    BatchJacobi,
)
from repro.core.solver import (
    BatchBicg,
    BatchBicgstab,
    BatchCgs,
    BatchCg,
    BatchDirect,
    BatchGmres,
    BatchIterativeSolver,
    BatchRichardson,
    BatchSolveResult,
    BatchTrsv,
    SolverSettings,
)
from repro.core.stop import AbsoluteResidual, RelativeResidual
from repro.exceptions import UnsupportedCombinationError
from repro.instruments import use
from repro.observability.tracer import Tracer, current_tracer

#: Registered batched matrix formats.
FORMATS: dict[str, type] = {
    "dense": BatchDense,
    "csr": BatchCsr,
    "ell": BatchEll,
}

#: Registered batched solvers.
SOLVERS: dict[str, type] = {
    "cg": BatchCg,
    "bicg": BatchBicg,
    "bicgstab": BatchBicgstab,
    "cgs": BatchCgs,
    "gmres": BatchGmres,
    "richardson": BatchRichardson,
    "trsv": BatchTrsv,
    "direct": BatchDirect,
}

#: Registered batched preconditioners.
PRECONDITIONERS: dict[str, type] = {
    "identity": BatchIdentity,
    "jacobi": BatchJacobi,
    "block_jacobi": BatchBlockJacobi,
    "ic0": BatchIc0,
    "ilu": BatchIlu,
    "isai": BatchIsai,
}

#: Registered stopping criteria.
CRITERIA: dict[str, type] = {
    "absolute": AbsoluteResidual,
    "relative": RelativeResidual,
}

#: Preconditioners that only work with a specific matrix format
#: (Section 3: "BatchIsai needing the BatchCsr matrix format").
_FORMAT_RESTRICTED_PRECONDITIONERS: dict[str, str] = {"isai": "csr"}

#: Solvers that ignore the preconditioner (direct one-shot kernels).
_UNPRECONDITIONED_SOLVERS = frozenset({"trsv", "direct"})

#: Precision formats of the dispatch mechanism (Section 3.4: the fused
#: kernel is instantiated per precision format).
PRECISIONS: dict[str, type] = {"double": np.float64, "single": np.float32}


def feature_matrix() -> dict[str, list[str]]:
    """The batched feature-support table (Table 3 of the paper).

    The extra entries beyond the paper's table (richardson, direct,
    identity, block_jacobi) are the roadmap/baseline additions this
    library ships; the bench for Table 3 prints only the paper's rows.
    """
    return {
        "matrix_formats": sorted(FORMATS),
        "solvers": sorted(SOLVERS),
        "preconditioners": sorted(PRECONDITIONERS),
        "stopping_criteria": sorted(CRITERIA),
    }


@dataclass(frozen=True)
class ResolvedDispatch:
    """A fully-resolved Figure-3 dispatch: concrete classes, no lookups left.

    Produced once by :meth:`BatchSolverFactory.resolve`; building a solver
    from it (:meth:`build`) performs no string lookups, no legality checks
    and no registry access — which is what lets the serving layer's plan
    cache amortize dispatch resolution across repeated configurations.
    """

    solver_cls: type
    preconditioner_cls: type | None
    criterion_cls: type
    dtype: Any
    matrix_format: str
    tolerance: float
    max_iterations: int
    keep_history: bool
    solver_options: tuple[tuple[str, Any], ...]
    preconditioner_options: tuple[tuple[str, Any], ...]

    def prepare(self, matrix: BatchedMatrix) -> BatchedMatrix:
        """Convert ``matrix`` to the resolved format/precision (levels 1-2)."""
        if matrix.format_name != self.matrix_format:
            matrix = convert(matrix, self.matrix_format)
        wanted = np.dtype(self.dtype)
        if matrix.dtype != wanted:
            matrix = matrix.astype(wanted)
        return matrix

    def build(self, matrix: BatchedMatrix) -> BatchIterativeSolver:
        """Instantiate the solver for a matrix already in resolved form."""
        settings = SolverSettings(
            max_iterations=self.max_iterations,
            criterion=self.criterion_cls(self.tolerance),
            keep_history=self.keep_history,
        )
        precond = None
        if self.preconditioner_cls is not None:
            precond = self.preconditioner_cls(
                matrix, **dict(self.preconditioner_options)
            )
        return self.solver_cls(
            matrix,
            preconditioner=precond,
            settings=settings,
            **dict(self.solver_options),
        )


@dataclass
class BatchSolverFactory:
    """Runtime-configurable factory — the top of the dispatch tree.

    Example
    -------
    >>> factory = BatchSolverFactory(solver="bicgstab", preconditioner="jacobi",
    ...                              criterion="relative", tolerance=1e-10)
    >>> result = factory.solve(matrix, b)          # doctest: +SKIP
    """

    solver: str = "bicgstab"
    preconditioner: str = "identity"
    criterion: str = "relative"
    precision: str = "double"
    matrix_format: str | None = None
    tolerance: float = 1e-8
    max_iterations: int = 500
    keep_history: bool = False
    solver_options: dict[str, Any] = field(default_factory=dict)
    preconditioner_options: dict[str, Any] = field(default_factory=dict)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise UnsupportedCombinationError(
                f"unknown solver {self.solver!r}; available: {sorted(SOLVERS)}"
            )
        if self.preconditioner not in PRECONDITIONERS:
            raise UnsupportedCombinationError(
                f"unknown preconditioner {self.preconditioner!r}; "
                f"available: {sorted(PRECONDITIONERS)}"
            )
        if self.criterion not in CRITERIA:
            raise UnsupportedCombinationError(
                f"unknown stopping criterion {self.criterion!r}; "
                f"available: {sorted(CRITERIA)}"
            )
        if self.precision not in PRECISIONS:
            raise UnsupportedCombinationError(
                f"unknown precision {self.precision!r}; "
                f"available: {sorted(PRECISIONS)}"
            )
        if self.matrix_format is not None and self.matrix_format not in FORMATS:
            raise UnsupportedCombinationError(
                f"unknown matrix format {self.matrix_format!r}; "
                f"available: {sorted(FORMATS)}"
            )

    def resolve(self, matrix_format: str | None = None) -> ResolvedDispatch:
        """Resolve every dispatch level to concrete classes (Figure 3).

        ``matrix_format`` is the format of the matrix that will be solved
        (defaults to the factory's requested format); it is needed up front
        because the legality rules are format-dependent (e.g. BatchIsai
        requires BatchCsr).
        """
        fmt = matrix_format if matrix_format is not None else self.matrix_format
        if fmt is None:
            raise UnsupportedCombinationError(
                "resolve() needs a concrete matrix format: pass matrix_format= "
                "or configure the factory with one"
            )
        if fmt not in FORMATS:
            raise UnsupportedCombinationError(
                f"unknown matrix format {fmt!r}; available: {sorted(FORMATS)}"
            )
        required = _FORMAT_RESTRICTED_PRECONDITIONERS.get(self.preconditioner)
        if required is not None and fmt != required:
            raise UnsupportedCombinationError(
                f"preconditioner {self.preconditioner!r} requires the "
                f"{required!r} matrix format, got {fmt!r}"
            )
        if self.solver in _UNPRECONDITIONED_SOLVERS:
            if self.preconditioner != "identity":
                raise UnsupportedCombinationError(
                    f"solver {self.solver!r} is a direct kernel and does not "
                    f"accept a preconditioner (got {self.preconditioner!r})"
                )
            precond_cls = None
        else:
            precond_cls = PRECONDITIONERS[self.preconditioner]
        return ResolvedDispatch(
            solver_cls=SOLVERS[self.solver],
            preconditioner_cls=precond_cls,
            criterion_cls=CRITERIA[self.criterion],
            dtype=PRECISIONS[self.precision],
            matrix_format=fmt,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            keep_history=self.keep_history,
            solver_options=tuple(sorted(self.solver_options.items())),
            preconditioner_options=tuple(sorted(self.preconditioner_options.items())),
        )

    def create(self, matrix: BatchedMatrix) -> BatchIterativeSolver:
        """Instantiate the fully-dispatched solver for ``matrix``.

        When the factory requests a different matrix format or precision
        than the input carries, the matrix is converted first (dispatch
        levels 1-2 of Figure 3).
        """
        target_format = (
            self.matrix_format if self.matrix_format is not None else matrix.format_name
        )
        resolved = self.resolve(target_format)
        matrix = resolved.prepare(matrix)
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if tracer.enabled:
            # the resolved dispatch tuple (Figure 3 levels 1-5)
            tracer.annotate(
                solver=self.solver,
                preconditioner=self.preconditioner,
                criterion=self.criterion,
                precision=self.precision,
                matrix_format=matrix.format_name,
            )
            tracer.metrics.counter(
                f"dispatch.{self.solver}.{matrix.format_name}.{self.precision}"
            ).inc()
        return resolved.build(matrix)

    def solve(
        self, matrix: BatchedMatrix, b, x0=None
    ) -> BatchSolveResult:
        """One-call dispatch-and-solve.

        When the factory carries a ``tracer`` it is installed for the
        whole call, so the dispatch span encloses the solver and
        fused-kernel spans the lower layers emit.
        """
        with nullcontext() if self.tracer is None else use(tracer=self.tracer):
            tracer = current_tracer()
            with tracer.span(
                "dispatch.solve",
                category="dispatch",
                solver=self.solver,
                preconditioner=self.preconditioner,
                criterion=self.criterion,
                precision=self.precision,
                tolerance=self.tolerance,
                max_iterations=self.max_iterations,
            ):
                return self.create(matrix).solve(b, x0=x0)


def dispatch_solve(
    matrix: BatchedMatrix,
    b,
    x0=None,
    solver: str = "bicgstab",
    preconditioner: str = "identity",
    criterion: str = "relative",
    tolerance: float = 1e-8,
    max_iterations: int = 500,
    tracer: Tracer | None = None,
    **solver_options: Any,
) -> BatchSolveResult:
    """Functional façade over :class:`BatchSolverFactory`."""
    factory = BatchSolverFactory(
        solver=solver,
        preconditioner=preconditioner,
        criterion=criterion,
        tolerance=tolerance,
        max_iterations=max_iterations,
        solver_options=solver_options,
        tracer=tracer,
    )
    return factory.solve(matrix, b, x0=x0)

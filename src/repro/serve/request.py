"""Single-system solve requests, batch-compatibility keys, and tickets.

The service accepts *one linear system per request* — the unit the
motivating applications produce (one cell's chemistry system, one
integrator step) — and regroups them into the batches the paper's fused
kernels want. Two requests may share a fused kernel launch only if every
dispatch-relevant property matches: matrix format, system size, sparsity
pattern (the batched formats store the pattern once for the whole batch),
solver, preconditioner, stopping criterion, tolerance, iteration budget
and precision. :class:`BatchKey` captures exactly that tuple.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.dispatch import CRITERIA, FORMATS, PRECISIONS, PRECONDITIONERS, SOLVERS
from repro.core.solver.base import BatchSolveResult
from repro.observability.context import TraceContext, mint_context
from repro.serve.qos import DEFAULT_TENANT, PRIORITIES
from repro.core.matrix import BatchCsr, BatchDense, BatchedMatrix
from repro.exceptions import (
    BadSparsityPatternError,
    DimensionMismatchError,
    UnsupportedCombinationError,
)

if TYPE_CHECKING:
    from repro.serve.workers import Worker

#: Ticket lifecycle states.
PENDING = "pending"
DONE = "done"
FAILED = "failed"
TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class BatchKey:
    """The compatibility class of a request — equal keys may co-batch.

    ``pattern_token`` is a digest of the sparsity pattern (row pointers +
    column indices for CSR; the shape for dense), so requests only group
    when they can share the batched formats' single stored pattern.
    """

    matrix_format: str
    num_rows: int
    pattern_token: str
    solver: str
    preconditioner: str
    criterion: str
    precision: str
    tolerance: float
    max_iterations: int

    def dispatch_key(self) -> tuple:
        """The Figure-3 dispatch part of the key (plan-cache component)."""
        return (
            self.solver,
            self.preconditioner,
            self.criterion,
            self.precision,
            self.matrix_format,
            self.tolerance,
            self.max_iterations,
        )


class SolveRequest:
    """One linear system ``A x = b`` plus its solver configuration.

    ``a`` may be a dense 2-D ndarray or any scipy sparse matrix; sparse
    inputs are normalized to CSR on construction (shared-pattern hashing
    needs a canonical form). ``matrix_format`` forces the batched storage
    format ("dense", "csr", "ell"); by default sparse inputs serve as CSR
    and dense inputs as dense.
    """

    __slots__ = (
        "b",
        "x0",
        "solver",
        "preconditioner",
        "criterion",
        "tolerance",
        "max_iterations",
        "precision",
        "matrix_format",
        "row_ptrs",
        "col_idxs",
        "values",
        "dense",
        "num_rows",
        "batch_key",
        "trace_context",
        "tenant",
        "priority",
    )

    def __init__(
        self,
        a: Any,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        solver: str = "bicgstab",
        preconditioner: str = "identity",
        criterion: str = "relative",
        tolerance: float = 1e-8,
        max_iterations: int = 500,
        precision: str = "double",
        matrix_format: str | None = None,
        trace_context: TraceContext | None = None,
        tenant: str = DEFAULT_TENANT,
        priority: str = "normal",
    ) -> None:
        if solver not in SOLVERS:
            raise UnsupportedCombinationError(
                f"unknown solver {solver!r}; available: {sorted(SOLVERS)}"
            )
        if preconditioner not in PRECONDITIONERS:
            raise UnsupportedCombinationError(
                f"unknown preconditioner {preconditioner!r}; "
                f"available: {sorted(PRECONDITIONERS)}"
            )
        if criterion not in CRITERIA:
            raise UnsupportedCombinationError(
                f"unknown stopping criterion {criterion!r}; available: {sorted(CRITERIA)}"
            )
        if precision not in PRECISIONS:
            raise UnsupportedCombinationError(
                f"unknown precision {precision!r}; available: {sorted(PRECISIONS)}"
            )
        if matrix_format is not None and matrix_format not in FORMATS:
            raise UnsupportedCombinationError(
                f"unknown matrix format {matrix_format!r}; available: {sorted(FORMATS)}"
            )
        if priority not in PRIORITIES:
            raise UnsupportedCombinationError(
                f"unknown priority {priority!r}; available: {list(PRIORITIES)}"
            )
        if not tenant:
            raise ValueError("tenant must be a non-empty string")
        self.tenant = tenant
        self.priority = priority
        self.solver = solver
        self.preconditioner = preconditioner
        self.criterion = criterion
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.precision = precision

        self._ingest_matrix(a, matrix_format)

        # copies, like the matrix arrays: a caller may reuse its buffers
        # while the request is still queued
        b = np.array(b, dtype=np.float64)
        if b.shape != (self.num_rows,):
            raise DimensionMismatchError(
                f"b must have shape ({self.num_rows},), got {b.shape}"
            )
        self.b = b
        if x0 is not None:
            x0 = np.array(x0, dtype=np.float64)
            if x0.shape != (self.num_rows,):
                raise DimensionMismatchError(
                    f"x0 must have shape ({self.num_rows},), got {x0.shape}"
                )
        self.x0 = x0
        self.batch_key = self._compute_key()
        # every request is born with its own trace identity; upstream
        # callers that already carry one (a client retry, a multi-hop
        # pipeline) pass it in and the journey keeps one trace_id
        self.trace_context = trace_context if trace_context is not None else mint_context()

    @property
    def request_id(self) -> str:
        """Human-scannable identity of this request (from its trace context)."""
        return self.trace_context.request_id

    # -- matrix normalization -----------------------------------------------

    def _ingest_matrix(self, a: Any, matrix_format: str | None) -> None:
        if sp.issparse(a):
            fmt = matrix_format or "csr"
        else:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionMismatchError(
                    f"request matrix must be square 2-D, got shape {getattr(a, 'shape', None)}"
                )
            fmt = matrix_format or "dense"
        self.matrix_format = fmt

        if fmt == "dense":
            dense = a.toarray() if sp.issparse(a) else a
            self.dense = np.array(dense, dtype=np.float64, order="C")
            self.num_rows = self.dense.shape[0]
            self.row_ptrs = None
            self.col_idxs = None
            self.values = None
        else:
            # "csr" and "ell" both assemble through the shared-pattern CSR
            # triplet; ELL conversion happens batch-wise at dispatch.
            csr = sp.csr_matrix(a) if not sp.issparse(a) else a.tocsr()
            if csr.shape[0] != csr.shape[1]:
                raise DimensionMismatchError(
                    f"request matrix must be square, got shape {csr.shape}"
                )
            if not _is_canonical_csr(csr.indptr, csr.indices, csr.data):
                csr = csr.sorted_indices()
                csr.eliminate_zeros()
            if csr.nnz == 0:
                raise BadSparsityPatternError("request matrix has no stored entries")
            self.dense = None
            self.num_rows = csr.shape[0]
            self.row_ptrs = csr.indptr.astype(np.int32)
            self.col_idxs = csr.indices.astype(np.int32)
            self.values = csr.data.astype(np.float64)

    def _compute_key(self) -> BatchKey:
        if self.matrix_format == "dense":
            token = f"dense:{self.num_rows}"
        else:
            digest = hashlib.sha1(self.row_ptrs.tobytes())
            digest.update(self.col_idxs.tobytes())
            token = digest.hexdigest()[:16]
        return BatchKey(
            matrix_format=self.matrix_format,
            num_rows=self.num_rows,
            pattern_token=token,
            solver=self.solver,
            preconditioner=self.preconditioner,
            criterion=self.criterion,
            precision=self.precision,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        )

    def __repr__(self) -> str:
        return (
            f"SolveRequest(n={self.num_rows}, format={self.matrix_format!r}, "
            f"solver={self.solver!r}, preconditioner={self.preconditioner!r})"
        )


def _is_canonical_csr(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> bool:
    """True when sorting and pruning would leave a CSR triplet unchanged.

    That is: ``indptr`` starts at 0 and never decreases, nothing is stored
    past ``indptr[-1]``, no stored value is zero (``-0.0`` included; NaN
    is not zero) and column indices never decrease within a row. Reads
    the arrays, never SciPy's cached ``has_sorted_indices`` flag, which
    goes stale when a caller edits ``indices`` in place.
    """
    nnz = indices.size
    if not (indptr[0] == 0 and indptr[-1] == nnz == data.size):
        return False
    if np.count_nonzero(data) != nnz or not (indptr[1:] >= indptr[:-1]).all():
        return False
    ascending = np.empty(nnz + 1, dtype=bool)
    np.greater_equal(indices[1:], indices[:-1], out=ascending[1:nnz])
    ascending[indptr] = True  # a row may start below where the last one ended
    return bool(ascending.all())


def assemble_batch(
    requests: list[SolveRequest],
) -> tuple[BatchedMatrix, np.ndarray, np.ndarray | None]:
    """Coalesce compatible requests into one batched system.

    Returns ``(matrix, b, x0)`` where ``x0`` is ``None`` when no request
    carries an initial guess (requests without one get a zero guess when
    any co-batched request has one). The caller guarantees the requests
    share a :class:`BatchKey`; the shared sparsity pattern is re-verified
    here against request 0 — a digest collision must not silently stack
    values of different patterns.
    """
    if not requests:
        raise ValueError("assemble_batch needs at least one request")
    first = requests[0]
    if first.matrix_format == "dense":
        matrix: BatchedMatrix = BatchDense(np.stack([r.dense for r in requests]))
    else:
        i = _first_pattern_mismatch(requests)
        if i is not None:
            raise BadSparsityPatternError(
                f"request {i} does not share the sparsity pattern of request 0 "
                "(pattern-digest collision)"
            )
        matrix = BatchCsr(
            first.row_ptrs,
            first.col_idxs,
            np.stack([r.values for r in requests]),
            num_cols=first.num_rows,
        )
    b = np.stack([r.b for r in requests])
    if any(r.x0 is not None for r in requests):
        x0 = np.stack(
            [r.x0 if r.x0 is not None else np.zeros(r.num_rows) for r in requests]
        )
    else:
        x0 = None
    return matrix, b, x0


def _first_pattern_mismatch(requests: list[SolveRequest]) -> int | None:
    """Index of the first CSR request whose pattern differs from request 0's.

    Each array is checked with one stacked comparison. Equal row pointers
    mean an equal stored-entry count (their last entry), so the column
    indices of the requests before the first row-pointer mismatch stack.
    """
    first = requests[0]
    end = next(
        (
            i
            for i, r in enumerate(requests)
            if r.row_ptrs is None or r.num_rows != first.num_rows
        ),
        len(requests),
    )
    same = (np.stack([r.row_ptrs for r in requests[:end]]) == first.row_ptrs).all(axis=1)
    if not same.all():
        end = int(np.argmin(same))
    same = (np.stack([r.col_idxs for r in requests[:end]]) == first.col_idxs).all(axis=1)
    if not same.all():
        end = int(np.argmin(same))
    return None if end == len(requests) else end


@dataclass
class SolveOutcome:
    """What a completed request hands back to its caller."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    solver_name: str
    used_fallback: bool
    batch_size: int
    queue_wait_ms: float
    solve_ms: float
    worker: str
    plan_cache_hit: bool
    trace_id: str = ""
    request_id: str = ""

    @classmethod
    def answering(
        cls, ticket: SolveTicket, result: BatchSolveResult, j: int, **facts: Any
    ) -> SolveOutcome:
        """System ``j`` of ``result`` answers ``ticket`` (``x`` copied, never
        a view into the batch); ``facts`` are the flush-level fields."""
        return cls(
            x=result.x[j].copy(),
            iterations=int(result.iterations[j]),
            residual_norm=float(result.residual_norms[j]),
            converged=bool(result.converged[j]),
            solver_name=result.solver_name,
            queue_wait_ms=(ticket.queue_wait_ns or 0) / 1e6,
            **facts,
        )

    def __repr__(self) -> str:
        return (
            f"SolveOutcome(solver={self.solver_name!r}, converged={self.converged}, "
            f"iterations={self.iterations}, batch_size={self.batch_size}, "
            f"fallback={self.used_fallback}, request_id={self.request_id!r})"
        )


@dataclass(frozen=True)
class FlushRecord:
    """One solved flush, built right after its batch solve: the value its
    recorder entry (so the postmortem's flush -> victims join), direct-LU
    fallbacks and scatter are built from. Its span args and metrics are
    still written separately. A flush that fails as a whole builds none.
    """

    flush_id: str
    reason: str
    worker: Worker
    #: the live (not timed-out) tickets, in batch order
    tickets: tuple[SolveTicket, ...]
    plan_cache_hit: bool
    solve_ms: float
    result: BatchSolveResult

    @property
    def trace_ids(self) -> list[str]:
        """The victims' trace ids, one per system, in batch order."""
        return [t.trace_context.trace_id for t in self.tickets]


class SolveTicket:
    """The caller's handle on one submitted request (a promise).

    Completion is signalled through a :class:`threading.Event`; callers
    block in :meth:`result`. The service stamps queue/solve timings onto
    the ticket as the request moves through the pipeline.
    """

    def __init__(
        self,
        request: SolveRequest,
        submitted_ns: int,
        deadline_ns: int | None = None,
    ) -> None:
        self.request = request
        self.submitted_ns = submitted_ns
        self.deadline_ns = deadline_ns
        self.flushed_ns: int | None = None
        self.status = PENDING
        self._event = threading.Event()
        self._outcome: SolveOutcome | None = None
        self._error: Exception | None = None

    # -- caller side ---------------------------------------------------------

    def done(self) -> bool:
        """True once the request has completed (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SolveOutcome:
        """Block until the request completes; raise its failure if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request not served within {timeout} s (status {self.status!r})"
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    def exception(self, timeout: float | None = None) -> Exception | None:
        """Block until completion; return the failure (None on success)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request not served within {timeout} s (status {self.status!r})"
            )
        return self._error

    @property
    def trace_context(self) -> TraceContext:
        """The request's trace identity (shortcut for service code)."""
        return self.request.trace_context

    @property
    def queue_wait_ns(self) -> int | None:
        """Nanoseconds between submission and flush (None before flush)."""
        if self.flushed_ns is None:
            return None
        return self.flushed_ns - self.submitted_ns

    def expired(self, now_ns: int) -> bool:
        """True when the per-request deadline has passed."""
        return self.deadline_ns is not None and now_ns > self.deadline_ns

    # -- service side --------------------------------------------------------

    def _complete(self, outcome: SolveOutcome) -> None:
        self._outcome = outcome
        self.status = DONE
        self._event.set()

    def _fail(self, error: Exception, status: str = FAILED) -> None:
        self._error = error
        self.status = status
        self._event.set()

    def __repr__(self) -> str:
        return f"SolveTicket(status={self.status!r}, request={self.request!r})"


def monotonic_ns() -> int:
    """The service clock (monotonic, integer nanoseconds)."""
    return time.monotonic_ns()

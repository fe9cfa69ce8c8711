"""repro.serve — an async batched-solver service over the paper's kernels.

The repository's solvers consume *pre-assembled batches*; real workloads
(the paper's combustion/integrator applications, or any request-serving
deployment) produce *individual systems*. This package closes that gap:

* :mod:`repro.serve.request` — one-system :class:`SolveRequest`,
  compatibility :class:`BatchKey` (format x shape x sparsity pattern x
  solver x preconditioner x criterion x tolerance x precision),
  :class:`SolveTicket` promises and :class:`SolveOutcome` responses.
* :mod:`repro.serve.batcher` — the dynamic micro-batcher: per-key buckets
  flushing on max-batch-size or max-wait-deadline.
* :mod:`repro.serve.plan_cache` — the resolved Figure-3 dispatch cached
  per dispatch tuple (hit/miss metrics).
* :mod:`repro.serve.workers` — a worker pool, one thread per simulated
  device queue/stream; flushes run as host tasks on the device timeline.
* :mod:`repro.serve.service` — :class:`SolverService`: admission control
  with backpressure, per-request timeouts, direct-LU fallback degradation,
  tracer spans for every stage.

Quickstart::

    from repro.serve import ServeConfig, SolveRequest, SolverService

    with SolverService(ServeConfig(max_batch_size=32, max_wait_ms=1.0)) as svc:
        tickets = [svc.submit(SolveRequest(a_i, b_i, solver="cg",
                                           preconditioner="jacobi"))
                   for a_i, b_i in systems]
        solutions = [t.result(timeout=10.0).x for t in tickets]
"""

from repro.serve.batcher import DEADLINE, DRAIN, SIZE, FlushBatch, MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.qos import PRIORITIES, FairShareLedger
from repro.serve.plan_cache import ExecutionPlan, PlanCache
from repro.serve.request import (
    BatchKey,
    SolveOutcome,
    SolveRequest,
    SolveTicket,
    assemble_batch,
)
from repro.serve.service import SolverService
from repro.serve.workers import Worker, WorkerPool

__all__ = [
    "BatchKey",
    "CircuitBreaker",
    "DEADLINE",
    "DRAIN",
    "ExecutionPlan",
    "FairShareLedger",
    "FlushBatch",
    "MicroBatcher",
    "PRIORITIES",
    "PlanCache",
    "ServeConfig",
    "SIZE",
    "SolveOutcome",
    "SolveRequest",
    "SolveTicket",
    "SolverService",
    "Worker",
    "WorkerPool",
    "assemble_batch",
]

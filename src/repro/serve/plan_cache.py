"""The plan cache: the resolved Figure-3 dispatch, keyed by dispatch tuple.

Under a request workload the same handful of configurations recur
endlessly (the motivating applications solve the *same* chemistry system
shape for every cell, every step). Re-walking the Figure-3 dispatch tree
for every flush is pure overhead, so the service resolves each dispatch
tuple (:meth:`~repro.serve.request.BatchKey.dispatch_key`) once into an
:class:`ExecutionPlan` — concrete solver / preconditioner / criterion
classes — and builds each flush's solver from it. Neither the device nor
the row count changes the resolved dispatch, so neither is part of the
key; a flush's launch geometry is chosen by the launch that uses it.

Hit/miss/eviction counters land in a
:class:`~repro.observability.metrics.MetricsRegistry` (the service's), so
cache effectiveness shows up in the same place as the rest of the serve
telemetry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.dispatch import BatchSolverFactory, ResolvedDispatch
from repro.core.matrix.base import BatchedMatrix
from repro.core.solver.base import BatchIterativeSolver
from repro.observability.metrics import MetricsRegistry
from repro.serve.request import BatchKey


@dataclass(frozen=True)
class ExecutionPlan:
    """What dispatch resolution produces for one configuration."""

    resolved: ResolvedDispatch

    def build_solver(self, matrix: BatchedMatrix) -> BatchIterativeSolver:
        """Instantiate the solver for an assembled flush (no re-resolution)."""
        return self.resolved.build(self.resolved.prepare(matrix))


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` objects (thread-safe)."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        capacity: int = 256,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self._lock = threading.Lock()

    def plan_for(self, key: BatchKey) -> tuple[ExecutionPlan, bool]:
        """The execution plan for one compatibility class; ``(plan, hit)``.

        On a miss the full resolution runs — factory validation and
        registry lookups — and the result is cached; on a hit nothing but
        an ordered-dict move happens.
        """
        dispatch = key.dispatch_key()
        with self._lock:
            plan = self._plans.get(dispatch)
            if plan is not None:
                self._plans.move_to_end(dispatch)
                self.metrics.counter("serve.plan_cache.hits").inc()
                return plan, True

        # Resolution happens outside the lock: it is pure computation on
        # immutable inputs, so two racing misses at worst resolve twice.
        plan = self._resolve(key)
        with self._lock:
            self._plans[dispatch] = plan
            self._plans.move_to_end(dispatch)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.metrics.counter("serve.plan_cache.evictions").inc()
            self.metrics.counter("serve.plan_cache.misses").inc()
        return plan, False

    @staticmethod
    def _resolve(key: BatchKey) -> ExecutionPlan:
        factory = BatchSolverFactory(
            solver=key.solver,
            preconditioner=key.preconditioner,
            criterion=key.criterion,
            precision=key.precision,
            matrix_format=key.matrix_format,
            tolerance=key.tolerance,
            max_iterations=key.max_iterations,
        )
        return ExecutionPlan(resolved=factory.resolve(key.matrix_format))

    # -- introspection -----------------------------------------------------------

    @property
    def hits(self) -> int:
        """Number of cache hits so far."""
        return int(self.metrics.counter("serve.plan_cache.hits").value)

    @property
    def misses(self) -> int:
        """Number of cache misses so far."""
        return int(self.metrics.counter("serve.plan_cache.misses").value)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

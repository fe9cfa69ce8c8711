"""The async batched-solver service: admission → micro-batch → solve → scatter.

:class:`SolverService` is the request-level realization of the paper's
fusion argument: individual solve requests are admitted into bounded
queues, coalesced by the dynamic micro-batcher into shared-pattern batches,
dispatched through the plan cache onto a worker pool of simulated devices,
and scattered back into per-request outcomes. Every stage emits tracer
spans (``serve.flush`` > ``serve.assembly`` / ``serve.solve`` /
``serve.fallback`` / ``serve.scatter``) and metrics on the service's
:class:`~repro.observability.metrics.MetricsRegistry`.

Robustness behaviours:

* **Backpressure** — past ``max_pending`` admitted-but-incomplete requests,
  :meth:`submit` raises :class:`~repro.exceptions.ServiceSaturatedError`
  carrying a retry-after hint; nothing is enqueued.
* **Per-request timeout** — a request whose deadline passes while it is
  still queued completes with
  :class:`~repro.exceptions.RequestTimeoutError` at flush time instead of
  being solved.
* **Graceful degradation** — a request that fails or does not converge in
  its flushed batch is retried individually with the direct-LU fallback
  solver; its co-batched neighbours are unaffected.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace as dc_replace

import numpy as np

from repro.chaos.injector import ChaosInjector
from repro.core.solver.base import BatchSolveResult
from repro.core.stop import RelativeResidual
from repro.cudasim.device import CudaDevice
from repro.exceptions import (
    CircuitOpenError,
    QuotaExceededError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.instruments import current, use
from repro.kernels import KERNEL_PRECONDITIONERS, KERNEL_SOLVERS, solve_fused
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer, current_tracer
from repro.recorder.classify import solve_summary
from repro.recorder.recorder import (
    TRIGGER_BREAKER_OPEN,
    TRIGGER_ERROR_5XX,
    TRIGGER_SANITIZER_TRIP,
    FlightRecorder,
)
from repro.telemetry.events import (
    BREAKER_CLOSE,
    BREAKER_OPEN,
    QUOTA_REJECTED,
    REQUEST_ADMITTED,
    REQUEST_FAILED,
    REQUEST_FALLBACK,
    REQUEST_REJECTED,
    REQUEST_SOLVED,
    REQUEST_TIMED_OUT,
    SANITIZER_TRIP,
    EventLog,
)
from repro.serve.batcher import FlushBatch, MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import (
    EVENT_LOG_CAPACITY,
    PLAN_CACHE_CAPACITY,
    RETRY_AFTER_MS,
    ServeConfig,
)
from repro.serve.plan_cache import ExecutionPlan, PlanCache
from repro.serve.request import (
    TIMED_OUT,
    FlushRecord,
    SolveOutcome,
    SolveRequest,
    SolveTicket,
    assemble_batch,
    monotonic_ns,
)
from repro.serve.workers import Worker, WorkerPool
from repro.sycl.device import SyclDevice


class SolverService:
    """Serve individual solve requests through the batched solvers.

    Usage::

        with SolverService(ServeConfig(max_batch_size=32)) as service:
            tickets = [service.submit(req) for req in requests]
            outcomes = [t.result(timeout=5.0) for t in tickets]

    The service captures the installed observers
    (:func:`repro.instruments.current`) when it is built; explicit
    ``tracer``, ``chaos`` and ``recorder`` arguments override them. Every
    flush runs under that record, whichever thread issued it, so traces
    show queue-wait, assembly, solve and scatter spans on per-worker lanes.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        device: SyclDevice | None = None,
        tracer: Tracer | None = None,
        chaos: ChaosInjector | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        explicit = {"tracer": tracer, "chaos": chaos, "recorder": recorder}
        self._instruments = dc_replace(
            current(), **{k: v for k, v in explicit.items() if v is not None}
        )
        self.chaos = self._instruments.chaos
        self.recorder = self._instruments.recorder
        self.metrics = MetricsRegistry()
        if self._instruments.hub is not None:
            self._instruments.hub.register(self.metrics)
        self.events = self._instruments.events
        if self.events is None:
            # a private bounded ring, tapping this service's own recorder
            # so a fleet shard's events land in its per-shard black box
            self.events = EventLog(capacity=EVENT_LOG_CAPACITY)
            self.events.recorder = self.recorder
        self.plan_cache = PlanCache(metrics=self.metrics, capacity=PLAN_CACHE_CAPACITY)
        self.batcher = MicroBatcher(
            self.config.max_batch_size,
            self.config.max_wait_ns,
            fair_share=self.config.fair_share,
        )
        self.pool = WorkerPool(
            self.config.num_workers, backend=self.config.backend, device=device
        )
        self.breaker = (
            CircuitBreaker(
                window=self.config.breaker_window,
                min_events=self.config.breaker_min_events,
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                on_open=self._on_breaker_open,
                on_close=self._on_breaker_close,
            )
            if self.config.breaker_enabled
            else None
        )
        self._pending = 0
        self._tenant_pending: dict[str, int] = {}
        self._closed = False
        self._pool_closing = False
        self._state = threading.Condition()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="serve-flusher", daemon=True
        )
        self._flusher.start()

    # -- admission -------------------------------------------------------------

    def submit(self, request: SolveRequest) -> SolveTicket:
        """Admit one request; returns its ticket or raises on backpressure.

        Raises :class:`ServiceSaturatedError` (with ``retry_after_s``) when
        ``max_pending`` requests are in flight,
        :class:`~repro.exceptions.QuotaExceededError` when the request's
        tenant is over its per-tenant quota, :class:`ServiceClosedError`
        after :meth:`close`.
        """
        self._stamp_sampling(request)
        tenant = request.tenant
        # one critical section admits, parks and (on a size flush) enqueues
        # the request: close() sets _closed under the same lock, so every
        # ticket it does not refuse is in the batcher or the pool before
        # close() drains them
        with self._state:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._pending >= self.config.max_pending:
                self.metrics.counter("serve.rejected").inc()
                self.events.emit(
                    REQUEST_REJECTED,
                    ctx=request.trace_context,
                    critical=True,
                    pending=self._pending,
                    max_pending=self.config.max_pending,
                )
                raise ServiceSaturatedError(
                    f"service saturated: {self._pending} requests pending "
                    f"(max_pending={self.config.max_pending})",
                    retry_after_s=RETRY_AFTER_MS / 1e3,
                )
            quota = self.config.quota_for(tenant)
            tenant_pending = self._tenant_pending.get(tenant, 0)
            if quota is not None and tenant_pending >= quota:
                self.metrics.counter("serve.quota_rejected").labels(
                    tenant=tenant
                ).inc()
                self.events.emit(
                    QUOTA_REJECTED,
                    ctx=request.trace_context,
                    critical=True,
                    tenant=tenant,
                    pending=tenant_pending,
                    quota=quota,
                )
                raise QuotaExceededError(
                    f"tenant {tenant!r} over quota: {tenant_pending} requests "
                    f"pending (quota={quota})",
                    tenant=tenant,
                    retry_after_s=RETRY_AFTER_MS / 1e3,
                )
            self._pending += 1
            self._tenant_pending[tenant] = tenant_pending + 1
            self.metrics.gauge("serve.pending").set(self._pending)
            self.metrics.gauge("serve.tenant_pending").labels(tenant=tenant).set(
                self._tenant_pending[tenant]
            )

            now = monotonic_ns()
            timeout_ns = self.config.request_timeout_ns
            ticket = SolveTicket(
                request,
                submitted_ns=now,
                deadline_ns=None if timeout_ns is None else now + timeout_ns,
            )
            self.metrics.counter("serve.accepted").inc()
            self.events.emit(
                REQUEST_ADMITTED,
                ctx=request.trace_context,
                solver=request.solver,
                num_rows=request.num_rows,
                matrix_format=request.matrix_format,
            )
            flush, opened = self.batcher.offer(ticket)
            if flush is not None:
                self._dispatch(flush)
            elif opened:
                # only a new bucket can give the flusher an earlier deadline
                self._state.notify_all()
        return ticket

    def solve(self, request: SolveRequest, timeout: float | None = None) -> SolveOutcome:
        """Submit one request and block for its outcome (convenience)."""
        return self.submit(request).result(timeout)

    def _stamp_sampling(self, request: SolveRequest) -> None:
        """Apply the head-sampling decision to the request's trace context.

        Deterministic in the trace id (hash-mod, like W3C trace-flags
        propagation), so a request is sampled consistently by every
        component that sees it — and re-submission keeps the decision.
        """
        rate = self.config.telemetry_sample_rate
        ctx = request.trace_context
        if rate >= 1.0:
            sampled = True
        elif rate <= 0.0:
            sampled = False
        else:
            sampled = int(ctx.trace_id[:8], 16) < rate * 0x1_0000_0000
        if sampled != ctx.sampled:
            request.trace_context = ctx.with_sampled(sampled)

    # -- flush scheduling ---------------------------------------------------------

    def flush(self) -> None:
        """Force-flush every accumulating bucket now (benchmarks, shutdown)."""
        for flush in self.batcher.drain():
            self._dispatch(flush)

    def _flush_loop(self) -> None:
        while True:
            with self._state:
                if self._closed:
                    return
                deadline = self.batcher.next_deadline_ns()
                if deadline is None:
                    self._state.wait()
                else:
                    wait_s = max(0.0, (deadline - monotonic_ns()) / 1e9)
                    self._state.wait(timeout=wait_s)
                if self._closed:
                    return
            for flush in self.batcher.due():
                self._dispatch(flush)

    def _dispatch(self, flush: FlushBatch) -> None:
        # enqueue under the same lock close() raises _pool_closing under:
        # a job enqueued once the pool's stop sentinels are queued would
        # never run and its tickets would hang
        with self._state:
            if self._pool_closing:
                for ticket in flush.tickets:
                    self._finish_fail(
                        ticket, ServiceClosedError("service closed before flush")
                    )
                return
            self.metrics.counter("serve.flushes").inc()
            self.metrics.counter(f"serve.flushes.{flush.reason}").inc()
            self.metrics.log_histogram("serve.batch_size").observe(flush.size)
            self.pool.submit(lambda worker: self._execute_flush(flush, worker))

    def _fail_parked(self) -> None:
        """Fail every ticket still parked in the batcher (abort/close paths)."""
        for flush in self.batcher.drain():
            for ticket in flush.tickets:
                self._finish_fail(
                    ticket, ServiceClosedError("service closed before flush")
                )

    # -- flush execution ------------------------------------------------------------

    def _execute_flush(self, flush: FlushBatch, worker: Worker) -> None:
        with use(**vars(self._instruments)):
            tracer = current_tracer()
            now = monotonic_ns()
            key = flush.key
            with tracer.span(
                "serve.flush",
                category="serve",
                tid=worker.lane,
                batch_size=flush.size,
                reason=flush.reason,
                flush_id=flush.flush_id,
                solver=key.solver,
                preconditioner=key.preconditioner,
                matrix_format=key.matrix_format,
                num_rows=key.num_rows,
                worker=worker.name,
            ) as span:
                live: list[SolveTicket] = []
                waits_ms: list[float] = []
                for ticket in flush.tickets:
                    ticket.flushed_ns = now
                    if ticket.expired(now):
                        self.metrics.counter("serve.timeouts").inc()
                        self._finish_fail(
                            ticket,
                            RequestTimeoutError(
                                f"request spent {(now - ticket.submitted_ns) / 1e6:.1f} ms "
                                "queued, past its timeout"
                            ),
                            status=TIMED_OUT,
                        )
                    else:
                        waits_ms.append((now - ticket.submitted_ns) / 1e6)
                        # batch fan-in: the shared flush span belongs to no
                        # single request, so it *links* every live request's
                        # root context (OpenTelemetry span links)
                        span.link(ticket.trace_context)
                        live.append(ticket)
                if not live:
                    span.set("all_timed_out", True)
                    return
                self.metrics.log_histogram("serve.queue_wait_hdr_ms").observe_many(waits_ms)

                try:
                    with tracer.span("serve.assembly", category="serve", tid=worker.lane):
                        matrix, b, x0 = assemble_batch([t.request for t in live])
                    if self.chaos is not None:
                        # the fault-injection point: may delay the worker,
                        # corrupt the assembled batch, or raise (taking the
                        # whole-flush failure path below)
                        self.chaos.on_flush(self, flush, worker, matrix, b)
                    with tracer.span(
                        "serve.plan", category="serve", tid=worker.lane
                    ) as plan_span:
                        plan, cache_hit = self.plan_cache.plan_for(key)
                        plan_span.set("cache_hit", cache_hit)
                    span.set("plan_cache_hit", cache_hit)
                    solve_start = monotonic_ns()
                    with tracer.span(
                        "serve.solve",
                        category="serve",
                        tid=worker.lane,
                        device=worker.device_name,
                    ):
                        result = self._solve_batch(plan, matrix, b, x0, worker)
                    solve_ms = (monotonic_ns() - solve_start) / 1e6
                    self.metrics.log_histogram("serve.flush_solve_hdr_ms").observe(
                        solve_ms
                    )
                    self.metrics.counter("serve.flush_solves").labels(
                        backend=self.config.backend, solver=key.solver
                    ).inc()
                except Exception as exc:  # whole-flush failure → per-request rescue
                    self.metrics.counter("serve.flush_failures").inc()
                    span.set("error", type(exc).__name__)
                    self._attribute_failure(exc, live, flush)
                    self._rescue_flush(live, exc, worker, flush, tracer)
                    return

                record = FlushRecord(
                    flush_id=flush.flush_id,
                    reason=flush.reason,
                    worker=worker,
                    tickets=tuple(live),
                    plan_cache_hit=cache_hit,
                    solve_ms=solve_ms,
                    result=result,
                )
                if self.recorder is not None:
                    self._record_forensics(record, plan)
                fallbacks, failed_retries = self._apply_fallbacks(record, tracer)
                self._scatter(record, fallbacks, failed_retries, tracer)

    def _scatter(
        self,
        record: FlushRecord,
        fallbacks: dict[int, BatchSolveResult],
        failed_retries: int,
        tracer: Tracer,
    ) -> None:
        """System i answers ticket i unless its direct-LU retry did."""
        with tracer.span("serve.scatter", category="serve", tid=record.worker.lane):
            answers = []
            for i, ticket in enumerate(record.tickets):
                if ticket.done():  # its direct-LU retry failed or was shed
                    continue
                fallback = fallbacks.get(i)
                source, j = (record.result, i) if fallback is None else (fallback, 0)
                outcome = SolveOutcome.answering(
                    ticket,
                    source,
                    j,
                    used_fallback=fallback is not None,
                    batch_size=len(record.tickets),
                    solve_ms=record.solve_ms,
                    worker=record.worker.device_name,
                    plan_cache_hit=record.plan_cache_hit,
                )
                answers.append((i, ticket, outcome))
            self._answer(answers, record.flush_id, failed_retries, tracer, record.worker.lane)

    def _answer(
        self,
        answers: list[tuple[int, SolveTicket, SolveOutcome]],
        flush_id: str,
        failed_retries: int,
        tracer: Tracer,
        lane: int,
    ) -> None:
        """Complete a flush's answered tickets, accounting for them once.

        ``answers`` holds ``(batch index, ticket, outcome)``;
        ``failed_retries`` counts the flush's failed direct-LU retries,
        whose tickets are already failed. The latencies, ``serve.served``
        and the breaker's outcomes (the failed retries first, as they
        happened) fold in before the first ticket completes. Answered
        tickets free their slots in one pass, even if completing one raised.
        """
        hdr = self.metrics.log_histogram("serve.latency_hdr_ms")
        # tail-based sampling: one p99 for the whole flush, read before its
        # latencies fold in, once enough history makes p99 meaningful
        tail_ms = hdr.percentile(99.0) if hdr.count >= 64 else math.inf
        now = monotonic_ns()
        latencies_ms = [(now - ticket.submitted_ns) / 1e6 for _, ticket, _ in answers]
        # bounded memory, mergeable, and what the Prometheus exposition
        # renders as a classic histogram — with the trace id as the
        # bucket's exemplar, so p99 names a real request
        hdr.observe_many(
            latencies_ms, [ticket.trace_context.trace_id for _, ticket, _ in answers]
        )
        self.metrics.counter("serve.served").inc(len(answers))
        if self.breaker is not None:
            self.breaker.record_many(
                [True] * failed_retries + [outcome.used_fallback for _, _, outcome in answers]
            )
        answered: list[SolveTicket] = []
        try:
            for (i, ticket, outcome), latency_ms in zip(answers, latencies_ms):
                # the per-request leg of the journey: pinned to the
                # request's own trace, inside the shared flush
                with tracer.span(
                    "serve.request",
                    category="serve.request",
                    tid=lane,
                    context=ticket.trace_context,
                    request_id=ticket.request.request_id,
                    flush_id=flush_id,
                    index=i,
                ):
                    self._finish_ok(
                        ticket, outcome, flush_id, latency_ms, latency_ms >= tail_ms
                    )
                answered.append(ticket)
        finally:
            self._release(answered)

    def _record_forensics(self, record: FlushRecord, plan: ExecutionPlan) -> None:
        """Ring one entry for a solved flush in the flight recorder.

        The entry joins the flush facts and victim trace ids with the
        convergence forensics (per-system classes and the worst system's
        downsampled residual curve); a rate-limited metric-registry delta
        follows. Never raises into the flush path — a recorder bug must
        not fail a solve that already succeeded.
        """
        try:
            result = record.result
            summary = solve_summary(
                result.logger.residual_curves(),
                converged=result.converged,
                frozen=result.logger.frozen,
                iterations=result.iterations,
                max_iterations=getattr(plan.resolved, "max_iterations", 0),
                solver=result.solver_name,
                backend=self.config.backend,
            )
            self.recorder.record_flush(
                summary,
                flush_id=record.flush_id,
                reason=record.reason,
                worker=record.worker.name,
                solve_ms=round(record.solve_ms, 3),
                cache_hit=record.plan_cache_hit,
                trace_ids=record.trace_ids,
            )
            self.recorder.observe_registry(self.metrics)
        except Exception:
            self.metrics.counter("serve.recorder_errors").inc()

    def _attribute_failure(
        self, exc: Exception, live: list[SolveTicket], flush: FlushBatch
    ) -> None:
        """Name the victim requests on a flush-level failure.

        A sanitizer trip aborts the whole fused launch; its structured
        :class:`~repro.sanitize.report.SanitizerReport` (carried on the
        exception) gains the trace/request ids of every co-batched request
        so the report names victims, not just the batch. The trip is also
        recorded as a pinned structured event.
        """
        report = getattr(exc, "report", None)
        if report is None:
            return
        trace_ids = tuple(t.trace_context.trace_id for t in live)
        request_ids = tuple(t.request.request_id for t in live)
        try:
            report.trace_ids = trace_ids
            report.request_ids = request_ids
        except (AttributeError, TypeError):  # frozen or foreign report object
            pass
        self.events.emit(
            SANITIZER_TRIP,
            critical=True,
            kind=getattr(report, "kind", type(exc).__name__),
            kernel=getattr(report, "kernel", ""),
            flush_id=flush.flush_id,
            trace_ids=list(trace_ids),
            request_ids=list(request_ids),
        )
        if self.recorder is not None:
            self.recorder.trigger(
                TRIGGER_SANITIZER_TRIP,
                trace_id=trace_ids[0] if trace_ids else None,
                kind=getattr(report, "kind", type(exc).__name__),
                kernel=getattr(report, "kernel", ""),
                flush_id=flush.flush_id,
                trace_ids=list(trace_ids),
            )

    def _solve_batch(
        self,
        plan: ExecutionPlan,
        matrix,
        b: np.ndarray,
        x0: np.ndarray | None,
        worker: Worker,
    ) -> BatchSolveResult:
        """Solve one assembled flush on the worker's device context.

        The solve runs as a host task on the worker's queue/stream, on
        the fused device kernels when ``execution="kernel"`` covers the
        dispatch and on the vectorized solvers otherwise.
        """
        key = plan.resolved

        if self.config.execution == "kernel":
            kernel_run = self._kernel_solve(plan, matrix, b, x0, worker)
            if kernel_run is not None:
                result, _event = worker.context.submit_host_task(
                    kernel_run,
                    name=f"serve.batch_{key.solver_cls.solver_name}",
                    num_batch=matrix.num_batch,
                    execution="kernel",
                )
                self.metrics.counter("serve.kernel_solves").labels(
                    backend=self.config.backend,
                    solver=key.solver_cls.solver_name,
                ).inc()
                return result
            self.metrics.counter("serve.kernel_fallbacks").labels(
                solver=key.solver_cls.solver_name
            ).inc()

        def run() -> BatchSolveResult:
            return plan.build_solver(matrix).solve(b, x0=x0)

        result, _event = worker.context.submit_host_task(
            run,
            name=f"serve.batch_{key.solver_cls.solver_name}",
            num_batch=matrix.num_batch,
        )
        return result

    def _kernel_solve(self, plan, matrix, b, x0, worker):
        """A thunk running the flush through the fused device kernels.

        Returns ``None`` when the resolved dispatch falls outside what the
        fused kernels cover (solver, preconditioner, criterion, format,
        warm starts) or the worker drives a CUDA device — the caller then
        falls back to the vectorized path and counts the miss on
        ``serve.kernel_fallbacks``.
        """
        resolved = plan.resolved
        name = resolved.solver_cls.solver_name
        precond_cls = resolved.preconditioner_cls
        precond = "identity" if precond_cls is None else precond_cls.preconditioner_name
        if (
            name not in KERNEL_SOLVERS
            or precond not in KERNEL_PRECONDITIONERS
            or x0 is not None
            or resolved.matrix_format != "csr"
            or resolved.criterion_cls is not RelativeResidual
            or isinstance(worker.context.device, CudaDevice)
        ):
            return None

        def run() -> BatchSolveResult:
            mat = resolved.prepare(matrix)
            return solve_fused(
                worker.context,
                mat,
                np.asarray(b, dtype=mat.dtype),
                solver=name,
                preconditioner=precond,
                tolerance=resolved.tolerance,
                max_iterations=resolved.max_iterations,
                omega=float(dict(resolved.solver_options).get("omega", 1.0)),
            )

        return run

    # -- graceful degradation ----------------------------------------------------------

    def _apply_fallbacks(
        self, record: FlushRecord, tracer: Tracer
    ) -> tuple[dict[int, BatchSolveResult], int]:
        """Retry non-converged systems one by one with the direct-LU solver.

        Returns the one-system result of each successful retry, by batch
        index, and how many retries failed. A shed or failed retry
        finishes its ticket here.
        """
        fallbacks: dict[int, BatchSolveResult] = {}
        if not self.config.fallback or record.result.all_converged:
            return fallbacks, 0
        bad = np.flatnonzero(~record.result.converged).tolist()
        if not self._allow_degraded():
            # fallback storm: the breaker is open, shed the degraded work
            # fast instead of amplifying overload with per-request LU solves
            for i in bad:
                self._shed_degraded(record.tickets[i])
            return fallbacks, 0
        for i in bad:
            ticket = record.tickets[i]
            with tracer.span(
                "serve.fallback",
                category="serve",
                tid=record.worker.lane,
                context=ticket.trace_context,
                index=i,
                solver="direct",
                request_id=ticket.request.request_id,
            ):
                result = self._direct_solve(
                    ticket, reason="not_converged", flush_id=record.flush_id
                )
            if result is not None:
                fallbacks[i] = result
        return fallbacks, len(bad) - len(fallbacks)

    def _rescue_flush(
        self,
        live: list[SolveTicket],
        error: Exception,
        worker: Worker,
        flush: FlushBatch,
        tracer: Tracer,
    ) -> None:
        """Whole-flush failure: retry each request alone with the fallback."""
        if not self.config.fallback:
            for ticket in live:
                self._finish_fail(ticket, error)
            return
        if not self._allow_degraded():
            for ticket in live:
                self._shed_degraded(ticket)
            return
        answers = []
        for i, ticket in enumerate(live):
            result = self._direct_solve(
                ticket, reason="flush_failed", error=type(error).__name__
            )
            if result is not None:
                outcome = SolveOutcome.answering(
                    ticket,
                    result,
                    0,
                    used_fallback=True,
                    batch_size=1,
                    solve_ms=0.0,
                    worker=worker.device_name,
                    plan_cache_hit=False,
                )
                answers.append((i, ticket, outcome))
        self._answer(answers, flush.flush_id, len(live) - len(answers), tracer, worker.lane)

    def _direct_solve(self, ticket: SolveTicket, **event_fields) -> BatchSolveResult | None:
        """Solve one request alone with the direct-LU fallback; on failure
        fail the ticket and return ``None`` (the caller hands the breaker
        that bad outcome with its flush's others). ``event_fields`` go on
        the success's ``request.fallback`` event."""
        request = ticket.request
        try:
            matrix, b, _x0 = assemble_batch([request])
            key = dc_replace(request.batch_key, solver="direct", preconditioner="identity")
            plan, _hit = self.plan_cache.plan_for(key)
            result = plan.build_solver(matrix).solve(b)
        except Exception as exc:
            self.metrics.counter("serve.fallback_failures").inc()
            self._finish_fail(ticket, exc)
            return None
        self.metrics.counter("serve.fallbacks").inc()
        self.events.emit(
            REQUEST_FALLBACK, ctx=ticket.trace_context, critical=True, **event_fields
        )
        return result

    # -- circuit breaking --------------------------------------------------------------

    def _allow_degraded(self) -> bool:
        """May the per-request fallback path run (breaker closed/half-open)?"""
        return self.breaker is None or self.breaker.allow_degraded()

    def _shed_degraded(self, ticket: SolveTicket) -> None:
        """Fail one degraded request fast while the breaker is open."""
        self.metrics.counter("serve.breaker_fast_fails").inc()
        self._finish_fail(
            ticket,
            CircuitOpenError(
                "fallback circuit open: degraded retries are being shed",
                retry_after_s=self.config.breaker_cooldown_s,
            ),
        )

    def _on_breaker_open(self, breaker: CircuitBreaker) -> None:
        self.metrics.counter("serve.breaker_opens").inc()
        self.metrics.gauge("serve.breaker_state").set(1)
        self.events.emit(
            BREAKER_OPEN,
            critical=True,
            bad_fraction=round(breaker.bad_fraction(), 3),
            window=breaker.window,
            cooldown_s=breaker.cooldown_s,
            opens=breaker.opens,
        )
        if self.recorder is not None:
            self.recorder.trigger(
                TRIGGER_BREAKER_OPEN,
                bad_fraction=round(breaker.bad_fraction(), 3),
                opens=breaker.opens,
            )

    def _on_breaker_close(self, breaker: CircuitBreaker) -> None:
        self.metrics.counter("serve.breaker_closes").inc()
        self.metrics.gauge("serve.breaker_state").set(0)
        self.events.emit(BREAKER_CLOSE, critical=True, closes=breaker.closes)

    # -- completion --------------------------------------------------------------------

    def _finish_ok(
        self,
        ticket: SolveTicket,
        outcome: SolveOutcome,
        flush_id: str,
        latency_ms: float,
        tail: bool,
    ) -> None:
        """Complete one ticket; :meth:`_answer` accounts for it and frees
        its admission slot."""
        ctx = ticket.trace_context
        outcome.trace_id = ctx.trace_id
        outcome.request_id = ctx.request_id
        self.events.emit(
            REQUEST_SOLVED,
            ctx=ctx,
            critical=bool(outcome.used_fallback or tail),
            latency_ms=round(latency_ms, 3),
            iterations=outcome.iterations,
            converged=outcome.converged,
            fallback=outcome.used_fallback,
            batch_size=outcome.batch_size,
            flush_id=flush_id,
            queue_wait_ms=round(outcome.queue_wait_ms, 3),
            tail=tail,
        )
        ticket._complete(outcome)

    def _finish_fail(self, ticket: SolveTicket, error: Exception, status: str = "failed") -> None:
        if ticket.done():
            return
        self.metrics.counter("serve.failed").inc()
        status_code = getattr(error, "status_code", 500)
        self.events.emit(
            REQUEST_TIMED_OUT if status == TIMED_OUT else REQUEST_FAILED,
            ctx=ticket.trace_context,
            critical=True,
            error=type(error).__name__,
            error_code=getattr(error, "error_code", "internal"),
            status_code=status_code,
            detail=str(error)[:160],
        )
        if status_code >= 500 and self.recorder is not None:
            self.recorder.trigger(
                TRIGGER_ERROR_5XX,
                trace_id=ticket.trace_context.trace_id,
                request_id=ticket.request.request_id,
                error=type(error).__name__,
                status_code=status_code,
            )
        ticket._fail(error, status=status)
        self._release([ticket])

    def _release(self, tickets: list[SolveTicket]) -> None:
        """Free finished tickets' admission slots in one ``_state``
        acquisition: one gauge set per tenant, one wake-up."""
        if not tickets:
            return
        by_tenant: dict[str, int] = {}
        for ticket in tickets:
            tenant = ticket.request.tenant
            by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        with self._state:
            self._pending -= len(tickets)
            self.metrics.gauge("serve.pending").set(self._pending)
            for tenant, n in by_tenant.items():
                remaining = self._tenant_pending.get(tenant, n) - n
                if remaining <= 0:
                    self._tenant_pending.pop(tenant, None)
                    remaining = 0
                else:
                    self._tenant_pending[tenant] = remaining
                self.metrics.gauge("serve.tenant_pending").labels(tenant=tenant).set(
                    remaining
                )
            self._state.notify_all()

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed."""
        with self._state:
            return self._pending

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has completed."""
        with self._state:
            return self._state.wait_for(lambda: self._pending == 0, timeout=timeout)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests; optionally serve out everything queued.

        ``drain=True`` flushes the micro-batcher and serves every admitted
        request before shutting the workers down. ``drain=False`` aborts:
        requests still waiting in the batcher complete immediately with
        :class:`~repro.exceptions.ServiceClosedError` (their tickets never
        hang), while flushes already handed to the worker pool run out.

        A :meth:`submit` racing with either close never leaves a ticket
        hanging: it admits and parks its ticket under ``_state``, where
        close sets ``_closed``, so the ticket is refused or already parked
        when close sweeps the batcher. A flush dispatched once the pool is
        stopping fails its tickets with :class:`ServiceClosedError`.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
            self._state.notify_all()
        if drain:
            self.flush()
            self.pool.join()
        else:
            self._fail_parked()
        self._flusher.join(timeout=timeout)
        with self._state:
            self._pool_closing = True
        self.pool.close()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

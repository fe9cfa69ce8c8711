"""Tunable policy knobs of the batched-solver service.

Every knob maps to one side of the paper's central trade-off: batching
amortizes kernel-launch and dispatch overhead (Section 3.4's fusion
argument applied at the *request* level), waiting for a bigger batch adds
queueing latency. :class:`ServeConfig` is frozen so one config object can
be shared across threads and embedded in cache keys without copying.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels import BACKENDS

#: Spellings accepted on the CLI / config surface for each backend.
BACKEND_ALIASES = {"cudasim": "cuda"}

#: How a flushed batch is executed on the worker's context.
EXECUTION_MODES = ("vectorized", "kernel")

#: The retry hint carried by saturation and quota rejections (service and
#: fleet alike).
RETRY_AFTER_MS = 5.0

#: Resolved execution plans a service keeps (LRU).
PLAN_CACHE_CAPACITY = 256

#: Ring size of a service's (and a fleet's) private structured event log
#: (one ring for routine events, one pinned ring for criticals).
EVENT_LOG_CAPACITY = 2048


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of a :class:`~repro.serve.service.SolverService`.

    Parameters
    ----------
    max_batch_size:
        A compatibility bucket flushes as soon as it holds this many
        requests ("size" flush). ``1`` disables micro-batching — every
        request becomes its own kernel launch, the unamortized baseline.
    max_wait_ms:
        A bucket flushes at latest this long after its *first* request
        arrived ("deadline" flush) — bounds the queueing latency a request
        can pay waiting for co-batchable traffic.
    max_pending:
        Admission bound: requests admitted but not yet completed. Above
        it, :meth:`~repro.serve.service.SolverService.submit` rejects with
        :class:`~repro.exceptions.ServiceSaturatedError` (backpressure).
    num_workers:
        Worker threads, each bound to its own simulated device queue/stream.
    backend:
        ``"sycl"`` (PVC stack devices, faithful per-work-item
        interpreter), ``"cuda"`` (A100 devices) or ``"wide"`` (PVC stack
        devices, the NumPy-vectorized lockstep backend of
        :mod:`repro.wide`).
    execution:
        ``"vectorized"`` solves flushed batches with the NumPy core
        solvers (the default); ``"kernel"`` runs the fused device kernels
        of :mod:`repro.kernels` on the worker's queue for the dispatch
        combinations they cover (cg/bicgstab/richardson × identity or
        scalar-Jacobi × CSR × relative criterion × zero initial guess)
        and silently falls back to the vectorized path — counted on the
        ``serve.kernel_fallbacks`` metric — for everything else.
    request_timeout_ms:
        Per-request deadline measured from submission; a request still
        queued when it expires is completed with
        :class:`~repro.exceptions.RequestTimeoutError` instead of being
        solved. ``None`` disables timeouts.
    fallback:
        When true, systems that fail or do not converge in a flushed batch
        are retried *individually* with the direct-LU fallback solver, so
        one pathological system never fails its co-batched neighbours.
    telemetry_sample_rate:
        Head-sampling rate for request-scoped telemetry in ``[0, 1]``:
        the fraction of requests whose routine structured events are kept
        (the decision is deterministic in the trace id, so one request is
        sampled consistently everywhere). Critical events — errors,
        timeouts, fallbacks, sanitizer trips, p99-tail completions — are
        always kept regardless. ``0.0`` is the cheapest disabled-path
        setting the overhead benchmark gates.
    tenant_default_quota:
        Per-tenant admission bound: requests of one tenant admitted but
        not yet completed. Past it, :meth:`submit` rejects that tenant's
        traffic with :class:`~repro.exceptions.QuotaExceededError` while
        other tenants keep being admitted. ``None`` (the default)
        disables per-tenant quotas.
    tenant_quotas:
        Per-tenant overrides of ``tenant_default_quota`` as a tuple of
        ``(tenant, quota)`` pairs (tuple, not dict — the config is frozen
        and hashable).
    breaker_window / breaker_min_events / breaker_threshold /
    breaker_cooldown_s:
        The fallback circuit breaker's sliding outcome window, the
        minimum observations before it may trip, the bad fraction
        (fallbacks + failures) that trips it, and the open → half-open
        cooldown. While it is open, degraded per-request retries fail
        fast with :class:`~repro.exceptions.CircuitOpenError` until a
        half-open probe succeeds.
    """

    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    max_pending: int = 1024
    num_workers: int = 2
    backend: str = "sycl"
    execution: str = "vectorized"
    request_timeout_ms: float | None = None
    fallback: bool = True
    telemetry_sample_rate: float = 1.0
    tenant_default_quota: int | None = None
    tenant_quotas: tuple[tuple[str, int], ...] = ()
    breaker_window: int = 64
    breaker_min_events: int = 32
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be non-negative, got {self.max_wait_ms}")
        if self.max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {self.num_workers}")
        if self.backend in BACKEND_ALIASES:
            object.__setattr__(self, "backend", BACKEND_ALIASES[self.backend])
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise ValueError(
                f"request_timeout_ms must be positive or None, got {self.request_timeout_ms}"
            )
        if not 0.0 <= self.telemetry_sample_rate <= 1.0:
            raise ValueError(
                f"telemetry_sample_rate must be in [0, 1], got {self.telemetry_sample_rate}"
            )
        if self.tenant_default_quota is not None and self.tenant_default_quota <= 0:
            raise ValueError(
                f"tenant_default_quota must be positive or None, "
                f"got {self.tenant_default_quota}"
            )
        for pair in self.tenant_quotas:
            if len(pair) != 2 or not pair[0] or int(pair[1]) <= 0:
                raise ValueError(
                    f"tenant_quotas entries must be (tenant, positive quota), got {pair!r}"
                )
        if self.breaker_window <= 0:
            raise ValueError(
                f"breaker_window must be positive, got {self.breaker_window}"
            )
        if not 0 < self.breaker_min_events <= self.breaker_window:
            raise ValueError(
                f"breaker_min_events must be in [1, breaker_window], "
                f"got {self.breaker_min_events}"
            )
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                f"breaker_threshold must be in (0, 1], got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker_cooldown_s must be non-negative, got {self.breaker_cooldown_s}"
            )

    @property
    def max_wait_ns(self) -> int:
        """The flush deadline in integer nanoseconds."""
        return int(self.max_wait_ms * 1e6)

    @property
    def request_timeout_ns(self) -> int | None:
        """The per-request timeout in integer nanoseconds (None = disabled)."""
        if self.request_timeout_ms is None:
            return None
        return int(self.request_timeout_ms * 1e6)

    def quota_for(self, tenant: str) -> int | None:
        """The pending quota of ``tenant`` (``None`` = unbounded)."""
        for name, quota in self.tenant_quotas:
            if name == tenant:
                return int(quota)
        return self.tenant_default_quota

"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single except clause while still
being able to discriminate on the specific subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Serving-layer failures are *structured*: every error class carries an
    HTTP-style ``status_code`` (4xx = the request's fault, 5xx = the
    service's) and a stable machine-readable ``error_code`` token, so a
    ticket that fails under load or chaos completes with a classifiable
    outcome instead of an anonymous crash.
    """

    #: HTTP-style classification of the failure (5xx = service-side).
    status_code: int = 500
    #: Stable machine token for dashboards and replay reports.
    error_code: str = "internal"


class DimensionMismatchError(ReproError, ValueError):
    """Operands of a batched operation have incompatible shapes."""


class BadSparsityPatternError(ReproError, ValueError):
    """A sparsity pattern is malformed or inconsistent across a batch."""


class UnsupportedCombinationError(ReproError, ValueError):
    """A dispatch combination (format/solver/preconditioner) is not legal."""


class SingularMatrixError(ReproError, ArithmeticError):
    """A (sub)problem is numerically singular where invertibility is required."""

    status_code = 422
    error_code = "singular_matrix"


class ConvergenceError(ReproError, RuntimeError):
    """An iterative process failed to converge and the caller asked to raise."""


# --------------------------------------------------------------------------
# SYCL / CUDA execution-model simulator errors
# --------------------------------------------------------------------------


class ExecutionModelError(ReproError):
    """Base class for errors detected by the execution-model simulators."""


class InvalidNDRangeError(ExecutionModelError, ValueError):
    """An ND-range is malformed (e.g. local size does not divide global)."""


class BarrierDivergenceError(ExecutionModelError, RuntimeError):
    """Work-items of one synchronization scope reached different barriers.

    SYCL (and CUDA) leave this undefined behaviour on hardware; the simulator
    turns it into a hard error so kernel bugs surface deterministically.
    When the sanitizer (:mod:`repro.sanitize`) is the one raising, the
    structured diagnostic rides on ``report`` (otherwise ``None``).
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class LocalMemoryError(ExecutionModelError, MemoryError):
    """A work-group requested more shared local memory than the device has."""


class SubGroupSizeError(ExecutionModelError, ValueError):
    """A requested sub-group size is not supported by the device."""


class DeviceCapabilityError(ExecutionModelError, ValueError):
    """The device cannot run the requested launch configuration."""


class KernelFaultError(ExecutionModelError, RuntimeError):
    """A kernel performed an illegal access (e.g. out-of-bounds SLM index)."""


class WideBackendError(ExecutionModelError, RuntimeError):
    """A kernel structure the lockstep wide backend cannot express
    (e.g. the CUDA-style non-uniform guarded shared-memory reduction)."""


# --------------------------------------------------------------------------
# Kernel sanitizer errors (repro.sanitize)
# --------------------------------------------------------------------------


class SanitizerError(ExecutionModelError):
    """Base class for violations detected by the kernel sanitizer.

    Raised only when a :class:`repro.sanitize.Sanitizer` is installed; the
    structured :class:`repro.sanitize.SanitizerReport` travels on the
    ``report`` attribute so tooling (the CLI, the differential harness)
    can render diagnostics without parsing the message.
    """

    status_code = 503
    error_code = "sanitizer_trip"

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class SlmRaceError(SanitizerError):
    """Two work-items accessed the same SLM cell without an intervening
    barrier, and at least one access was a write (a data race)."""


class UninitializedSlmReadError(SanitizerError):
    """A work-item read an SLM cell no work-item had written.

    Real shared local memory is uninitialized; the zero-fill the simulator
    performs would mask the bug, so the sanitizer flags the read itself.
    """


class SlmOutOfBoundsError(SanitizerError, KernelFaultError):
    """A work-item indexed an SLM array outside its declared shape
    (negative indices count: SYCL local accessors do not wrap)."""


class CollectiveMisuseError(SanitizerError):
    """A group/sub-group collective was used illegally: non-uniform
    participation across the scope, or a shuffle/broadcast whose width
    parameter does not fit the dispatched sub-group size."""


# --------------------------------------------------------------------------
# Serving-layer errors (repro.serve)
# --------------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for errors raised by the batched-solver service."""


class ServiceSaturatedError(ServeError, RuntimeError):
    """The service's admission queue is full; retry after ``retry_after_s``.

    This is the backpressure signal: the request was *not* enqueued, the
    caller should back off for at least ``retry_after_s`` seconds.
    """

    status_code = 429
    error_code = "saturated"

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class RequestTimeoutError(ServeError, TimeoutError):
    """A solve request exceeded its timeout before being served."""

    status_code = 504
    error_code = "timeout"


class ServiceClosedError(ServeError, RuntimeError):
    """A request was submitted to a service that has been closed."""

    status_code = 503
    error_code = "closed"


class QuotaExceededError(ServiceSaturatedError):
    """One tenant hit its per-tenant pending quota (fair-share admission).

    Unlike plain saturation this is *per-tenant* backpressure: the service
    as a whole has capacity, but this tenant's share of it is spoken for.
    Other tenants' requests keep being admitted.
    """

    status_code = 429
    error_code = "quota_exceeded"

    def __init__(
        self, message: str, tenant: str = "default", retry_after_s: float = 0.0
    ) -> None:
        super().__init__(message, retry_after_s=retry_after_s)
        self.tenant = tenant


class CircuitOpenError(ServeError, RuntimeError):
    """The fallback circuit breaker is open; degraded work is shed fast.

    During a fallback storm every non-converged request would be retried
    individually with the direct-LU solver — the expensive path that
    amplifies overload. Once the breaker opens, those retries fail fast
    with this error until the cooldown's half-open probe succeeds.
    """

    status_code = 503
    error_code = "breaker_open"

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


# --------------------------------------------------------------------------
# Chaos / fault-injection errors (repro.chaos)
# --------------------------------------------------------------------------


class InjectedFaultError(ServeError):
    """Base class for failures raised by the chaos fault-injection layer.

    Carries the ``fault`` kind so rescue paths, telemetry and replay
    reports can attribute the failure to the plan that caused it.
    """

    status_code = 500
    error_code = "injected_fault"

    def __init__(self, message: str, fault: str = "") -> None:
        super().__init__(message)
        self.fault = fault


class WorkerDiedError(InjectedFaultError):
    """A worker was killed mid-flush (injected); its flush never finished."""

    status_code = 503
    error_code = "worker_died"


class PoisonedBatchError(InjectedFaultError):
    """An assembled batch was corrupted in flight (injected NaN payload)."""

    status_code = 422
    error_code = "poisoned_batch"

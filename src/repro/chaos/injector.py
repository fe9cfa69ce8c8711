"""The fault injector: where a :class:`FaultPlan` meets the serving stack.

:class:`~repro.serve.service.SolverService` calls
:meth:`ChaosInjector.on_flush` exactly once per executed flush, after
batch assembly and before the solve. The injector assigns the flush the
next index in its (thread-safe) sequence, asks the plan which faults
fire, and realizes them:

* ``device_delay`` — sleeps ``delay_ms`` on the worker thread (extra
  device occupancy), then lets the flush proceed.
* ``worker_die`` — raises :class:`~repro.exceptions.WorkerDiedError`:
  the flush dies mid-execution; the service's whole-flush rescue path
  must complete every ticket (fallback or structured 503).
* ``poison_batch`` — overwrites the *assembled* right-hand sides with
  NaN and raises :class:`~repro.exceptions.PoisonedBatchError` (the
  corruption-detected signal); the rescue path re-assembles from the
  pristine per-request payloads.
* ``singular_batch`` — zeroes the assembled matrix values and raises
  :class:`~repro.exceptions.SingularMatrixError`.
* ``sanitizer_trip`` — raises a
  :class:`~repro.exceptions.SanitizerError` carrying a synthetic report,
  exercising the service's victim-attribution path end to end.

Every firing is counted on the service's ``chaos.injected`` metric
(labelled by kind) and emitted as a pinned ``chaos.injected`` event
naming its victims (``trace_ids``), so chaos shows up in the same
telemetry the SLO monitor scores, and the flight recorder arms on it.

Injectors install either directly (``SolverService(..., chaos=inj)``)
or ambiently for a scope (``repro.instruments.use(chaos=inj)`` — the
``repro chaos`` wrapper's mechanism): services pick up the installed one
at construction.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.chaos.plan import (
    DEVICE_DELAY,
    POISON_BATCH,
    SANITIZER_TRIP_FAULT,
    SINGULAR_BATCH,
    WORKER_DIE,
    FaultPlan,
    FaultSpec,
)
from repro.exceptions import (
    PoisonedBatchError,
    SanitizerError,
    SingularMatrixError,
    WorkerDiedError,
)

__all__ = [
    "ChaosInjector",
    "ChaosSanitizerReport",
]


class ChaosSanitizerReport:
    """A synthetic sanitizer report carried by injected trips.

    Mirrors the attribute surface the service's victim-attribution path
    reads/writes (``kind``, ``kernel``, ``trace_ids``, ``request_ids``),
    without requiring a real sanitized kernel run.
    """

    def __init__(self, kind: str = "chaos.sanitizer_trip", kernel: str = "injected") -> None:
        self.kind = kind
        self.kernel = kernel
        self.trace_ids: tuple = ()
        self.request_ids: tuple = ()

    def __repr__(self) -> str:
        return f"ChaosSanitizerReport(kind={self.kind!r}, kernel={self.kernel!r})"


class ChaosInjector:
    """Applies one :class:`FaultPlan` to a live service's flush stream."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: dict[str, int] = {}
        self._seq = 0
        self._spent: dict[int, int] = {}  # spec index -> firings so far
        self._lock = threading.Lock()

    @property
    def flushes_seen(self) -> int:
        """How many flushes have passed through this injector."""
        with self._lock:
            return self._seq

    @property
    def total_injected(self) -> int:
        """Total faults fired across all kinds."""
        with self._lock:
            return sum(self.injected.values())

    def injected_by_kind(self) -> dict[str, int]:
        """Copy of the per-kind firing counts."""
        with self._lock:
            return dict(self.injected)

    # -- the hook --------------------------------------------------------------

    def on_flush(self, service: Any, flush: Any, worker: Any, matrix: Any, b: Any) -> None:
        """Fire the plan's faults for the next flush index (may raise).

        Called by the service inside its flush try-block: exceptions
        raised here take the whole-flush failure path and must end in
        completed tickets, never crashes.
        """
        with self._lock:
            index = self._seq
            self._seq += 1
            due = [
                (j, spec)
                for j, spec in enumerate(self.plan.specs)
                if spec.fires_at(self.plan.seed, j, index)
                and (spec.max_faults is None or self._spent.get(j, 0) < spec.max_faults)
            ]
            # delays first, so a flush scheduled for both a delay and a kill
            # dwells before it dies (the nastier interleaving); the first
            # raising fault ends the flush, so any later one never fires and
            # neither counts nor spends its budget
            firing = [js for js in due if js[1].kind == DEVICE_DELAY]
            firing += [js for js in due if js[1].kind != DEVICE_DELAY][:1]
            for j, spec in firing:
                self._spent[j] = self._spent.get(j, 0) + 1
                self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
        for _j, spec in firing:
            self._record(service, spec, flush, worker, index)
            self._realize(spec, flush, matrix, b)

    def _record(self, service: Any, spec: FaultSpec, flush: Any, worker: Any, index: int) -> None:
        from repro.telemetry.events import CHAOS_INJECTED

        service.metrics.counter("chaos.injected").labels(kind=spec.kind).inc()
        service.events.emit(
            CHAOS_INJECTED,
            critical=True,
            kind=spec.kind,
            flush_index=index,
            flush_id=getattr(flush, "flush_id", ""),
            batch_size=getattr(flush, "size", 0),
            worker=getattr(worker, "name", ""),
            # the authoritative victim list: every ticket co-batched into
            # the faulted flush, joined by trace id in the postmortem
            trace_ids=[t.trace_context.trace_id for t in getattr(flush, "tickets", ())],
        )

    def _realize(self, spec: FaultSpec, flush: Any, matrix: Any, b: Any) -> None:
        if spec.kind == DEVICE_DELAY:
            time.sleep(spec.delay_ms / 1e3)
            return
        if spec.kind == WORKER_DIE:
            raise WorkerDiedError(
                f"injected worker death mid-flush {flush.flush_id}", fault=WORKER_DIE
            )
        if spec.kind == POISON_BATCH:
            b[...] = float("nan")
            raise PoisonedBatchError(
                f"injected NaN payload in flush {flush.flush_id}", fault=POISON_BATCH
            )
        if spec.kind == SINGULAR_BATCH:
            values = getattr(matrix, "values", None)
            if values is None:
                values = getattr(matrix, "data", None)
            if values is not None:
                values[...] = 0.0
            raise SingularMatrixError(
                f"injected singular batch in flush {flush.flush_id}"
            )
        if spec.kind == SANITIZER_TRIP_FAULT:
            raise SanitizerError(
                f"injected sanitizer trip in flush {flush.flush_id}",
                report=ChaosSanitizerReport(),
            )
        raise AssertionError(f"unreachable fault kind {spec.kind!r}")

    def __repr__(self) -> str:
        return (
            f"ChaosInjector(plan={self.plan!r}, flushes={self.flushes_seen}, "
            f"injected={self.total_injected})"
        )

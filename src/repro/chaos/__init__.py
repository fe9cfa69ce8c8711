"""Layer 12: deterministic fault injection and trace-replay load testing.

The production-hardening layer: prove the serving stack degrades
*gracefully* — structured 4xx/5xx outcomes, zero lost tickets, SLOs
scored — rather than merely working on clean benches.

* :mod:`repro.chaos.plan` — :class:`FaultPlan`: a seeded schedule of
  faults (worker death mid-flush, poisoned / singularized batches,
  device delays, sanitizer trips) that is a pure function of the flush
  sequence number. Which requests share a flush depends on thread
  timing, so the same seed does not replay the same faulted requests,
  nor always the same number of faults (ROADMAP item 11 keys faults to
  requests instead).
* :mod:`repro.chaos.injector` — :class:`ChaosInjector`: the hook the
  serving layer calls once per flush; fires the plan's faults as
  mutations and typed exceptions, counts them on ``chaos.injected``
  metrics and emits ``chaos.injected`` events.
* :mod:`repro.chaos.replay` — the trace-replay load generator: seeded
  multi-tenant request traces over :mod:`repro.workloads.arrivals`
  (diurnal/bursty/poisson, mixed mechanisms), paced open-loop into a
  service or fleet and scored through the PR-6 SLO monitor. Imported
  explicitly (``import repro.chaos.replay``) because it pulls in the
  serving layer, which itself imports the injector from here.
"""

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import (
    DEVICE_DELAY,
    FAULT_KINDS,
    POISON_BATCH,
    SANITIZER_TRIP_FAULT,
    SINGULAR_BATCH,
    WORKER_DIE,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ChaosInjector",
    "DEVICE_DELAY",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "POISON_BATCH",
    "SANITIZER_TRIP_FAULT",
    "SINGULAR_BATCH",
    "WORKER_DIE",
]

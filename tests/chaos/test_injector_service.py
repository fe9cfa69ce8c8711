"""ChaosInjector against a live SolverService: every fault kind realized.

The contract under test is the tentpole invariant: an injected fault is
*never* a crash and *never* a lost ticket — it is either rescued (the
per-request fallback path completes the ticket) or surfaced as a
structured HTTP-style error on the ticket.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chaos import ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.plan import (
    DEVICE_DELAY,
    POISON_BATCH,
    SANITIZER_TRIP_FAULT,
    SINGULAR_BATCH,
    WORKER_DIE,
)
from repro.exceptions import (
    InjectedFaultError,
    PoisonedBatchError,
    ReproError,
    WorkerDiedError,
)
from repro.instruments import use
from repro.observability.tracer import Tracer
from repro.recorder.recorder import (
    TRIGGER_CHAOS_FAULT,
    TRIGGER_ERROR_5XX,
    FlightRecorder,
)
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.telemetry.events import CHAOS_INJECTED


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _request(rng, n=8, **kwargs):
    matrix = _tridiag(n)
    scale = rng.uniform(0.95, 1.05, size=n)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    matrix.data = matrix.data * scale[rows] * scale[matrix.indices]
    return SolveRequest(
        matrix, rng.standard_normal(n), solver="cg", preconditioner="jacobi", **kwargs
    )


def _run_with_fault(spec, fallback=True, requests=4):
    rng = np.random.default_rng(0)
    injector = ChaosInjector(FaultPlan(0, (spec,)))
    config = ServeConfig(
        max_batch_size=requests, max_wait_ms=60_000.0, num_workers=1, fallback=fallback
    )
    with SolverService(config, chaos=injector) as service:
        tickets = [service.submit(_request(rng)) for _ in range(requests)]
        errors = [t.exception(timeout=30.0) for t in tickets]
    return injector, service, tickets, errors


class TestFaultRealization:
    @pytest.mark.parametrize(
        "kind", [WORKER_DIE, POISON_BATCH, SINGULAR_BATCH, SANITIZER_TRIP_FAULT]
    )
    def test_fault_rescued_by_fallback(self, kind):
        injector, service, tickets, errors = _run_with_fault(
            FaultSpec(kind, at=(0,)), fallback=True
        )
        assert injector.injected_by_kind() == {kind: 1}
        assert errors == [None] * 4
        # the whole-flush failure path re-solved every request individually
        assert all(t.result(timeout=1.0).used_fallback for t in tickets)
        # poison/singular corrupt the *assembled* arrays only: the rescue
        # re-assembles from pristine payloads, so solutions stay finite
        assert all(np.isfinite(t.result(timeout=1.0).x).all() for t in tickets)

    def test_worker_die_without_fallback_is_structured_503(self):
        injector, service, tickets, errors = _run_with_fault(
            FaultSpec(WORKER_DIE, at=(0,)), fallback=False
        )
        assert all(isinstance(e, WorkerDiedError) for e in errors)
        assert all(e.status_code == 503 and e.error_code == "worker_died" for e in errors)
        assert all(e.fault == WORKER_DIE for e in errors)

    def test_poison_without_fallback_is_structured_422(self):
        injector, service, tickets, errors = _run_with_fault(
            FaultSpec(POISON_BATCH, at=(0,)), fallback=False
        )
        assert all(isinstance(e, PoisonedBatchError) for e in errors)
        assert all(e.status_code == 422 and e.error_code == "poisoned_batch" for e in errors)

    def test_device_delay_lets_the_flush_succeed(self):
        injector, service, tickets, errors = _run_with_fault(
            FaultSpec(DEVICE_DELAY, at=(0,), delay_ms=1.0)
        )
        assert injector.injected_by_kind() == {DEVICE_DELAY: 1}
        assert errors == [None] * 4
        assert not any(t.result(timeout=1.0).used_fallback for t in tickets)

    def test_every_failure_is_a_structured_repro_error(self):
        # across all fault kinds with fallback disabled, no ticket ever
        # fails with a bare exception (the 500 class)
        for kind in (WORKER_DIE, POISON_BATCH, SINGULAR_BATCH, SANITIZER_TRIP_FAULT):
            _, _, _, errors = _run_with_fault(FaultSpec(kind, at=(0,)), fallback=False)
            for error in errors:
                assert isinstance(error, ReproError)
                assert getattr(error, "status_code", 500) != 500, (kind, error)


class TestTelemetry:
    def test_injection_metric_and_event(self):
        injector, service, tickets, _ = _run_with_fault(FaultSpec(WORKER_DIE, at=(0,)))
        counter = service.metrics.counter("chaos.injected").labels(kind=WORKER_DIE)
        assert int(counter.value) == 1
        events = [e for e in service.events.records() if e["type"] == CHAOS_INJECTED]
        assert len(events) == 1
        assert events[0]["fields"]["kind"] == WORKER_DIE
        assert events[0]["fields"]["flush_index"] == 0
        assert events[0]["fields"]["batch_size"] == 4
        # the victims ride on the event: the recorder's chaos trigger and
        # the postmortem's flush -> victims join read them from here
        victims = [t.trace_context.trace_id for t in tickets]
        assert events[0]["fields"]["trace_ids"] == victims

    def test_chaos_event_survives_head_sampling(self):
        # chaos.injected is critical: even with routine telemetry sampled
        # out entirely, the injection record must be retained (it is the
        # event an incident review greps for first)
        rng = np.random.default_rng(5)
        injector = ChaosInjector(FaultPlan(0, (FaultSpec(POISON_BATCH, at=(0,)),)))
        config = ServeConfig(
            max_batch_size=4, max_wait_ms=60_000.0, num_workers=1,
            telemetry_sample_rate=0.0,
        )
        with SolverService(config, chaos=injector) as service:
            tickets = [service.submit(_request(rng)) for _ in range(4)]
            assert all(t.exception(timeout=30.0) is None for t in tickets)
        kept = [e for e in service.events.records() if e["type"] == CHAOS_INJECTED]
        assert len(kept) == 1


class TestUnwritableDumpDir:
    """A recorder whose every bundle write fails changes no outcome."""

    def test_5xx_ticket_fails_structured_and_frees_its_slot(self, unwritable_dir):
        recorder = FlightRecorder(dump_dir=unwritable_dir)
        injector = ChaosInjector(FaultPlan(0, (FaultSpec(WORKER_DIE, at=(0,)),)))
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=60_000.0, num_workers=1, fallback=False
        )
        with SolverService(config, chaos=injector, recorder=recorder) as service:
            ticket = service.submit(_request(np.random.default_rng(0)))
            with pytest.raises(WorkerDiedError) as failure:
                ticket.result(timeout=5.0)
            assert failure.value.status_code == 503
            assert service.wait_idle(timeout=5.0)
            assert service.pending == 0
        assert recorder.triggers_fired == {TRIGGER_CHAOS_FAULT: 1, TRIGGER_ERROR_5XX: 1}
        assert recorder.summary()["dump_errors"] == 2

    def test_chaos_flush_fails_with_its_injected_error(self, unwritable_dir):
        recorder = FlightRecorder(dump_dir=unwritable_dir)
        injector = ChaosInjector(FaultPlan(0, (FaultSpec(WORKER_DIE, at=(0,)),)))
        tracer = Tracer()
        config = ServeConfig(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
        rng = np.random.default_rng(0)
        with SolverService(
            config, tracer=tracer, chaos=injector, recorder=recorder
        ) as service:
            tickets = [service.submit(_request(rng)) for _ in range(4)]
            assert all(t.result(timeout=10.0).used_fallback for t in tickets)
        (flush,) = [s for s in tracer.spans if s.name == "serve.flush"]
        assert flush.args["error"] == "WorkerDiedError"
        assert injector.injected_by_kind() == {WORKER_DIE: 1}
        assert recorder.triggers_fired == {TRIGGER_CHAOS_FAULT: 1}
        assert recorder.summary()["dump_errors"] == 1


class TestInjectorBookkeeping:
    def test_max_faults_budget(self):
        rng = np.random.default_rng(1)
        injector = ChaosInjector(
            FaultPlan(0, (FaultSpec(DEVICE_DELAY, every=1, max_faults=2),))
        )
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1)
        with SolverService(config, chaos=injector) as service:
            tickets = [service.submit(_request(rng)) for _ in range(10)]
            assert all(t.exception(timeout=30.0) is None for t in tickets)
        assert injector.flushes_seen == 5
        assert injector.total_injected == 2

    def test_only_the_first_raising_fault_counts(self):
        # flush 0 is due both a kill and a poison: the kill ends the flush,
        # so the poison neither counts nor spends its one-fault budget and
        # fires on flush 1 instead
        rng = np.random.default_rng(3)
        plan = FaultPlan(
            0,
            (
                FaultSpec(WORKER_DIE, at=(0,)),
                FaultSpec(POISON_BATCH, every=1, max_faults=1),
            ),
        )
        injector = ChaosInjector(plan)
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1)
        with SolverService(config, chaos=injector) as service:
            tickets = [service.submit(_request(rng)) for _ in range(4)]
            assert all(t.exception(timeout=30.0) is None for t in tickets)
        events = [e for e in service.events.records() if e["type"] == CHAOS_INJECTED]
        assert injector.total_injected == len(events) == 2
        assert injector.injected_by_kind() == {WORKER_DIE: 1, POISON_BATCH: 1}
        by_kind = {e["fields"]["kind"]: e["fields"]["flush_index"] for e in events}
        assert by_kind == {WORKER_DIE: 0, POISON_BATCH: 1}

    def test_flush_sequence_is_monotone(self):
        injector, _, _, _ = _run_with_fault(FaultSpec(DEVICE_DELAY, at=(0,)))
        assert injector.flushes_seen == 1

    def test_injected_fault_error_carries_fault_kind(self):
        error = WorkerDiedError("boom", fault=WORKER_DIE)
        assert isinstance(error, InjectedFaultError)
        assert error.fault == WORKER_DIE


class TestAmbientInstallation:
    def test_use_chaos_scopes_pickup(self):
        rng = np.random.default_rng(2)
        injector = ChaosInjector(FaultPlan(0, (FaultSpec(DEVICE_DELAY, at=(0,)),)))
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1)
        with use(chaos=injector):
            service = SolverService(config)
        assert service.chaos is injector
        with service:
            tickets = [service.submit(_request(rng)) for _ in range(2)]
            assert all(t.exception(timeout=30.0) is None for t in tickets)
        assert injector.total_injected == 1
        # outside the scope, new services see no injector
        outside = SolverService(config)
        assert outside.chaos is None
        outside.close(drain=False)

    def test_explicit_chaos_wins_over_ambient(self):
        ambient = ChaosInjector(FaultPlan(0, (FaultSpec(DEVICE_DELAY, at=(0,)),)))
        explicit = ChaosInjector(FaultPlan(1, (FaultSpec(DEVICE_DELAY, at=(0,)),)))
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1)
        with use(chaos=ambient):
            service = SolverService(config, chaos=explicit)
        assert service.chaos is explicit
        service.close(drain=False)

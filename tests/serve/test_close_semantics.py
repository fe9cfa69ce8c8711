"""``SolverService.close`` abort path and ``wait_idle`` timeout semantics.

The fleet's graceful drain is built directly on these: drain =
``flush() + wait_idle() + close(drain=True)``; abort =
``close(drain=False)`` failing queued tickets fast instead of hanging.
"""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chaos import ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.plan import DEVICE_DELAY, WORKER_DIE
from repro.exceptions import ReproError, ServiceClosedError
from repro.serve import ServeConfig, SolveRequest, SolverService

from tests.conftest import FlushHold


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _request(rng, n=8):
    matrix = _tridiag(n)
    matrix.data = matrix.data * rng.uniform(0.9, 1.1, size=matrix.nnz)
    return SolveRequest(
        matrix, rng.standard_normal(n), solver="cg", preconditioner="jacobi"
    )


def _parked_service():
    """A service whose batcher holds requests indefinitely (no auto-flush)."""
    return SolverService(
        ServeConfig(max_batch_size=64, max_wait_ms=60_000.0, num_workers=1)
    )


class TestAbortClose:
    def test_queued_tickets_fail_fast(self):
        rng = np.random.default_rng(0)
        service = _parked_service()
        tickets = [service.submit(_request(rng)) for _ in range(4)]
        start = time.perf_counter()
        service.close(drain=False)
        for ticket in tickets:
            with pytest.raises(ServiceClosedError, match="closed before flush"):
                ticket.result(timeout=5.0)
        # failing 4 parked tickets must not wait out the batcher window
        assert time.perf_counter() - start < 10.0
        assert int(service.metrics.counter("serve.failed").value) == 4

    def test_in_flight_flushes_still_complete(self):
        # a flush already handed to the worker pool runs out even under
        # an abort close; only *unflushed* batcher contents are failed
        rng = np.random.default_rng(1)
        hold = FlushHold()
        config = ServeConfig(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
        with SolverService(config, chaos=hold) as service:
            flushed = [service.submit(_request(rng)) for _ in range(4)]
            assert hold.entered.wait(timeout=30.0)  # the size flush is running
            parked = service.submit(_request(rng))
            # the abort close waits for the held flush on the pool
            closer = threading.Thread(target=service.close, kwargs={"drain": False})
            closer.start()
            with pytest.raises(ServiceClosedError):
                parked.result(timeout=5.0)
            assert not any(t.done() for t in flushed)
            hold.release.set()
            closer.join(timeout=30.0)
            assert not closer.is_alive()
            assert all(t.result(timeout=30.0).converged for t in flushed)

    def test_submit_after_close_raises(self):
        rng = np.random.default_rng(2)
        service = _parked_service()
        service.close(drain=False)
        with pytest.raises(ServiceClosedError):
            service.submit(_request(rng))

    def test_double_close_is_noop(self):
        service = _parked_service()
        service.close(drain=False)
        service.close(drain=False)
        service.close(drain=True)

    def test_drain_close_serves_everything(self):
        rng = np.random.default_rng(3)
        service = _parked_service()
        tickets = [service.submit(_request(rng)) for _ in range(4)]
        service.close(drain=True)
        assert all(t.result(timeout=30.0).converged for t in tickets)


class TestDispatchRacingClose:
    def test_size_flush_enqueued_while_drain_close_runs_is_served(self, monkeypatch):
        # the hook lets a drain close() run between _dispatch's closing
        # check and the enqueue; enqueued behind the workers' stop
        # sentinels, the flush would never run and its tickets would hang
        rng = np.random.default_rng(6)
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1)
        service = SolverService(config)
        closer = threading.Thread(target=service.close)
        submit = service.pool.submit

        def racing_submit(job):
            closer.start()
            closer.join(timeout=1.0)  # returns at once if close() can finish now
            return submit(job)

        monkeypatch.setattr(service.pool, "submit", racing_submit)
        tickets = [service.submit(_request(rng)) for _ in range(2)]
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert all(t.result(timeout=5.0).converged for t in tickets)
        assert service.pending == 0


class TestCloseUnderChaos:
    """Pins for the close(drain=False) vs in-flight chaos race.

    An abort close must never race an injected fault into a hang or a
    bare exception: whatever the interleaving, every ticket ends in a
    result or a *structured* error within the timeout.
    """

    def test_abort_close_races_worker_death(self):
        rng = np.random.default_rng(10)
        chaos = ChaosInjector(FaultPlan(0, (FaultSpec(WORKER_DIE, every=1),)))
        config = ServeConfig(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
        service = SolverService(config, chaos=chaos)
        tickets = [service.submit(_request(rng)) for _ in range(4)]
        # the size-triggered flush is in the pool; close races its rescue
        service.close(drain=False)
        for ticket in tickets:
            error = ticket.exception(timeout=30.0)
            # rescued by the fallback, or failed structured — never lost,
            # never a bare 500
            if error is not None:
                assert isinstance(error, ReproError), error
                assert getattr(error, "status_code", 500) != 500, error

    def test_abort_close_races_device_delay(self):
        # the fault holds the flush on the "device" while close lands:
        # the in-flight flush still completes (abort only fails the
        # unflushed backlog)
        rng = np.random.default_rng(11)
        chaos = ChaosInjector(
            FaultPlan(0, (FaultSpec(DEVICE_DELAY, every=1, delay_ms=50.0),))
        )
        config = ServeConfig(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
        service = SolverService(config, chaos=chaos)
        flushed = [service.submit(_request(rng)) for _ in range(4)]
        time.sleep(0.01)  # flush picked up, now dwelling in the fault
        parked = service.submit(_request(rng))
        service.close(drain=False)
        assert all(t.result(timeout=30.0).converged for t in flushed)
        with pytest.raises(ServiceClosedError):
            parked.result(timeout=5.0)

    def test_drain_close_under_battery_loses_nothing(self):
        rng = np.random.default_rng(12)
        chaos = ChaosInjector(FaultPlan.battery(seed=0))
        config = ServeConfig(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
        service = SolverService(config, chaos=chaos)
        tickets = [service.submit(_request(rng)) for _ in range(12)]
        service.close(drain=True)
        for ticket in tickets:
            assert ticket.done()
            error = ticket.exception(timeout=1.0)
            if error is not None:
                assert isinstance(error, ReproError)
                assert getattr(error, "status_code", 500) != 500

    def test_submits_racing_abort_close_never_hang(self):
        rng = np.random.default_rng(13)
        chaos = ChaosInjector(FaultPlan(0, (FaultSpec(WORKER_DIE, every=2),)))
        config = ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=2)
        service = SolverService(config, chaos=chaos)
        tickets, rejected = [], []
        tickets_lock = threading.Lock()
        stop = threading.Event()

        def submitter():
            local_rng = np.random.default_rng(14)
            while not stop.is_set():
                try:
                    ticket = service.submit(_request(local_rng))
                except ReproError:
                    rejected.append(1)
                    return
                with tickets_lock:
                    tickets.append(ticket)

        threads = [threading.Thread(target=submitter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        service.close(drain=False)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # every admitted ticket reaches a terminal state: a result, a
        # structured chaos error, or the abort-close failure — never a hang
        with tickets_lock:
            admitted = list(tickets)
        assert admitted, "the submitters should have gotten work in"
        for ticket in admitted:
            error = ticket.exception(timeout=30.0)
            if error is not None:
                assert isinstance(error, ReproError), error


class TestWaitIdle:
    def test_timeout_returns_false_while_busy(self):
        rng = np.random.default_rng(4)
        hold = FlushHold()
        config = ServeConfig(max_batch_size=4, max_wait_ms=5.0, num_workers=1)
        with SolverService(config, chaos=hold) as service:
            tickets = [service.submit(_request(rng)) for _ in range(4)]
            service.flush()
            # the flush is held on its worker: not idle yet
            assert service.wait_idle(timeout=0.01) is False
            hold.release.set()
            assert service.wait_idle(timeout=30.0) is True
            assert all(t.result(timeout=1.0).converged for t in tickets)

    def test_idle_service_returns_immediately(self):
        with SolverService(
            ServeConfig(max_batch_size=2, max_wait_ms=5.0, num_workers=1)
        ) as service:
            start = time.perf_counter()
            assert service.wait_idle(timeout=10.0) is True
            assert time.perf_counter() - start < 1.0

    def test_wait_idle_none_timeout_blocks_until_done(self):
        rng = np.random.default_rng(5)
        hold = FlushHold()
        config = ServeConfig(max_batch_size=4, max_wait_ms=5.0, num_workers=1)
        with SolverService(config, chaos=hold) as service:
            for _ in range(4):
                service.submit(_request(rng))
            service.flush()
            assert hold.entered.wait(timeout=30.0)
            releaser = threading.Timer(0.05, hold.release.set)
            releaser.start()
            assert service.wait_idle() is True
            assert hold.release.is_set()
            assert service.pending == 0

"""CircuitBreaker transitions (unit) and the service-level fallback storm."""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chaos import ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.plan import POISON_BATCH
from repro.exceptions import CircuitOpenError
from repro.recorder.recorder import TRIGGER_BREAKER_OPEN, FlightRecorder
from repro.serve import ServeConfig, SolveRequest, SolverService, SolveTicket
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.telemetry.events import BREAKER_CLOSE, BREAKER_OPEN, REQUEST_FALLBACK


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _breaker(clock, **kwargs):
    defaults = dict(window=8, min_events=4, threshold=0.5, cooldown_s=10.0)
    defaults.update(kwargs)
    return CircuitBreaker(clock=clock, **defaults)


class TestTransitions:
    def test_starts_closed_and_permissive(self):
        breaker = _breaker(FakeClock())
        assert breaker.state == CLOSED
        assert breaker.allow_degraded()
        assert breaker.bad_fraction() == 0.0

    def test_no_trip_below_min_events(self):
        breaker = _breaker(FakeClock())
        for _ in range(3):
            breaker.record(bad=True)
        assert breaker.state == CLOSED

    def test_trips_at_threshold(self):
        opened = []
        clock = FakeClock()
        breaker = _breaker(clock, on_open=lambda b: opened.append(b.opens))
        for bad in (True, True, False, True):
            breaker.record(bad=bad)
        assert breaker.state == OPEN
        assert not breaker.allow_degraded()
        assert opened == [1]

    def test_cooldown_promotes_to_half_open(self):
        clock = FakeClock()
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record(bad=True)
        assert breaker.state == OPEN
        clock.now += 9.0
        assert breaker.state == OPEN
        clock.now += 1.5
        assert breaker.state == HALF_OPEN
        assert breaker.allow_degraded()  # the probe is admitted

    def test_half_open_good_probe_closes(self):
        closed = []
        clock = FakeClock()
        breaker = _breaker(clock, on_close=lambda b: closed.append(b.closes))
        for _ in range(4):
            breaker.record(bad=True)
        clock.now += 11.0
        breaker.record(bad=False)
        assert breaker.state == CLOSED
        assert closed == [1]
        # the window was cleared: old storm outcomes cannot re-trip it
        assert breaker.bad_fraction() == 0.0

    def test_half_open_bad_probe_reopens(self):
        clock = FakeClock()
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record(bad=True)
        clock.now += 11.0
        breaker.record(bad=True)
        assert breaker.state == OPEN
        assert breaker.opens == 2
        # the cooldown restarted from the re-trip
        clock.now += 5.0
        assert breaker.state == OPEN

    def test_window_slides(self):
        clock = FakeClock()
        breaker = _breaker(clock, window=4, min_events=4, threshold=0.75)
        for bad in (True, True, False, False, False, False):
            breaker.record(bad=bad)
        # the two bad outcomes slid out of the window
        assert breaker.bad_fraction() == 0.0
        assert breaker.state == CLOSED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_events": 0},
            {"min_events": 9},
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"cooldown_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(window=8, min_events=4, threshold=0.5, cooldown_s=1.0)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            CircuitBreaker(**defaults)


class _SummingBreaker:
    """The per-outcome rule with the window summed on every outcome: the
    reference ``record_many`` must match."""

    def __init__(self, clock, window, min_events, threshold, cooldown_s):
        self.clock, self.min_events, self.threshold = clock, min_events, threshold
        self.cooldown_s = cooldown_s
        self.outcomes = deque(maxlen=window)
        self.state, self.opened_at, self.opens, self.closes = CLOSED, 0.0, 0, 0
        self.fired = []

    def current_state(self):
        if self.state == OPEN and self.clock() - self.opened_at >= self.cooldown_s:
            self.state = HALF_OPEN
        return self.state

    def record(self, bad):
        self.current_state()
        self.outcomes.append(bad)
        if self.state == HALF_OPEN and not bad:
            self.state, self.closes = CLOSED, self.closes + 1
            self.outcomes.clear()
            self.fired.append("close")
        elif self.state == HALF_OPEN or (
            self.state == CLOSED
            and len(self.outcomes) >= self.min_events
            and sum(self.outcomes) / len(self.outcomes) >= self.threshold
        ):
            self.state, self.opened_at, self.opens = OPEN, self.clock(), self.opens + 1
            self.fired.append("open")


class TestRecordMany:
    @pytest.mark.parametrize("cooldown_s", [0.0, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_one_record_per_outcome(self, seed, cooldown_s):
        rng = np.random.default_rng(seed)
        clock = FakeClock()
        params = dict(window=8, min_events=4, threshold=0.5, cooldown_s=cooldown_s)
        fired = []
        many = CircuitBreaker(
            clock=clock,
            on_open=lambda b: fired.append("open"),
            on_close=lambda b: fired.append("close"),
            **params,
        )
        one = CircuitBreaker(clock=clock, **params)
        reference = _SummingBreaker(clock, **params)
        for _ in range(80):
            size = int(rng.integers(1, 13))
            chunk = (rng.random(size) < rng.choice([0.1, 0.5, 0.9])).tolist()
            many.record_many(chunk)
            for bad in chunk:
                one.record(bad=bad)
                reference.record(bad)
            assert fired == reference.fired
            assert many.state == one.state == reference.current_state()
            assert (many.opens, many.closes) == (one.opens, one.closes)
            assert (many.opens, many.closes) == (reference.opens, reference.closes)
            assert list(many._outcomes) == list(one._outcomes) == list(reference.outcomes)
            window = reference.outcomes
            expected = sum(window) / len(window) if window else 0.0
            assert many.bad_fraction() == one.bad_fraction() == expected
            clock.now += float(rng.choice([0.0, 0.4, 1.5]))
        assert reference.opens > 1 and reference.closes > 0  # the arcs were exercised

    def test_callbacks_fire_after_the_last_outcome(self):
        clock = FakeClock()
        seen = []
        breaker = _breaker(clock, on_open=lambda b: seen.append(len(b._outcomes)))
        breaker.record_many([True] * 6)
        # tripped at the 4th outcome, announced once all six were folded
        assert seen == [6]
        assert breaker.opens == 1


def _tridiag_request(rng, n=8):
    matrix = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    scale = rng.uniform(0.95, 1.05, size=n)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    matrix.data = matrix.data * scale[rows] * scale[matrix.indices]
    return SolveRequest(
        matrix, rng.standard_normal(n), solver="cg", preconditioner="jacobi"
    )


def _storm_config(**overrides):
    defaults = dict(
        max_batch_size=4,
        max_wait_ms=60_000.0,
        num_workers=1,
        breaker_window=8,
        breaker_min_events=4,
        breaker_threshold=0.5,
        breaker_cooldown_s=0.05,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestServiceStorm:
    def test_storm_opens_then_recovery_closes(self):
        """The full arc: poison storm -> open -> cooldown -> probe -> close."""
        import time

        rng = np.random.default_rng(0)
        # poison the first flush only: its 4 rescued requests all record
        # bad outcomes, tripping the breaker; later traffic is healthy
        chaos = ChaosInjector(
            FaultPlan(0, (FaultSpec(POISON_BATCH, every=1, max_faults=1),))
        )
        with SolverService(_storm_config(), chaos=chaos) as service:
            storm = [service.submit(_tridiag_request(rng)) for _ in range(4)]
            assert all(t.exception(timeout=30.0) is None for t in storm)
            assert all(t.result(timeout=1.0).used_fallback for t in storm)
            assert service.breaker.state == OPEN
            assert int(service.metrics.counter("serve.breaker_opens").value) == 1
            assert int(service.metrics.gauge("serve.breaker_state").value) == 1

            time.sleep(0.1)  # past the cooldown: half-open, probe admitted
            healthy = [service.submit(_tridiag_request(rng)) for _ in range(4)]
            assert all(t.exception(timeout=30.0) is None for t in healthy)
            assert not any(t.result(timeout=1.0).used_fallback for t in healthy)
            assert service.breaker.state == CLOSED
            assert int(service.metrics.counter("serve.breaker_closes").value) == 1
            assert int(service.metrics.gauge("serve.breaker_state").value) == 0

        events = [e["type"] for e in service.events.records()]
        assert BREAKER_OPEN in events
        assert BREAKER_CLOSE in events

    def test_open_breaker_sheds_degraded_work_with_503(self):
        rng = np.random.default_rng(1)
        # an unbounded poison storm: flush 0 trips the breaker via its
        # rescued fallbacks; flush 1's rescue finds it open and sheds
        chaos = ChaosInjector(FaultPlan(0, (FaultSpec(POISON_BATCH, every=1),)))
        with SolverService(
            _storm_config(breaker_cooldown_s=60.0), chaos=chaos
        ) as service:
            first = [service.submit(_tridiag_request(rng)) for _ in range(4)]
            assert all(t.exception(timeout=30.0) is None for t in first)
            assert service.breaker.state == OPEN
            shed = [service.submit(_tridiag_request(rng)) for _ in range(4)]
            errors = [t.exception(timeout=30.0) for t in shed]
            assert all(isinstance(e, CircuitOpenError) for e in errors)
            assert all(e.status_code == 503 and e.error_code == "breaker_open"
                       for e in errors)
            assert all(e.retry_after_s == 60.0 for e in errors)
            assert int(service.metrics.counter("serve.breaker_fast_fails").value) == 4

    def test_opening_flush_completes_with_unwritable_dump_dir(self, unwritable_dir):
        # the breaker opens inside the flush's completion; the recorder's
        # failed bundle write must not keep any of its tickets pending
        recorder = FlightRecorder(dump_dir=unwritable_dir)
        rng = np.random.default_rng(3)
        config = _storm_config(max_batch_size=6, breaker_cooldown_s=60.0)
        with SolverService(config, recorder=recorder) as service:
            tickets = [service.submit(_nonconvergent_request(rng)) for _ in range(6)]
            assert all(t.result(timeout=10.0).used_fallback for t in tickets)
            assert service.breaker.state == OPEN
            assert service.wait_idle(timeout=5.0)
        assert recorder.triggers_fired == {TRIGGER_BREAKER_OPEN: 1}
        assert recorder.summary()["dump_errors"] == 1


def _nonconvergent_request(rng, n=12):
    """Nonsymmetric on the tridiagonal pattern: CG cannot converge in 40 steps."""
    matrix = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    data = matrix.data.copy()
    off = data < 0
    data[off] = np.where(np.arange(off.sum()) % 2 == 0, 100.0, -99.0)
    matrix.data = data
    return SolveRequest(
        matrix, rng.standard_normal(n), solver="cg", preconditioner="jacobi",
        max_iterations=40,
    )


class TestFlushOutcomesFoldOnce:
    """A flush hands the breaker all its outcomes at once, after its fallbacks."""

    @pytest.mark.parametrize("path", ["rescue", "not_converged"])
    def test_breaker_trips_after_the_flush(self, path, monkeypatch):
        rng = np.random.default_rng(3)
        if path == "rescue":  # the whole flush fails; each request is rescued
            chaos = ChaosInjector(
                FaultPlan(0, (FaultSpec(POISON_BATCH, every=1, max_faults=1),))
            )
            requests = [_tridiag_request(rng) for _ in range(6)]
        else:  # the flush solves; each system fails to converge and falls back
            chaos = None
            requests = [_nonconvergent_request(rng) for _ in range(6)]
        config = _storm_config(max_batch_size=6, breaker_cooldown_s=60.0)
        service = SolverService(config, chaos=chaos)
        states = []
        complete = SolveTicket._complete

        def recording_complete(ticket, outcome):
            states.append(service.breaker.state)
            complete(ticket, outcome)

        monkeypatch.setattr(SolveTicket, "_complete", recording_complete)
        with service:
            tickets = [service.submit(r) for r in requests]
            assert all(t.result(timeout=30.0).used_fallback for t in tickets)
        # min_events=4 would trip at the 4th outcome; no ticket completes
        # before all six are folded, so each sees the breaker open
        assert states == [OPEN] * 6
        types = [r["type"] for r in service.events.records()]
        assert types.count(REQUEST_FALLBACK) == 6
        assert types.count(BREAKER_OPEN) == 1
        last_fallback = len(types) - 1 - types[::-1].index(REQUEST_FALLBACK)
        assert types.index(BREAKER_OPEN) > last_fallback

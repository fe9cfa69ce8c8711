"""End-to-end chaos regression: a 4-shard fleet under the seeded battery.

The gate the chaos harness exists for: worker deaths mid-flush and
poisoned batches against a real fleet must produce **zero lost tickets**
— every request ends in an outcome or a structured error — and the
shared telemetry must stay walkable: every request's trace reconstructs
from admission to a terminal event, and every injection is on the log.
"""

import numpy as np
import scipy.sparse as sp

from repro.chaos import ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.plan import POISON_BATCH, WORKER_DIE
from repro.exceptions import ReproError
from repro.fleet import FleetConfig, FleetService
from repro.instruments import use
from repro.serve import ServeConfig, SolveRequest
from repro.telemetry.events import (
    CHAOS_INJECTED,
    REQUEST_ADMITTED,
    REQUEST_FAILED,
    REQUEST_FALLBACK,
    REQUEST_SOLVED,
)
from repro.telemetry.hub import TelemetryHub

TERMINAL = {REQUEST_SOLVED, REQUEST_FALLBACK, REQUEST_FAILED}


def _request(rng, key, n=8):
    matrix = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    scale = rng.uniform(0.95, 1.05, size=n)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    matrix.data = matrix.data * scale[rows] * scale[matrix.indices]
    return SolveRequest(
        matrix,
        rng.standard_normal(n),
        solver="cg",
        preconditioner="jacobi",
        max_iterations=500 + key,  # key diversity -> shard diversity
    )


def _run_fleet(plan, num_requests=64, num_keys=8, fallback=True):
    injector = ChaosInjector(plan)
    hub = TelemetryHub(event_log_capacity=16384)
    config = FleetConfig(
        serve=ServeConfig(
            max_batch_size=4, max_wait_ms=60_000.0, num_workers=1, fallback=fallback
        ),
        initial_replicas=4,
    )
    rng = np.random.default_rng(0)
    with use(hub=hub, events=hub.event_log):
        fleet = FleetService(config, chaos=injector)
    requests = [_request(rng, key=i % num_keys) for i in range(num_requests)]
    with fleet:
        tickets = [fleet.submit(r) for r in requests]
        fleet.flush()
        errors = [t.exception(timeout=60.0) for t in tickets]
    return injector, hub, fleet, requests, tickets, errors


class TestFourShardBattery:
    def test_zero_lost_tickets_under_battery(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan.battery(seed=0)
        )
        # every ticket reached a terminal state within the wait budget —
        # the zero-lost invariant (success is NOT required: a sustained
        # fault storm may trip a shard's breaker, which sheds with a
        # structured 503 rather than amplifying the storm)
        assert all(t.done() for t in tickets)
        for error in errors:
            if error is not None:
                assert isinstance(error, ReproError), error
                assert getattr(error, "status_code", 500) != 500, error
        assert injector.total_injected > 0
        by_kind = injector.injected_by_kind()
        assert by_kind.get(WORKER_DIE, 0) >= 1
        assert by_kind.get(POISON_BATCH, 0) >= 1

    def test_structured_failures_without_fallback(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan(0, (FaultSpec(WORKER_DIE, every=3),)), fallback=False
        )
        assert all(t.done() for t in tickets)
        failures = [e for e in errors if e is not None]
        assert failures, "the every-3 cadence must hit at least one flush"
        for error in failures:
            assert isinstance(error, ReproError)
            assert error.status_code == 503
            assert error.error_code == "worker_died"

    def test_load_spreads_over_shards(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan.battery(seed=0)
        )
        accepted = [
            int(s.service.metrics.counter("serve.accepted").value)
            for s in fleet.shards()
        ]
        assert len(accepted) == 4
        assert sum(1 for a in accepted if a > 0) >= 2, accepted

    def test_shard_stats_surface_breaker_state(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan.battery(seed=0)
        )
        for row in fleet.shard_stats():
            assert row["breaker"] in ("closed", "open", "half_open")


class TestWalkableTraces:
    def test_every_request_reconstructs_admission_to_terminal(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan.battery(seed=0)
        )
        log = hub.event_log
        for request in requests:
            journey = log.records_for(request.trace_context.trace_id)
            types = [e["type"] for e in journey]
            assert REQUEST_ADMITTED in types, request.request_id
            assert TERMINAL & set(types), (request.request_id, types)
            # admission precedes the terminal event in retained order
            first_terminal = next(i for i, t in enumerate(types) if t in TERMINAL)
            assert types.index(REQUEST_ADMITTED) < first_terminal

    def test_injections_appear_on_the_shared_log(self):
        injector, hub, fleet, requests, tickets, errors = _run_fleet(
            FaultPlan.battery(seed=0)
        )
        records = [e for e in hub.event_log.records() if e["type"] == CHAOS_INJECTED]
        assert len(records) == injector.total_injected
        # each injection record names its flush and kind — enough to
        # replay the exact firing from the seed
        for record in records:
            assert record["fields"]["kind"] in injector.injected_by_kind()
            assert record["fields"]["flush_id"].startswith("flush-")

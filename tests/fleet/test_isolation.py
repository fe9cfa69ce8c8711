"""What a fleet does that one service cannot: isolate a sick batch key.

Every request of the sick key needs the direct-LU fallback. Behind a
fleet of two one-worker shards it opens only its own shard's breaker and
holds only its own shard's worker, so the healthy key on the other shard
keeps both its fallback path and a worker. One service with two workers
shares its breaker and its workers between the keys, and each property
fails there. ``scripts/bench_fleet_scaling.py`` times the same isolation
as the healthy key's p99.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import CircuitOpenError
from repro.fleet import FleetConfig, FleetService, HashRing
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.telemetry import dashboard_text

from tests.conftest import FlushHold

#: One request per flush; four fallbacks open the breaker, and it stays
#: open for the rest of the test.
SERVE = ServeConfig(
    max_batch_size=1,
    num_workers=1,
    breaker_window=8,
    breaker_min_events=4,
    breaker_cooldown_s=60.0,
)

MODES = ["fleet", "one service"]


def _tridiag(n, diag, upper):
    # (2, -1) is SPD; with diagonal 0.3 and super-diagonal +1, Jacobi CG
    # never converges, so every such request takes the direct-LU fallback
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, diag), np.full(n - 1, upper)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _sick(rng):
    return SolveRequest(
        _tridiag(32, 0.3, 1.0), rng.standard_normal(32), solver="cg",
        preconditioner="jacobi", tolerance=1e-10, max_iterations=200,
    )


def _healthy_request(rng, max_iterations, sick_values=False):
    matrix = _tridiag(24, 0.3, 1.0) if sick_values else _tridiag(24, 2.0, -1.0)
    return SolveRequest(
        matrix, rng.standard_normal(24), solver="cg",
        preconditioner="jacobi", max_iterations=max_iterations,
    )


def _apart_iterations():
    """A healthy-key ``max_iterations`` that a fleet of two shards routes
    away from the sick key (ring routing is a pure function of membership)."""
    ring = HashRing(FleetConfig().virtual_nodes)
    ring.add("shard-0")
    ring.add("shard-1")
    rng = np.random.default_rng(0)
    sick_owner = ring.node_for(_sick(rng).batch_key)
    return next(
        iters
        for iters in range(100, 164)
        if ring.node_for(_healthy_request(rng, iters).batch_key) != sick_owner
    )


HEALTHY_ITERATIONS = _apart_iterations()


def _healthy(rng, sick_values=False):
    return _healthy_request(rng, HEALTHY_ITERATIONS, sick_values)


def _serve(mode, chaos=None):
    if mode == "fleet":
        return FleetService(FleetConfig(serve=SERVE, initial_replicas=2), chaos=chaos)
    return SolverService(replace(SERVE, num_workers=2), chaos=chaos)


def _settle(ticket):
    return ticket.exception(timeout=30.0) or ticket.result()


@pytest.mark.parametrize("mode", MODES)
def test_a_sick_key_opens_only_its_own_breaker(mode):
    rng = np.random.default_rng(1)
    with _serve(mode) as service:
        outcomes = [_settle(service.submit(_sick(rng))) for _ in range(6)]
        # four direct-LU rescues open the breaker, which sheds the next two
        assert all(o.used_fallback and o.converged for o in outcomes[:4])
        assert all(isinstance(o, CircuitOpenError) for o in outcomes[4:])

        # a healthy-key request that needs the fallback itself
        request = _healthy(rng, sick_values=True)
        assert request.batch_key == _healthy(rng).batch_key
        ticket = service.submit(request)
        if mode == "fleet":
            rescue = ticket.result(timeout=30.0)
            assert rescue.used_fallback and rescue.converged
            owners = {
                "sick": service.ring.node_for(_sick(rng).batch_key),
                "healthy": service.ring.node_for(request.batch_key),
            }
            breakers = {row["shard"]: row["breaker"] for row in service.shard_stats()}
            assert breakers == {owners["sick"]: "open", owners["healthy"]: "closed"}
            # the dashboard's shard panel shows the same split
            frame = dashboard_text(service.metrics, fleet=service)
            panel = {
                line.split()[0]: line.split()
                for line in frame.splitlines()
                if line.startswith("shard-") and "active" in line
            }
            assert "open" in panel[owners["sick"]]
            assert "closed" in panel[owners["healthy"]]
        else:
            with pytest.raises(CircuitOpenError) as refused:
                ticket.result(timeout=30.0)
            assert refused.value.status_code == 503


@pytest.mark.parametrize("mode", MODES)
def test_held_sick_flushes_leave_the_healthy_key_a_worker(mode):
    rng = np.random.default_rng(2)
    sick = [_sick(rng) for _ in range(2)]
    hold = FlushHold(key=sick[0].batch_key)
    with _serve(mode, chaos=hold) as service:
        held = [service.submit(request) for request in sick]
        # the sick shard's one worker holds one flush; one service's two
        # workers hold one each
        assert hold.wait_held(1 if mode == "fleet" else 2)
        healthy = service.submit(_healthy(rng))
        if mode == "fleet":
            assert healthy.result(timeout=30.0).converged
            assert hold.held == 1 and not hold.release.is_set()
        else:
            with pytest.raises(TimeoutError):
                healthy.result(timeout=0.2)
        hold.release.set()
        assert healthy.result(timeout=30.0).converged
        assert all(_settle(ticket).used_fallback for ticket in held)

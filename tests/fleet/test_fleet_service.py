"""FleetService end-to-end: routing, admission, scaling, drain, wiring."""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ServiceClosedError, ServiceSaturatedError
from repro.fleet import FleetConfig, FleetService
from repro.observability import render_prometheus
from repro.observability.tracer import Tracer
from repro.serve import ServeConfig, SolveRequest

from tests.conftest import FlushHold


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _request(rng, n=8, key_salt=0, **kwargs):
    """One well-conditioned request; ``key_salt`` varies only the BatchKey."""
    matrix = _tridiag(n)
    matrix.data = matrix.data * rng.uniform(0.9, 1.1, size=matrix.nnz)
    kwargs.setdefault("solver", "cg")
    kwargs.setdefault("preconditioner", "jacobi")
    kwargs.setdefault("max_iterations", 500 + key_salt)
    return SolveRequest(matrix, rng.standard_normal(n), **kwargs)


def _wait_for_rebalance(fleet, action, timeout=30.0):
    """The first ``fleet.rebalance`` event with ``action`` (``None`` when
    none is emitted within ``timeout``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for ev in fleet.events.events():
            if ev.type == "fleet.rebalance" and ev.fields.get("action") == action:
                return ev
        time.sleep(0.005)
    return None


def _config(**overrides):
    serve = overrides.pop(
        "serve", ServeConfig(max_batch_size=4, max_wait_ms=5.0, num_workers=1)
    )
    overrides.setdefault("initial_replicas", 2)
    return FleetConfig(serve=serve, **overrides)


class TestRouting:
    def test_key_affinity(self):
        rng = np.random.default_rng(0)
        with FleetService(_config(initial_replicas=3)) as fleet:
            requests = [_request(rng, key_salt=i % 6) for i in range(24)]
            owners = {}
            for request in requests:
                owner = fleet.ring.node_for(request.batch_key)
                token = repr(request.batch_key)
                # every request of one key sees one owner
                assert owners.setdefault(token, owner) == owner
            tickets = [fleet.submit(r) for r in requests]
            fleet.flush()
            assert all(t.result(timeout=60.0).converged for t in tickets)
            # routed counters agree with the ring's assignment
            stats = {row["shard"]: row["served"] for row in fleet.shard_stats()}
            assert sum(stats.values()) == 24
            # every shard that served traffic planned in its own plan cache
            caches = {shard.name: shard.service.plan_cache for shard in fleet.shards()}
            assert len({id(cache) for cache in caches.values()}) == len(caches)
            for name, cache in caches.items():
                if stats[name]:
                    assert cache.hits + cache.misses > 0

    def test_solve_convenience(self):
        rng = np.random.default_rng(1)
        config = _config(
            serve=ServeConfig(max_batch_size=1, max_wait_ms=1.0, num_workers=1)
        )
        with FleetService(config) as fleet:
            outcome = fleet.solve(_request(rng), timeout=60.0)
            assert outcome.converged

    def test_wide_backend_shards(self):
        rng = np.random.default_rng(2)
        config = _config(
            serve=ServeConfig(
                max_batch_size=4, max_wait_ms=5.0, num_workers=1, backend="wide"
            )
        )
        with FleetService(config) as fleet:
            tickets = [fleet.submit(_request(rng, key_salt=i % 4)) for i in range(8)]
            fleet.flush()
            assert all(t.result(timeout=60.0).converged for t in tickets)


class TestAdmission:
    def test_fleet_backpressure_fires_before_shards(self):
        rng = np.random.default_rng(3)
        config = _config(
            serve=ServeConfig(
                max_batch_size=64, max_wait_ms=500.0, max_pending=64, num_workers=1
            ),
            max_pending=3,
        )
        with FleetService(config) as fleet:
            held = [fleet.submit(_request(rng, key_salt=i)) for i in range(3)]
            with pytest.raises(ServiceSaturatedError) as excinfo:
                fleet.submit(_request(rng, key_salt=9))
            assert excinfo.value.retry_after_s > 0
            assert fleet.metrics.counter("fleet.rejected").value == 1
            # no shard saw the rejected request
            assert all(
                row["rejected"] == 0 for row in fleet.shard_stats()
            )
            fleet.flush()
            assert all(t.result(timeout=60.0).converged for t in held)

    def test_submit_after_close_raises(self):
        fleet = FleetService(_config())
        fleet.close()
        rng = np.random.default_rng(4)
        with pytest.raises(ServiceClosedError):
            fleet.submit(_request(rng))

    def test_double_close_is_noop(self):
        fleet = FleetService(_config())
        fleet.close()
        fleet.close()


class TestScaling:
    def test_scale_down_never_drains_the_last_shard(self):
        with FleetService(_config(initial_replicas=2)) as fleet:
            assert len(fleet.scale_down(5)) == 1
            assert fleet.num_replicas == 1
            assert fleet.scale_down() == []
            assert fleet.num_replicas == 1
            assert fleet.metrics.counter("fleet.scale_downs").value == 1

    def test_scale_up_emits_rebalance_and_reroutes(self):
        rng = np.random.default_rng(5)
        with FleetService(_config(initial_replicas=2)) as fleet:
            requests = [_request(rng, key_salt=i) for i in range(24)]
            before = {
                repr(r.batch_key): fleet.ring.node_for(r.batch_key)
                for r in requests
            }
            for request in requests:
                fleet.submit(request)
            fleet.flush()
            fleet.wait_idle(timeout=60.0)

            fleet.scale_up(1)
            after = {
                repr(r.batch_key): fleet.ring.node_for(r.batch_key)
                for r in requests
            }
            moved = sum(1 for token in before if before[token] != after[token])

            # resubmitting the same keys emits one request.rerouted per
            # request whose owner changed (grouped per submission here:
            # one request per key, so counts match exactly)
            for request in requests:
                fleet.submit(request)
            fleet.flush()
            fleet.wait_idle(timeout=60.0)
            assert fleet.metrics.counter("fleet.rerouted").value == moved
            types = [ev.type for ev in fleet.events.events()]
            assert "fleet.rebalance" in types
            if moved:
                assert "request.rerouted" in types

    def test_graceful_drain_loses_nothing(self):
        rng = np.random.default_rng(6)
        hold = FlushHold()
        with FleetService(_config(), chaos=hold) as fleet:
            tickets = [fleet.submit(_request(rng, key_salt=i % 8)) for i in range(24)]
            fleet.flush()
            drained = []
            drainer = threading.Thread(
                target=lambda: drained.extend(fleet.scale_down(1))
            )
            drainer.start()
            # release the held flushes only once the drain has begun, so
            # the departing shard's requests are in flight during it
            begin = _wait_for_rebalance(fleet, "drain_begin")
            assert begin is not None and begin.fields["pending"] > 0
            hold.release.set()
            drainer.join(timeout=60.0)
            assert not drainer.is_alive()
            assert len(drained) == 1
            assert all(t.result(timeout=60.0).converged for t in tickets)
            assert fleet.num_replicas == 1
            actions = {
                ev.fields.get("action")
                for ev in fleet.events.events()
                if ev.type == "fleet.rebalance"
            }
            assert {"drain_begin", "drain_complete"} <= actions

    def test_shards_flush_concurrently(self):
        # every shard's only worker waits inside its flush until all four
        # are inside one: shards that cannot flush at the same time break
        # the barrier at its timeout
        barrier = threading.Barrier(4, timeout=10.0)

        class _MeetAtBarrier:
            def on_flush(self, service, flush, worker, matrix, b):
                barrier.wait()

        rng = np.random.default_rng(11)
        config = _config(
            serve=ServeConfig(max_batch_size=2, max_wait_ms=60_000.0, num_workers=1),
            initial_replicas=4,
        )
        with FleetService(config, chaos=_MeetAtBarrier()) as fleet:
            # one batch key owned by each shard, two requests per key (a
            # size flush each)
            salts = {}
            for salt in range(64):
                owner = fleet.ring.node_for(_request(rng, key_salt=salt).batch_key)
                salts.setdefault(owner, salt)
            assert len(salts) == 4
            tickets = [
                fleet.submit(_request(rng, key_salt=salt))
                for salt in salts.values()
                for _ in range(2)
            ]
            outcomes = [t.result(timeout=60.0) for t in tickets]
        assert not barrier.broken
        assert all(outcome.converged for outcome in outcomes)

    def test_drain_unknown_shard_raises(self):
        with FleetService(_config()) as fleet:
            with pytest.raises(KeyError):
                fleet.drain("shard-99")


class TestSubmitRacingDrain:
    def test_submit_racing_a_drain_of_its_owner_is_served(self, monkeypatch):
        # the hook lets a whole drain of the owner shard run between the
        # router picking the owner and the shard admitting the request;
        # admitted after its owner closed, the request would be refused by
        # a fleet that is still open
        rng = np.random.default_rng(12)
        config = _config(
            serve=ServeConfig(max_batch_size=1, max_wait_ms=5.0, num_workers=1)
        )
        with FleetService(config) as fleet:
            request = _request(rng)
            owner = fleet.ring.node_for(request.batch_key)
            service = next(s for s in fleet.shards() if s.name == owner).service
            drainer = threading.Thread(target=fleet.drain, args=(owner,))
            submit = service.submit

            def racing_submit(req):
                drainer.start()
                drainer.join(timeout=1.0)  # returns at once if the drain can finish now
                return submit(req)

            monkeypatch.setattr(service, "submit", racing_submit)
            ticket = fleet.submit(request)
            assert ticket.result(timeout=30.0).converged
            drainer.join(timeout=30.0)
            assert not drainer.is_alive()
            assert fleet.num_replicas == 1


class TestObservability:
    def test_prometheus_shard_labels(self):
        rng = np.random.default_rng(7)
        with FleetService(_config()) as fleet:
            tickets = [fleet.submit(_request(rng, key_salt=i)) for i in range(8)]
            fleet.flush()
            for ticket in tickets:
                ticket.result(timeout=60.0)
            text = render_prometheus(fleet.metrics)
        assert 'shard="shard-0"' in text
        assert "fleet_replicas" in text

    def test_latency_histogram_merges_shards(self):
        rng = np.random.default_rng(8)
        with FleetService(_config()) as fleet:
            tickets = [fleet.submit(_request(rng, key_salt=i)) for i in range(12)]
            fleet.flush()
            for ticket in tickets:
                ticket.result(timeout=60.0)
            rollup = fleet.latency_histogram()
            assert rollup.count == 12
            per_shard = sum(
                shard.service.metrics.log_histogram("serve.latency_hdr_ms").count
                for shard in fleet.shards()
            )
            assert per_shard == 12
            # draining the busiest shard keeps its latencies in the rollup
            busiest = max(
                fleet.shards(),
                key=lambda s: s.service.metrics.counter("serve.served").value,
            )
            fleet.drain(busiest.name)
            assert fleet.latency_histogram().count == 12

    def test_router_span_links_request_trace(self):
        tracer = Tracer()
        rng = np.random.default_rng(9)
        with FleetService(_config(), tracer=tracer) as fleet:
            request = _request(rng)
            fleet.solve(request, timeout=60.0)
        routes = [s for s in tracer.spans if s.name == "fleet.route"]
        assert routes, "the router must record its leg of the journey"
        route = routes[0]
        assert route.args["shard"].startswith("shard-")
        # pinned to the request's trace, like the shard flush span's link
        assert route.trace_id == request.trace_context.trace_id
        flushes = [s for s in tracer.spans if s.name == "serve.flush"]
        assert any(
            link["trace_id"] == request.trace_context.trace_id
            for span in flushes
            for link in span.links
        )

    def test_context_manager_abort_on_error(self):
        rng = np.random.default_rng(10)
        config = _config(
            serve=ServeConfig(max_batch_size=64, max_wait_ms=500.0, num_workers=1)
        )
        with pytest.raises(RuntimeError, match="boom"):
            with FleetService(config) as fleet:
                ticket = fleet.submit(_request(rng))
                raise RuntimeError("boom")
        # abort path: the queued request fails fast instead of hanging
        with pytest.raises(ServiceClosedError):
            ticket.result(timeout=5.0)

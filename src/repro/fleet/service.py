"""The fleet: consistent-hash routing over N shard replicas + lifecycle.

:class:`FleetService` is Layer 11 — the scale-*out* counterpart of the
paper's scale-*up* argument. Each shard replica is a full
:class:`~repro.serve.service.SolverService` (own device queue(s), own
micro-batcher, own :class:`~repro.serve.plan_cache.PlanCache`); the
fleet routes every request to the shard that owns its
:class:`~repro.serve.request.BatchKey` on a consistent-hash ring, so one
compatibility class coalesces in one shard's batcher and that shard's
plan cache stays hot for exactly the keys it owns.

Control-plane behaviours:

* **Fleet admission** — past ``FleetConfig.max_pending`` total in-flight
  requests the fleet rejects with
  :class:`~repro.exceptions.ServiceSaturatedError` *before* any shard is
  touched; shard-level saturation stays the per-shard hot-spot signal.
* **Scale up** — :meth:`scale_up` starts a fresh replica and inserts its
  virtual nodes; ~1/N of keys remap to it (a ``fleet.rebalance`` event
  records the membership change, ``request.rerouted`` events record each
  key whose owner changed).
* **Graceful drain** — :meth:`drain` removes a shard's ring range first
  (no new keys route to it), then flushes its micro-batcher, waits for
  every in-flight ticket, folds its latency histogram into the fleet's
  rollup, and closes it: a scale-down loses zero admitted requests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace as dc_replace

from repro.exceptions import ServiceClosedError, ServiceSaturatedError
from repro.fleet.config import DRAIN_TIMEOUT_S, FleetConfig
from repro.fleet.ring import HashRing, ring_token
from repro.instruments import current, use
from repro.observability.metrics import LogHistogram, MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.serve.config import EVENT_LOG_CAPACITY, RETRY_AFTER_MS
from repro.serve.request import SolveOutcome, SolveRequest, SolveTicket
from repro.serve.service import SolverService
from repro.telemetry.events import (
    FLEET_REBALANCE,
    REQUEST_REJECTED,
    REQUEST_REROUTED,
    EventLog,
)

#: Shard lifecycle states.
ACTIVE = "active"
DRAINING = "draining"
STOPPED = "stopped"

#: Bound on the router's key→owner memory (it only feeds reroute events).
_OWNER_MEMORY = 4096


class ShardReplica:
    """One fleet member: a named :class:`SolverService` plus its state."""

    __slots__ = ("name", "service", "state")

    def __init__(self, name: str, service: SolverService) -> None:
        self.name = name
        self.service = service
        self.state = ACTIVE

    def __repr__(self) -> str:
        return f"ShardReplica({self.name!r}, state={self.state!r}, pending={self.service.pending})"


class FleetService:
    """Front N shard replicas behind one consistent-hash router.

    Usage::

        with FleetService(FleetConfig(initial_replicas=2)) as fleet:
            ticket = fleet.submit(request)
            outcome = ticket.result(timeout=5.0)
            fleet.scale_up()        # adds shard-2, remaps ~1/3 of keys
            fleet.scale_down()      # drains the least-loaded shard

    The fleet captures the installed observers
    (:func:`repro.instruments.current`) when it is built, explicit
    ``tracer`` and ``chaos`` arguments overriding them, and builds every
    shard under that record with the fleet's :attr:`events` log installed.
    A request's journey — ``fleet.route`` span → shard flush span (linked
    via the request's trace context) — renders on one timeline; every
    shard emits into :attr:`events` and rings into the one flight recorder
    installed when the fleet was built, so dumping that recorder gives the
    whole fleet's bundle. Metrics stay per shard (:meth:`shard_stats`).
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        tracer: Tracer | None = None,
        chaos: object | None = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        # one injector is shared by every shard: the fault plan's flush
        # sequence is fleet-global, so a seeded battery hits the same
        # schedule whether it runs against 1 shard or 8
        explicit = {"tracer": tracer, "chaos": chaos}
        instruments = dc_replace(
            current(), **{k: v for k, v in explicit.items() if v is not None}
        )
        self.chaos = instruments.chaos
        self.metrics = MetricsRegistry()
        if instruments.hub is not None:
            instruments.hub.register(self.metrics)
        self.events = instruments.events
        if self.events is None:
            self.events = EventLog(capacity=EVENT_LOG_CAPACITY)
            self.events.recorder = instruments.recorder
        self._instruments = dc_replace(instruments, events=self.events)
        self.ring = HashRing(self.config.virtual_nodes)
        self._shards: dict[str, ShardReplica] = {}
        self._owners: OrderedDict[str, str] = OrderedDict()  # ring token -> shard
        self._retired_latency = LogHistogram("fleet.latency_hdr_ms")  # drained shards
        self._seq = 0
        self._closed = False
        self._lock = threading.RLock()
        for _ in range(self.config.initial_replicas):
            self._start_shard(reason="bootstrap")

    # -- membership ----------------------------------------------------------

    def _start_shard(self, reason: str) -> ShardReplica:
        """Create, register and ring-insert one replica (under the lock)."""
        with self._lock:
            name = f"shard-{self._seq}"
            self._seq += 1
            with use(**vars(self._instruments)):
                service = SolverService(self.config.serve)
            shard = ShardReplica(name, service)
            self._shards[name] = shard
            self.ring.add(name)
            self.metrics.gauge("fleet.replicas").set(len(self.active_shards()))
            self.events.emit(
                FLEET_REBALANCE,
                action="add",
                shard=name,
                reason=reason,
                replicas=len(self.active_shards()),
            )
            return shard

    def shards(self) -> list[ShardReplica]:
        """Every registered replica (active and draining), name-ordered."""
        with self._lock:
            return [self._shards[k] for k in sorted(self._shards)]

    def active_shards(self) -> list[ShardReplica]:
        """Replicas currently admitting (on the ring), name-ordered."""
        with self._lock:
            return [s for s in self.shards() if s.state == ACTIVE]

    @property
    def num_replicas(self) -> int:
        """Active replica count."""
        return len(self.active_shards())

    # -- routing / admission -------------------------------------------------

    @property
    def pending(self) -> int:
        """Total in-flight requests across every replica."""
        with self._lock:
            return sum(s.service.pending for s in self._shards.values())

    def submit(self, request: SolveRequest) -> SolveTicket:
        """Route one request to the shard owning its batch key.

        Raises :class:`ServiceSaturatedError` on fleet-level backpressure
        (total pending over ``FleetConfig.max_pending``) and
        :class:`ServiceClosedError` after :meth:`close`. Shard-level
        saturation, should an individual hot shard still fill up, is the
        shard's own :class:`ServiceSaturatedError` passing through.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("fleet is closed")
            pending = sum(s.service.pending for s in self._shards.values())
            if pending >= self.config.max_pending:
                self.metrics.counter("fleet.rejected").inc()
                self.events.emit(
                    REQUEST_REJECTED,
                    ctx=request.trace_context,
                    critical=True,
                    scope="fleet",
                    pending=pending,
                    max_pending=self.config.max_pending,
                )
                raise ServiceSaturatedError(
                    f"fleet saturated: {pending} requests pending "
                    f"(max_pending={self.config.max_pending})",
                    retry_after_s=RETRY_AFTER_MS / 1e3,
                )
            key = request.batch_key
            owner = self.ring.node_for(key)
            shard = self._shards[owner]
            self._note_owner(key, owner, request)
            self.metrics.counter("fleet.requests").inc()
            self.metrics.counter("fleet.routed").labels(shard=owner).inc()
            tracer = self._instruments.tracer or NULL_TRACER
            # the router's leg of the journey: pinned to the request's
            # trace, so it links up with the shard's flush span (which
            # `span.link`s the same context at flush time). The shard
            # admits under the lock drain() takes it off the ring under,
            # so a request is admitted before its owner's drain begins or
            # routed to a survivor; the shard's submit never blocks (the
            # pool's job queue is unbounded).
            with tracer.span(
                "fleet.route",
                category="fleet",
                context=request.trace_context,
                shard=owner,
                solver=request.solver,
                num_rows=request.num_rows,
            ):
                return shard.service.submit(request)

    def _note_owner(self, key, owner: str, request: SolveRequest) -> None:
        """Track key ownership; emit ``request.rerouted`` on a change.

        Bounded LRU memory — the map exists to surface rebalance effects
        as structured events, not to be a second routing table.
        """
        token = ring_token(key)
        previous = self._owners.get(token)
        if previous is not None:
            self._owners.move_to_end(token)
        self._owners[token] = owner
        while len(self._owners) > _OWNER_MEMORY:
            self._owners.popitem(last=False)
        if previous is not None and previous != owner:
            self.metrics.counter("fleet.rerouted").inc()
            self.events.emit(
                REQUEST_REROUTED,
                ctx=request.trace_context,
                from_shard=previous,
                to_shard=owner,
                solver=request.solver,
                num_rows=request.num_rows,
            )

    def solve(self, request: SolveRequest, timeout: float | None = None) -> SolveOutcome:
        """Submit one request and block for its outcome (convenience)."""
        return self.submit(request).result(timeout)

    # -- scaling -------------------------------------------------------------

    def scale_up(self, count: int = 1) -> list[str]:
        """Start ``count`` new replicas (bounded by ``max_replicas``).

        Returns the new shard names; an empty list means the fleet is
        already at its maximum.
        """
        added: list[str] = []
        with self._lock:
            if self._closed:
                raise ServiceClosedError("fleet is closed")
            for _ in range(count):
                if self.num_replicas >= self.config.max_replicas:
                    break
                added.append(self._start_shard(reason="scale_up").name)
                self.metrics.counter("fleet.scale_ups").inc()
        return added

    def scale_down(self, count: int = 1, timeout: float | None = None) -> list[str]:
        """Gracefully drain ``count`` replicas (bounded by ``min_replicas``).

        Victims are the least-loaded active shards. Returns the drained
        shard names; an empty list means the fleet is already at its
        minimum.
        """
        drained: list[str] = []
        for _ in range(count):
            with self._lock:
                if self._closed:
                    raise ServiceClosedError("fleet is closed")
                candidates = self.active_shards()
                if len(candidates) <= self.config.min_replicas:
                    break
                victim = min(candidates, key=lambda s: (s.service.pending, s.name))
                name = victim.name
            self.drain(name, timeout=timeout)
            drained.append(name)
            self.metrics.counter("fleet.scale_downs").inc()
        return drained

    def drain(self, name: str, timeout: float | None = None) -> None:
        """Gracefully remove shard ``name`` with zero dropped requests.

        Protocol: (1) under the lock, take the shard off the ring and mark
        it ``draining`` — from this instant no new request routes to it
        and its key range belongs to the survivors; (2) outside the lock,
        flush its micro-batcher and wait for every in-flight ticket;
        (3) close it, fold its latencies into the fleet rollup and forget
        it. Requests admitted before step 1 all complete normally.
        """
        timeout = DRAIN_TIMEOUT_S if timeout is None else timeout
        with self._lock:
            shard = self._shards.get(name)
            if shard is None or shard.state != ACTIVE:
                raise KeyError(f"no active shard named {name!r}")
            shard.state = DRAINING
            self.ring.remove(name)
            self.metrics.gauge("fleet.replicas").set(len(self.active_shards()))
            self.events.emit(
                FLEET_REBALANCE,
                action="drain_begin",
                shard=name,
                pending=shard.service.pending,
                replicas=len(self.active_shards()),
            )
        shard.service.flush()
        completed = shard.service.wait_idle(timeout=timeout)
        shard.service.close(drain=True)
        shard.state = STOPPED
        with self._lock:
            # the rollup keeps the latencies of everything the shard served
            self._retired_latency.merge(
                shard.service.metrics.log_histogram("serve.latency_hdr_ms")
            )
            self._shards.pop(name, None)
            self.events.emit(
                FLEET_REBALANCE,
                action="drain_complete",
                shard=name,
                completed=completed,
                replicas=len(self.active_shards()),
            )

    # -- observation ---------------------------------------------------------

    def shard_stats(self) -> list[dict]:
        """One row per replica (and refresh the labeled fleet gauges)."""
        rows = []
        for shard in self.shards():
            m = shard.service.metrics
            pending = shard.service.pending
            row = {
                "shard": shard.name,
                "state": shard.state,
                "pending": pending,
                "accepted": int(m.counter("serve.accepted").value),
                "served": int(m.counter("serve.served").value),
                "rejected": int(m.counter("serve.rejected").value),
                "failed": int(m.counter("serve.failed").value),
                "flushes": int(m.counter("serve.flushes").value),
                "fallbacks": int(m.counter("serve.fallbacks").value),
                "p99_ms": m.log_histogram("serve.latency_hdr_ms").percentile(99.0),
                "breaker": shard.service.breaker.state,
            }
            rows.append(row)
            self.metrics.gauge("fleet.shard_pending").labels(shard=shard.name).set(
                pending
            )
            self.metrics.gauge("fleet.shard_served").labels(shard=shard.name).set(
                row["served"]
            )
        return rows

    def ring_occupancy(self) -> dict[str, float]:
        """Arc-length share of the ring per active shard."""
        with self._lock:
            return self.ring.occupancy()

    def latency_histogram(self) -> LogHistogram:
        """Fleet-wide latency HDR rollup (bucket-wise merge across shards,
        drained ones included)."""
        rollup = LogHistogram("fleet.latency_hdr_ms")
        with self._lock:
            rollup.merge(self._retired_latency)
            for shard in self.shards():
                rollup.merge(
                    shard.service.metrics.log_histogram("serve.latency_hdr_ms")
                )
        return rollup

    def refresh_metrics(self) -> None:
        """Refresh the fleet gauges (for exporters polling ``metrics``)."""
        self.shard_stats()
        self.metrics.gauge("fleet.pending").set(self.pending)
        open_breakers = sum(
            1 for shard in self.shards() if shard.service.breaker.state != "closed"
        )
        self.metrics.gauge("fleet.breakers_open").set(open_breakers)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Force-flush every shard's micro-batcher."""
        for shard in self.shards():
            if shard.state == ACTIVE:
                shard.service.flush()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every shard has served out its admitted requests."""
        for shard in self.shards():
            if not shard.service.wait_idle(timeout=timeout):
                return False
        return True

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the whole fleet; with ``drain`` serve out everything first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = self.shards()
        for shard in shards:
            shard.service.close(drain=drain, timeout=timeout)
            shard.state = STOPPED

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:
        return (
            f"FleetService(replicas={self.num_replicas}, "
            f"pending={self.pending}, closed={self._closed})"
        )

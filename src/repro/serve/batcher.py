"""The dynamic micro-batcher: coalesce compatible requests, flush on policy.

One bucket per (:class:`~repro.serve.request.BatchKey`, priority class).
A bucket flushes when it reaches ``max_batch_size`` ("size" flush — the
throughput-optimal case: a full fused launch) or when its oldest request
has waited ``max_wait_ns`` ("deadline" flush — the latency bound). The
batcher is a pure data structure over an injectable clock, so the flush
policy is deterministic and unit-testable without threads; the service
supplies the threads (a flusher that sleeps until
:meth:`next_deadline_ns`).

QoS (see :mod:`repro.serve.qos`): priority classes never co-batch, and
when several buckets are due at the same instant the batcher releases
them by priority rank first, then by per-tenant stride-scheduled virtual
time — so one chatty tenant cannot starve its peers of flush order even
inside a single priority class.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.serve.qos import (
    DEFAULT_TENANT,
    PRIORITY_RANK,
    PRIORITY_WEIGHTS,
    FairShareLedger,
)
from repro.serve.request import BatchKey, SolveTicket, monotonic_ns

#: Flush reasons.
SIZE = "size"
DEADLINE = "deadline"
DRAIN = "drain"


def _new_flush_id() -> str:
    """A short identity for one flush (ties span links and events together)."""
    return f"flush-{os.urandom(4).hex()}"


@dataclass
class FlushBatch:
    """One batch of co-batchable tickets handed to the worker pool."""

    key: BatchKey
    tickets: list[SolveTicket]
    reason: str
    opened_ns: int
    flushed_ns: int
    flush_id: str = field(default_factory=_new_flush_id)
    priority: str = "normal"

    @property
    def size(self) -> int:
        """Number of requests in the flush."""
        return len(self.tickets)

    def tenants(self) -> dict[str, int]:
        """Ticket count per tenant in this flush (fair-share accounting)."""
        counts: dict[str, int] = {}
        for ticket in self.tickets:
            tenant = getattr(ticket.request, "tenant", DEFAULT_TENANT)
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts


@dataclass
class _Bucket:
    """Accumulating tickets of one compatibility class × priority."""

    opened_ns: int
    tickets: list[SolveTicket] = field(default_factory=list)


def _ticket_priority(ticket: SolveTicket) -> str:
    priority = getattr(ticket.request, "priority", "normal")
    return priority if priority in PRIORITY_RANK else "normal"


class MicroBatcher:
    """Request coalescing with size- and deadline-triggered flushes.

    Thread-safe; every mutating call takes the internal lock. The clock is
    injectable (monotonic integer nanoseconds) for deterministic tests.
    """

    def __init__(
        self,
        max_batch_size: int,
        max_wait_ns: int,
        clock: Callable[[], int] = monotonic_ns,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait_ns < 0:
            raise ValueError(f"max_wait_ns must be non-negative, got {max_wait_ns}")
        self.max_batch_size = max_batch_size
        self.max_wait_ns = max_wait_ns
        self.ledger = FairShareLedger()
        self._clock = clock
        self._buckets: dict[tuple[BatchKey, str], _Bucket] = {}
        self._lock = threading.Lock()

    # -- intake ----------------------------------------------------------------

    def offer(self, ticket: SolveTicket) -> tuple[FlushBatch | None, bool]:
        """Add one ticket; return ``(flush, opened)``.

        ``flush`` is the size-triggered flush when the ticket fills its
        bucket, else ``None``; ``opened`` says the ticket started a new
        bucket, and so gave the batcher a deadline it did not have.
        With ``max_batch_size == 1`` every offer flushes immediately — the
        unbatched baseline the benchmark compares against.
        """
        key = ticket.request.batch_key
        priority = _ticket_priority(ticket)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get((key, priority))
            opened = bucket is None
            if opened:
                bucket = self._buckets[(key, priority)] = _Bucket(opened_ns=now)
            bucket.tickets.append(ticket)
            if len(bucket.tickets) >= self.max_batch_size:
                del self._buckets[(key, priority)]
                flush = FlushBatch(
                    key, bucket.tickets, SIZE, bucket.opened_ns, now, priority=priority
                )
                self._charge(flush)
                return flush, opened
        return None, opened

    # -- deadline handling -------------------------------------------------------

    def due(self, now_ns: int | None = None) -> list[FlushBatch]:
        """Flush every bucket whose oldest request exceeded the wait deadline.

        Returns ``[]`` when nothing is due — a deadline firing against an
        already-flushed (or never-filled) bucket produces no empty flush.
        Simultaneously due flushes come back in QoS release order.
        """
        now = self._clock() if now_ns is None else now_ns
        flushes: list[FlushBatch] = []
        with self._lock:
            expired = [
                bk
                for bk, bucket in self._buckets.items()
                if now - bucket.opened_ns >= self.max_wait_ns
            ]
            for key, priority in expired:
                bucket = self._buckets.pop((key, priority))
                flushes.append(
                    FlushBatch(
                        key, bucket.tickets, DEADLINE, bucket.opened_ns, now,
                        priority=priority,
                    )
                )
        return self._release_order(flushes)

    def next_deadline_ns(self) -> int | None:
        """The earliest instant a bucket becomes due (None when empty)."""
        with self._lock:
            if not self._buckets:
                return None
            oldest = min(bucket.opened_ns for bucket in self._buckets.values())
        return oldest + self.max_wait_ns

    # -- shutdown ------------------------------------------------------------------

    def drain(self) -> list[FlushBatch]:
        """Flush everything regardless of size or age (service shutdown)."""
        now = self._clock()
        with self._lock:
            buckets = list(self._buckets.items())
            self._buckets.clear()
        flushes = [
            FlushBatch(key, bucket.tickets, DRAIN, bucket.opened_ns, now, priority=prio)
            for (key, prio), bucket in buckets
        ]
        return self._release_order(flushes)

    # -- QoS release order ---------------------------------------------------------

    def _release_order(self, flushes: list[FlushBatch]) -> list[FlushBatch]:
        """Order simultaneous flushes: priority rank, fair share, then age.

        A flush's fair-share position is the smallest virtual time among
        its tenants (mixed-tenant flushes ride on their best-served-least
        member); each released flush then charges its tenants' clocks so
        the *next* tie breaks toward whoever has been served least.
        """
        if len(flushes) <= 1:
            for flush in flushes:
                self._charge(flush)
            return flushes
        ordered: list[FlushBatch] = []
        remaining = list(flushes)
        while remaining:
            remaining.sort(
                key=lambda f: (
                    PRIORITY_RANK.get(f.priority, 1),
                    min(self.ledger.virtual_time(t) for t in f.tenants()),
                    f.opened_ns,
                )
            )
            head = remaining.pop(0)
            self._charge(head)
            ordered.append(head)
        return ordered

    def _charge(self, flush: FlushBatch) -> None:
        weight = PRIORITY_WEIGHTS.get(flush.priority, 1.0)
        for tenant, tickets in flush.tenants().items():
            self.ledger.charge(tenant, tickets, weight)

    # -- introspection ---------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Tickets currently waiting in buckets."""
        with self._lock:
            return sum(len(b.tickets) for b in self._buckets.values())

    @property
    def num_buckets(self) -> int:
        """Distinct (compatibility class × priority) buckets accumulating."""
        with self._lock:
            return len(self._buckets)

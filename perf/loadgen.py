"""Outside-in load generation: one sender (the calling thread) plus one collector.

The benchmark only touches the service's public surface: it builds a
``SolveRequest``, calls ``SolverService.submit`` and watches the returned
``SolveTicket``. Completion is stamped by :class:`Collector`, a single
thread that waits on the oldest open ticket for at most
:data:`POLL_S` and then sweeps ``done()`` over the rest, so every
completion is stamped within ``POLL_S`` of the collector getting the
interpreter. The service's own latency histograms are never read.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gauge import cpu_ns
from repro.exceptions import ServeError

#: Longest wait on the oldest open ticket before sweeping the others.
POLL_S = 0.0005
#: Longest wait for a phase's stragglers before they count as failed.
DRAIN_S = 30.0
#: An open loop samples the speed gauge only with this much time to spare
#: before the next request is due (twice a sample's length) ...
PROBE_SLACK_S = 0.01
#: ... and at most this often.
PROBE_EVERY_S = 0.05


def now_ns() -> int:
    return time.perf_counter_ns()


@dataclass
class Record:
    """One request as the client saw it (all times ``perf_counter_ns``).

    ``timed_cpu_ns`` and ``done_cpu_ns`` are the process's CPU time
    (:func:`gauge.cpu_ns`) when the sender started the request (in a
    closed round, submitted it) and at its completion stamp.
    """

    key: Any
    due_ns: int
    start_ns: int = 0
    built_ns: int = 0
    submitted_ns: int = 0
    done_ns: int = 0
    timed_cpu_ns: int = 0
    done_cpu_ns: int = 0
    ticket: Any = None  # dropped once the outcome is collected
    trace_id: str | None = None
    error: str | None = None
    outcome: Any = None

    @property
    def lag_ms(self) -> float:
        """How late the sender started this request."""
        return (self.start_ns - self.due_ns) / 1e6

    @property
    def latency_ms(self) -> float:
        """Due time to completion stamp."""
        return (self.done_ns - self.due_ns) / 1e6

    @property
    def busy_ms(self) -> float:
        """CPU time the process spent while this request was timed."""
        return (self.done_cpu_ns - self.timed_cpu_ns) / 1e6


class Collector:
    """Stamps ticket completions from one background thread."""

    def __init__(self) -> None:
        self._inbox: collections.deque = collections.deque()  # (record, ticket)
        self._wake = threading.Event()
        self._stop = False
        self._idle = threading.Condition()
        self._open = 0
        self._thread = threading.Thread(target=self._run, name="perf-collector", daemon=True)
        self._thread.start()

    def watch(self, record: Record, ticket) -> None:
        with self._idle:
            self._open += 1
        self._inbox.append((record, ticket))
        self._wake.set()

    def wait_all(self, timeout_s: float) -> bool:
        """Block until every watched ticket is stamped (False on timeout)."""
        with self._idle:
            return self._idle.wait_for(lambda: self._open == 0, timeout=timeout_s)

    def close(self) -> None:
        self._stop = True
        self._wake.set()
        self._thread.join(timeout=30.0)

    def _run(self) -> None:
        open_: list = []
        while True:
            while self._inbox:
                open_.append(self._inbox.popleft())
            if not open_:
                if self._stop:
                    return
                self._wake.wait(0.05)
                self._wake.clear()
                continue
            try:
                open_[0][1].exception(timeout=POLL_S)
            except TimeoutError:
                pass
            stamp, cpu = now_ns(), cpu_ns()
            still = []
            for rec, ticket in open_:
                if ticket.done():
                    rec.done_ns, rec.done_cpu_ns = stamp, cpu
                else:
                    still.append((rec, ticket))
            finished = len(open_) - len(still)
            open_ = still
            if finished:
                with self._idle:
                    self._open -= finished
                    self._idle.notify_all()


def build(record: Record, make: Callable[[], Any]) -> Any:
    """Construct one request, stamping the build on ``record``."""
    record.start_ns, record.timed_cpu_ns = now_ns(), cpu_ns()
    request = make()
    record.built_ns = now_ns()
    return request


def submit(service, record: Record, request: Any, collector: Collector) -> None:
    """Submit one built request and hand its ticket to the collector.

    A refusal at admission (saturated, over quota, closed) completes the
    record as failed.
    """
    try:
        ticket = service.submit(request)
    except ServeError as exc:
        record.submitted_ns = record.done_ns = now_ns()
        record.error = type(exc).__name__
        return
    record.submitted_ns = now_ns()
    record.ticket = ticket
    record.trace_id = request.trace_context.trace_id
    collector.watch(record, ticket)


def open_loop(service, offsets_s, makers, collector: Collector, gauge=None) -> list[Record]:
    """Send ``makers[i]()`` at ``start + offsets_s[i]`` regardless of completions.

    Each request is timed from its due time, so a late sender shows up
    as latency, not as a lighter load. With a ``gauge``, the sender
    samples it in the gaps where the service is idle and the next request
    is due at least :data:`PROBE_SLACK_S` later, at most every
    :data:`PROBE_EVERY_S`.
    """
    start = now_ns() + 1_000_000
    records = []
    last_probe = 0
    for i, (offset, make) in enumerate(zip(offsets_s, makers)):
        rec = Record(key=i, due_ns=start + int(offset * 1e9))
        if gauge is not None and now_ns() - last_probe > PROBE_EVERY_S * 1e9:
            if _probe_in_slack(gauge, collector, rec.due_ns):
                last_probe = now_ns()
        delay = (rec.due_ns - now_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        submit(service, rec, build(rec, make), collector)
        records.append(rec)
    finish(records, collector)
    return records


def _probe_in_slack(gauge, collector: Collector, due_ns: int) -> bool:
    """Sample ``gauge`` if the service goes idle with time to spare before ``due_ns``."""
    wait_s = (due_ns - now_ns()) / 1e9 - PROBE_SLACK_S
    if wait_s <= 0 or not collector.wait_all(wait_s):
        return False
    if (due_ns - now_ns()) / 1e9 < PROBE_SLACK_S:
        return False
    gauge.probe()
    return True


def closed_round(service, makers, collector: Collector) -> list[Record]:
    """Build every request of one round, send them as one burst, wait for all.

    Each request is timed from its own submit call; the builds before the
    burst count toward the round's wall time only.
    """
    records = [Record(key=i, due_ns=0) for i in range(len(makers))]
    requests = [build(rec, make) for rec, make in zip(records, makers)]
    for rec, request in zip(records, requests):
        rec.due_ns, rec.timed_cpu_ns = now_ns(), cpu_ns()
        submit(service, rec, request, collector)
    finish(records, collector)
    return records


def finish(records: list[Record], collector: Collector) -> None:
    """Wait for every record's completion, then collect outcomes and errors.

    The ticket (and with it the request and its matrix) is released, so
    kept records do not count toward the program's memory.
    """
    collector.wait_all(DRAIN_S)
    for rec in records:
        ticket, rec.ticket = rec.ticket, None
        if ticket is None:
            continue
        if not ticket.done():
            rec.error = "unfinished"
            continue
        exc = ticket.exception(timeout=0)
        if exc is not None:
            rec.error = type(exc).__name__
        else:
            rec.outcome = ticket.result(timeout=0)


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")

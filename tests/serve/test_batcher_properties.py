"""Property tests: MicroBatcher conservation under arbitrary interleavings.

The invariant the whole serving layer leans on: across *any* sequence of
offers, clock advances, deadline sweeps, and a final drain, every ticket
offered comes back in exactly one flush — never lost, never duplicated —
and every flush respects the size bound and the bucket compatibility
rule (one (batch key, priority) per flush).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MicroBatcher, SolveRequest, SolveTicket

TOLERANCES = (1e-6, 1e-8)
PRIORITIES = ("high", "normal", "low")
TENANTS = ("a", "b", "c")


def _request(tolerance, priority, tenant):
    n = 4
    matrix = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    return SolveRequest(
        matrix,
        np.ones(n),
        solver="cg",
        preconditioner="jacobi",
        tolerance=tolerance,
        priority=priority,
        tenant=tenant,
    )


# one step of the interleaving: an offer (which request flavor) or a
# clock advance followed by a deadline sweep
_offer_step = st.tuples(
    st.just("offer"),
    st.sampled_from(TOLERANCES),
    st.sampled_from(PRIORITIES),
    st.sampled_from(TENANTS),
)
_advance_step = st.tuples(
    st.just("advance"), st.integers(min_value=0, max_value=12), st.just(0), st.just(0)
)
_steps = st.lists(st.one_of(_offer_step, _advance_step), max_size=60)


class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@settings(max_examples=60, deadline=None)
@given(
    steps=_steps,
    max_batch_size=st.integers(min_value=1, max_value=5),
    max_wait_ms=st.integers(min_value=0, max_value=8),
)
def test_no_ticket_lost_or_double_flushed(steps, max_batch_size, max_wait_ms):
    clock = _Clock()
    batcher = MicroBatcher(
        max_batch_size=max_batch_size,
        max_wait_ns=int(max_wait_ms * 1e6),
        clock=clock,
    )
    offered = []
    flushes = []
    for kind, arg, priority, tenant in steps:
        if kind == "offer":
            ticket = SolveTicket(_request(arg, priority, tenant), submitted_ns=clock.now)
            offered.append(ticket)
            flush, _opened = batcher.offer(ticket)
            if flush is not None:
                flushes.append(flush)
        else:
            clock.now += int(arg * 1e6)
            flushes.extend(batcher.due())
    flushes.extend(batcher.drain())
    assert batcher.pending == 0
    assert batcher.num_buckets == 0

    released = [t for f in flushes for t in f.tickets]
    # conservation: exactly the offered tickets, each exactly once
    assert len(released) == len(offered)
    assert {id(t) for t in released} == {id(t) for t in offered}

    for flush in flushes:
        assert 1 <= flush.size <= max_batch_size
        # a flush never mixes compatibility classes or priorities
        assert {t.request.batch_key for t in flush.tickets} == {flush.key}
        priorities = {t.request.priority for t in flush.tickets}
        assert priorities == {flush.priority}


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_due_only_releases_expired_buckets(steps):
    """A deadline sweep never flushes a bucket younger than max_wait."""
    clock = _Clock()
    wait_ns = int(5e6)
    batcher = MicroBatcher(max_batch_size=100, max_wait_ns=wait_ns, clock=clock)
    for kind, arg, priority, tenant in steps:
        if kind == "offer":
            batcher.offer(
                SolveTicket(_request(arg, priority, tenant), submitted_ns=clock.now)
            )
        else:
            clock.now += int(arg * 1e6)
        for flush in batcher.due():
            assert clock.now - flush.opened_ns >= wait_ns


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_fair_share_never_breaks_priority_rank(steps):
    """Within one due() sweep, releases are sorted by priority rank."""
    rank = {"high": 0, "normal": 1, "low": 2}
    clock = _Clock()
    batcher = MicroBatcher(max_batch_size=100, max_wait_ns=int(2e6), clock=clock)
    for kind, arg, priority, tenant in steps:
        if kind == "offer":
            batcher.offer(
                SolveTicket(_request(arg, priority, tenant), submitted_ns=clock.now)
            )
        else:
            clock.now += int(arg * 1e6)
        ranks = [rank[f.priority] for f in batcher.due()]
        assert ranks == sorted(ranks)

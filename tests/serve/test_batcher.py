"""The micro-batcher's flush policy, on a fake clock (no threads)."""

import numpy as np
import pytest

from repro.serve import SIZE, DEADLINE, DRAIN, MicroBatcher, SolveRequest, SolveTicket


class FakeClock:
    """Injectable monotonic nanosecond clock."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += int(ms * 1e6)


def _request(n=4, tolerance=1e-8, solver="cg", pattern_shift=0):
    import scipy.sparse as sp

    diags = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1 - pattern_shift, 0, 1 + pattern_shift],
        shape=(n, n),
        format="csr",
    )
    return SolveRequest(
        diags, np.ones(n), solver=solver, preconditioner="jacobi", tolerance=tolerance
    )


def _ticket(clock, **kwargs):
    return SolveTicket(_request(**kwargs), submitted_ns=clock())


class TestSizeFlush:
    def test_bucket_flushes_at_max_batch_size(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=3, max_wait_ns=10**9, clock=clock)
        tickets = [_ticket(clock) for _ in range(3)]
        assert batcher.offer(tickets[0]) == (None, True)  # opens the bucket
        assert batcher.offer(tickets[1]) == (None, False)  # joins it
        flush, opened = batcher.offer(tickets[2])
        assert flush is not None and not opened
        assert flush.reason == SIZE
        assert flush.tickets == tickets
        assert batcher.pending == 0
        assert batcher.num_buckets == 0

    def test_max_batch_size_one_flushes_every_offer(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=1, max_wait_ns=10**9, clock=clock)
        for _ in range(4):
            flush, opened = batcher.offer(_ticket(clock))
            assert flush is not None and flush.size == 1 and flush.reason == SIZE
            assert opened

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0, max_wait_ns=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=1, max_wait_ns=-1)


class TestDeadlineFlush:
    def test_due_respects_max_wait(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        batcher.offer(_ticket(clock))
        batcher.offer(_ticket(clock))
        clock.advance_ms(4.9)
        assert batcher.due() == []
        clock.advance_ms(0.2)
        flushes = batcher.due()
        assert len(flushes) == 1
        assert flushes[0].reason == DEADLINE
        assert flushes[0].size == 2
        assert batcher.pending == 0

    def test_single_request_batch_on_deadline(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=64, max_wait_ns=int(1e6), clock=clock)
        batcher.offer(_ticket(clock))
        clock.advance_ms(1.0)
        flushes = batcher.due()
        assert len(flushes) == 1 and flushes[0].size == 1

    def test_no_empty_flush_after_size_flush(self):
        # A deadline firing against an already-flushed bucket must produce
        # no empty flush.
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=2, max_wait_ns=int(1e6), clock=clock)
        batcher.offer(_ticket(clock))
        assert batcher.offer(_ticket(clock))[0] is not None  # size flush
        clock.advance_ms(10.0)
        assert batcher.due() == []

    def test_next_deadline_tracks_oldest_bucket(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(2e6), clock=clock)
        assert batcher.next_deadline_ns() is None
        batcher.offer(_ticket(clock))
        assert batcher.next_deadline_ns() == int(2e6)
        clock.advance_ms(1.0)
        batcher.offer(_ticket(clock, tolerance=1e-4))  # second, younger bucket
        assert batcher.next_deadline_ns() == int(2e6)  # still the oldest


class TestCompatibility:
    def test_incompatible_configs_never_coalesce(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=10**9, clock=clock)
        variants = [
            _ticket(clock),
            _ticket(clock, tolerance=1e-4),       # different tolerance
            _ticket(clock, solver="bicgstab"),    # different solver
            _ticket(clock, pattern_shift=1),      # different sparsity pattern
            _ticket(clock, n=8),                  # different size
        ]
        for ticket in variants:
            assert batcher.offer(ticket) == (None, True)
        assert batcher.num_buckets == len(variants)
        flushes = batcher.drain()
        assert len(flushes) == len(variants)
        for flush in flushes:
            assert flush.size == 1
            assert all(t.request.batch_key == flush.key for t in flush.tickets)

    def test_compatible_requests_share_bucket(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=10**9, clock=clock)
        batcher.offer(_ticket(clock))
        batcher.offer(_ticket(clock))
        assert batcher.num_buckets == 1
        assert batcher.pending == 2


class TestDrain:
    def test_drain_flushes_everything(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=10**9, clock=clock)
        batcher.offer(_ticket(clock))
        batcher.offer(_ticket(clock, tolerance=1e-4))
        flushes = batcher.drain()
        assert {f.reason for f in flushes} == {DRAIN}
        assert sum(f.size for f in flushes) == 2
        assert batcher.pending == 0
        assert batcher.drain() == []

"""Multi-tenant QoS: quotas, priority classes, and fair-share ordering."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import QuotaExceededError
from repro.serve import (
    MicroBatcher,
    ServeConfig,
    SolveRequest,
    SolverService,
    SolveTicket,
)
from repro.serve.qos import DEFAULT_TENANT, PRIORITY_WEIGHTS, FairShareLedger
from repro.telemetry.events import QUOTA_REJECTED


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance_ms(self, ms):
        self.now += int(ms * 1e6)


def _request(n=4, tolerance=1e-8, tenant=DEFAULT_TENANT, priority="normal"):
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
        tenant=tenant,
        priority=priority,
    )


def _ticket(clock, **kwargs):
    return SolveTicket(_request(**kwargs), submitted_ns=clock())


class TestFairShareLedger:
    def test_unknown_tenant_joins_at_the_floor(self):
        ledger = FairShareLedger()
        assert ledger.virtual_time("anyone") == 0.0
        ledger.charge("a", 10)
        ledger.charge("b", 4)  # b itself joined at the floor: 10 + 4
        assert ledger.virtual_time("b") == 14.0
        # a newcomer starts at the running minimum (10), not 0 — no
        # history is not an advantage over long-served tenants
        assert ledger.virtual_time("fresh") == 10.0

    def test_charge_is_weighted(self):
        # same service, 4x the weight -> a quarter of the virtual-time cost
        assert FairShareLedger().charge(
            "t", 8, weight=PRIORITY_WEIGHTS["high"]
        ) == 2.0
        assert FairShareLedger().charge(
            "t", 8, weight=PRIORITY_WEIGHTS["low"]
        ) == 8.0

    def test_charge_accumulates(self):
        ledger = FairShareLedger()
        ledger.charge("t", 2)
        assert ledger.charge("t", 3) == 5.0
        assert ledger.snapshot() == {"t": 5.0}

    def test_validation(self):
        ledger = FairShareLedger()
        with pytest.raises(ValueError, match="tickets"):
            ledger.charge("t", -1)
        with pytest.raises(ValueError, match="weight"):
            ledger.charge("t", 1, weight=0.0)


class TestPriorityClasses:
    def test_priorities_never_co_batch(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        batcher.offer(_ticket(clock, priority="high"))
        batcher.offer(_ticket(clock, priority="low"))
        # same compatibility key, two buckets: the high request must not
        # wait for low traffic to fill its batch
        assert batcher.num_buckets == 2

    def test_unknown_priority_coerces_to_normal(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        batcher.offer(_ticket(clock, priority="normal"))
        with pytest.raises(ValueError):
            _request(priority="urgent")

    def test_due_releases_by_priority_rank(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        # arrival order low, normal, high — release order must invert it
        batcher.offer(_ticket(clock, priority="low"))
        batcher.offer(_ticket(clock, priority="normal"))
        batcher.offer(_ticket(clock, priority="high"))
        clock.advance_ms(6.0)
        flushes = batcher.due()
        assert [f.priority for f in flushes] == ["high", "normal", "low"]


class TestFairShareOrdering:
    def test_heavily_served_tenant_yields_within_a_class(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        # both tenants have history; "chatty" has consumed far more
        batcher.ledger.charge("quiet", 2)
        batcher.ledger.charge("chatty", 100)
        # distinct compatibility keys (tolerance) -> distinct buckets, one
        # per tenant, same priority class, due at the same instant
        batcher.offer(_ticket(clock, tenant="chatty", tolerance=1e-8))
        batcher.offer(_ticket(clock, tenant="quiet", tolerance=1e-6))
        clock.advance_ms(6.0)
        flushes = batcher.due()
        assert [f.tenants() for f in flushes] == [{"quiet": 1}, {"chatty": 1}]

    def test_release_charges_so_ties_rotate(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=2, max_wait_ns=int(5e6), clock=clock)
        for _ in range(2):
            batcher.offer(_ticket(clock, tenant="a", tolerance=1e-8))
        assert batcher.ledger.snapshot() == {"a": 1.0}  # 2 tickets / weight 2
        for _ in range(2):
            batcher.offer(_ticket(clock, tenant="b", tolerance=1e-8))
        # b joined at the floor (0.0, charged before a existed? no — at
        # charge time the floor was a's 1.0 minus nothing below it): both
        # tenants are on the ledger with positive virtual time
        snapshot = batcher.ledger.snapshot()
        assert set(snapshot) == {"a", "b"}
        assert all(v > 0 for v in snapshot.values())

    def test_mixed_tenant_flush_rides_its_least_served_member(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_wait_ns=int(5e6), clock=clock)
        batcher.ledger.charge("heavy", 50)
        batcher.ledger.charge("light", 1)
        batcher.ledger.charge("solo", 10)
        # bucket 1 mixes heavy+light; bucket 2 is solo-only. min(50,1) < 10
        # so the mixed bucket releases first despite its heavy member.
        batcher.offer(_ticket(clock, tenant="heavy", tolerance=1e-8))
        batcher.offer(_ticket(clock, tenant="light", tolerance=1e-8))
        batcher.offer(_ticket(clock, tenant="solo", tolerance=1e-6))
        clock.advance_ms(6.0)
        flushes = batcher.due()
        assert flushes[0].tenants() == {"heavy": 1, "light": 1}
        assert flushes[1].tenants() == {"solo": 1}


def _parked_config(**overrides):
    defaults = dict(max_batch_size=4, max_wait_ms=60_000.0, num_workers=1)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestTenantQuotas:
    def test_over_quota_tenant_rejected_with_429(self):
        config = _parked_config(tenant_default_quota=2)
        with SolverService(config) as service:
            service.submit(_request(tenant="greedy"))
            service.submit(_request(tenant="greedy"))
            with pytest.raises(QuotaExceededError) as excinfo:
                service.submit(_request(tenant="greedy"))
            assert excinfo.value.status_code == 429
            assert excinfo.value.error_code == "quota_exceeded"
            assert excinfo.value.tenant == "greedy"
            # the rejection is observable
            counter = service.metrics.counter("serve.quota_rejected")
            assert int(counter.labels(tenant="greedy").value) == 1
            events = [
                e for e in service.events.records() if e["type"] == QUOTA_REJECTED
            ]
            assert len(events) == 1
            assert events[0]["fields"]["tenant"] == "greedy"
            assert events[0]["fields"]["quota"] == 2
            service.close(drain=False)

    def test_other_tenants_unaffected_by_a_full_one(self):
        config = _parked_config(tenant_default_quota=2)
        with SolverService(config) as service:
            service.submit(_request(tenant="greedy"))
            service.submit(_request(tenant="greedy"))
            with pytest.raises(QuotaExceededError):
                service.submit(_request(tenant="greedy"))
            # a different tenant still gets in
            ticket = service.submit(_request(tenant="polite"))
            assert ticket is not None
            service.close(drain=False)

    def test_quota_frees_as_requests_complete(self):
        config = _parked_config(max_batch_size=1, tenant_default_quota=2)
        with SolverService(config) as service:
            first = [service.submit(_request(tenant="t")) for _ in range(2)]
            assert all(t.exception(timeout=30.0) is None for t in first)
            # both completed: the pending count is back under quota
            again = service.submit(_request(tenant="t"))
            assert again.exception(timeout=30.0) is None

    def test_per_tenant_override_beats_the_default(self):
        config = _parked_config(
            max_batch_size=8, tenant_default_quota=1, tenant_quotas=(("vip", 3),)
        )
        assert config.quota_for("vip") == 3
        assert config.quota_for("anyone") == 1
        with SolverService(config) as service:
            for _ in range(3):
                service.submit(_request(tenant="vip"))
            with pytest.raises(QuotaExceededError):
                service.submit(_request(tenant="vip"))
            service.submit(_request(tenant="basic"))
            with pytest.raises(QuotaExceededError):
                service.submit(_request(tenant="basic"))
            service.close(drain=False)

    def test_no_quota_by_default(self):
        config = _parked_config()
        assert config.quota_for("anyone") is None
        with SolverService(config) as service:
            for _ in range(20):
                service.submit(_request(tenant="t"))
            service.close(drain=False)

    def test_quota_validation(self):
        with pytest.raises(ValueError, match="tenant_default_quota"):
            ServeConfig(tenant_default_quota=0)
        with pytest.raises(ValueError, match="tenant_quotas"):
            ServeConfig(tenant_quotas=(("t", 0),))

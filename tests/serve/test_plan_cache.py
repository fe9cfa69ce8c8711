"""Plan-cache hit/miss/eviction accounting and plan reuse."""

import pytest

from repro.core.solver.cg import BatchCg
from repro.observability.metrics import MetricsRegistry
from repro.serve import BatchKey, PlanCache


def _key(**overrides) -> BatchKey:
    fields = dict(
        matrix_format="csr",
        num_rows=16,
        pattern_token="abcd",
        solver="cg",
        preconditioner="jacobi",
        criterion="relative",
        precision="double",
        tolerance=1e-8,
        max_iterations=100,
    )
    fields.update(overrides)
    return BatchKey(**fields)


class TestAccounting:
    def test_first_lookup_misses_then_hits(self):
        cache = PlanCache()
        plan, hit = cache.plan_for(_key())
        assert not hit and cache.misses == 1 and cache.hits == 0
        plan2, hit2 = cache.plan_for(_key())
        assert hit2 and cache.hits == 1
        assert plan2 is plan
        assert cache.hit_rate == 0.5

    def test_distinct_dispatch_tuples_miss_separately(self):
        cache = PlanCache()
        cache.plan_for(_key())
        cache.plan_for(_key(tolerance=1e-4))
        cache.plan_for(_key(solver="bicgstab"))
        assert cache.misses == 3 and cache.hits == 0
        # the row count is not part of the dispatch tuple
        _plan, hit = cache.plan_for(_key(num_rows=32))
        assert hit
        assert len(cache) == 3

    def test_pattern_token_not_part_of_plan_key(self):
        # Two compatibility classes that differ only in sparsity pattern
        # share a plan: the dispatch doesn't see the pattern.
        cache = PlanCache()
        cache.plan_for(_key(pattern_token="aaaa"))
        _plan, hit = cache.plan_for(_key(pattern_token="bbbb"))
        assert hit

    def test_metrics_land_in_shared_registry(self):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics)
        cache.plan_for(_key())
        cache.plan_for(_key())
        assert metrics.counter("serve.plan_cache.misses").value == 1
        assert metrics.counter("serve.plan_cache.hits").value == 1

    def test_hit_rate_zero_before_lookups(self):
        assert PlanCache().hit_rate == 0.0


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics, capacity=2)
        cache.plan_for(_key(tolerance=1e-4))
        cache.plan_for(_key(tolerance=1e-6))
        cache.plan_for(_key(tolerance=1e-8))  # evicts the 1e-4 plan
        assert len(cache) == 2
        assert metrics.counter("serve.plan_cache.evictions").value == 1
        _plan, hit = cache.plan_for(_key(tolerance=1e-4))
        assert not hit  # evicted → re-resolved

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestPlanContents:
    def test_resolution_matches_factory_dispatch(self):
        cache = PlanCache()
        plan, _hit = cache.plan_for(_key())
        assert plan.resolved.solver_cls is BatchCg

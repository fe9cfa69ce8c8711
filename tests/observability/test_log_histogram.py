"""LogHistogram, labelled instruments, and the Prometheus exposition."""

from __future__ import annotations

import math
import random

import pytest

from repro.observability import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    render_prometheus,
)


class TestLogHistogram:
    def test_exact_moments_approximate_quantiles(self):
        h = LogHistogram("t")
        samples = [1.0, 2.0, 3.0, 10.0, 100.0]
        h.observe_many(samples)
        # count/sum/min/max are tracked exactly, outside the buckets
        assert h.count == 5
        assert h.total == pytest.approx(sum(samples))
        assert h.min == 1.0
        assert h.max == 100.0
        assert h.mean == pytest.approx(sum(samples) / 5)

    def test_observe_many_equals_repeated_observe(self):
        """One locked fold of a batch lands exactly as one observe per value."""
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(300)]
        values += [0.0, -1.0, 5.0, 5.0, 1e-9, 1e9]
        ids = [None if i % 3 == 0 else f"trace-{i}" for i in range(len(values))]
        one, many = LogHistogram("one"), LogHistogram("many")
        for value, trace_id in zip(values, ids):
            one.observe(value, trace_id=trace_id)
        many.observe_many(values[:100], ids[:100])
        many.observe_many(values[100:], ids[100:])
        assert many.bucket_bounds() == one.bucket_bounds()
        assert many.count == one.count == len(values)
        assert many.total == one.total  # same order, so bit-equal
        assert (many.min, many.max) == (one.min, one.max)
        assert many.exemplars() == one.exemplars()
        assert many.exemplar_for(99.0) == one.exemplar_for(99.0)

    def test_observe_many_needs_one_trace_id_per_value(self):
        h = LogHistogram("t")
        with pytest.raises(ValueError):
            h.observe_many([1.0, 2.0], ["only-one"])
        assert h.count == 0

    def test_percentile_relative_error_bound(self):
        """Every quantile is within one growth step of the exact value."""
        rng = random.Random(42)
        samples = [rng.lognormvariate(1.0, 1.5) for _ in range(10_000)]
        h = LogHistogram("lat")
        h.observe_many(samples)
        ordered = sorted(samples)
        for p in (50.0, 90.0, 99.0):
            exact = ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
            estimate = h.percentile(p)
            rel = abs(estimate - exact) / exact
            assert rel < h.growth - 1.0, f"p{p}: {estimate} vs {exact}"

    def test_percentile_clamped_to_observed_range(self):
        h = LogHistogram("t")
        h.observe(5.0)
        assert h.percentile(0.0) == 5.0
        assert h.percentile(100.0) <= h.max
        assert h.percentile(50.0) >= h.min

    def test_empty_and_invalid(self):
        h = LogHistogram("t")
        assert math.isnan(h.percentile(50.0))
        with pytest.raises(ValueError):
            h.percentile(101.0)
        with pytest.raises(ValueError):
            LogHistogram("bad", growth=1.0)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = LogHistogram("t")
        h.observe_many([0.0, -1.0, 4.0])
        assert h.count == 3
        bounds = h.bucket_bounds()
        assert bounds[0] == (0.0, 2)  # two non-positive samples

    def test_merge_matches_single_stream(self):
        rng = random.Random(7)
        a_samples = [rng.uniform(0.1, 50.0) for _ in range(500)]
        b_samples = [rng.uniform(0.1, 50.0) for _ in range(500)]
        a = LogHistogram("a")
        b = LogHistogram("b")
        whole = LogHistogram("whole")
        a.observe_many(a_samples)
        b.observe_many(b_samples)
        whole.observe_many(a_samples + b_samples)
        a.merge(b)
        assert a.count == whole.count
        assert a.total == pytest.approx(whole.total)
        assert a.min == whole.min and a.max == whole.max
        for p in (50.0, 90.0, 99.0):
            assert a.percentile(p) == pytest.approx(whole.percentile(p))

    def test_merge_growth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram("a").merge(LogHistogram("b", growth=2.0))

    def test_bucket_bounds_cumulative(self):
        h = LogHistogram("t", growth=2.0)
        h.observe_many([1.5, 3.0, 3.5, 100.0])
        bounds = h.bucket_bounds()
        # cumulative counts are monotone and end at the full count
        counts = [c for _, c in bounds]
        assert counts == sorted(counts)
        assert counts[-1] == h.count
        uppers = [u for u, _ in bounds]
        assert uppers == sorted(uppers)


class TestLabels:
    def test_counter_labels_children(self):
        registry = MetricsRegistry()
        flushes = registry.counter("serve.flushes")
        flushes.labels(backend="sycl").inc()
        flushes.labels(backend="sycl").inc()
        flushes.labels(backend="cuda").inc()
        sycl = flushes.labels(backend="sycl")
        assert sycl.value == 2
        assert sycl.name == 'serve.flushes{backend="sycl"}'
        # children are stable objects, keyed by sorted label set
        assert flushes.labels(backend="sycl") is sycl
        names = [m.name for m in registry.instruments()]
        assert "serve.flushes" in names
        assert 'serve.flushes{backend="cuda"}' in names

    def test_label_key_order_canonical(self):
        counter = Counter("c")
        a = counter.labels(x="1", y="2")
        b = counter.labels(y="2", x="1")
        assert a is b

    def test_labels_require_at_least_one(self):
        with pytest.raises(ValueError):
            Gauge("g").labels()


class TestPrometheusRender:
    def test_all_four_families(self):
        registry = MetricsRegistry()
        registry.counter("solve.count").inc(3)
        registry.gauge("queue.depth").set(7.0)
        registry.histogram("exact_ms").observe_many([1.0, 2.0, 3.0])
        registry.log_histogram("hdr_ms").observe_many([1.0, 2.0, 4.0])
        text = render_prometheus(registry)
        assert "# TYPE solve_count counter" in text
        assert "solve_count 3.0" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7.0" in text
        assert "# TYPE exact_ms summary" in text
        assert 'exact_ms{quantile="0.5"}' in text
        assert "exact_ms_sum 6.0" in text
        assert "exact_ms_count 3.0" in text
        assert "# TYPE hdr_ms histogram" in text
        assert 'hdr_ms_bucket{le="+Inf"} 3.0' in text
        assert "hdr_ms_count 3.0" in text

    def test_labelled_children_render_as_family_samples(self):
        registry = MetricsRegistry()
        flushes = registry.counter("serve.flushes")
        flushes.labels(backend="sycl", solver="cg").inc(5)
        text = render_prometheus(registry)
        assert '# TYPE serve_flushes counter' in text
        assert 'serve_flushes{backend="sycl",solver="cg"} 5.0' in text
        # only one TYPE header per family
        assert text.count("# TYPE serve_flushes counter") == 1

    def test_nan_gauge_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("unset")
        text = render_prometheus(registry)
        assert "# TYPE unset gauge" in text
        assert "\nunset " not in text

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("serve.latency-ms.p99").inc()
        text = render_prometheus(registry)
        assert "serve_latency_ms_p99 1.0" in text

    def test_log_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        h = registry.log_histogram("lat")
        h.observe_many([1.0, 2.0, 4.0, 8.0])
        text = render_prometheus(registry)
        bucket_lines = [
            line for line in text.splitlines() if line.startswith("lat_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4.0

"""The shared arrival-process generators and request synthesis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.workloads.arrivals import (
    bursty_offsets,
    keyed_requests,
    make_request,
    pace,
    poisson_offsets,
    stencil_pattern,
    uniform_offsets,
)


class TestUniform:
    def test_constant_spacing(self):
        offsets = uniform_offsets(100.0, 5)
        assert np.allclose(offsets, [0.0, 0.01, 0.02, 0.03, 0.04])

    def test_empty(self):
        assert uniform_offsets(10.0, 0).size == 0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            uniform_offsets(0.0, 4)
        with pytest.raises(ValueError, match="num_requests"):
            uniform_offsets(10.0, -1)


class TestPoisson:
    def test_seeded_reproducible(self):
        a = poisson_offsets(200.0, 64, np.random.default_rng(9))
        b = poisson_offsets(200.0, 64, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_starts_at_zero_and_is_monotonic(self):
        offsets = poisson_offsets(200.0, 64, np.random.default_rng(9))
        assert offsets[0] == 0.0
        assert np.all(np.diff(offsets) >= 0.0)

    def test_long_run_rate(self):
        n = 4000
        offsets = poisson_offsets(500.0, n, np.random.default_rng(1))
        realized = (n - 1) / offsets[-1]
        assert realized == pytest.approx(500.0, rel=0.15)

    def test_empty(self):
        assert poisson_offsets(10.0, 0, np.random.default_rng(0)).size == 0


class TestBursty:
    def test_seeded_reproducible(self):
        a = bursty_offsets(200.0, 128, np.random.default_rng(3))
        b = bursty_offsets(200.0, 128, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_long_run_rate_holds(self):
        n = 8000
        offsets = bursty_offsets(500.0, n, np.random.default_rng(2))
        realized = (n - 1) / offsets[-1]
        assert realized == pytest.approx(500.0, rel=0.25)

    def test_burstier_than_poisson(self):
        # the modulated process must show heavier interarrival dispersion
        # (CoV > 1) than the plain Poisson process (CoV ~ 1)
        rng = np.random.default_rng(4)
        gaps = np.diff(bursty_offsets(200.0, 8000, rng, burst_factor=16.0))
        cov = gaps.std() / gaps.mean()
        assert cov > 1.1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="burst_factor"):
            bursty_offsets(10.0, 4, rng, burst_factor=1.0)
        with pytest.raises(ValueError, match="burst_fraction"):
            bursty_offsets(10.0, 4, rng, burst_fraction=1.5)
        with pytest.raises(ValueError, match="mean_phase_requests"):
            bursty_offsets(10.0, 4, rng, mean_phase_requests=0)


class TestPace:
    def test_fires_in_order_with_fake_clock(self):
        now = [0.0]
        slept = []

        def clock():
            return now[0]

        def sleep(seconds):
            slept.append(seconds)
            now[0] += seconds

        fired = []
        results = pace(
            [0.0, 0.5, 1.0], lambda i: fired.append(i) or i * 10,
            clock=clock, sleep=sleep,
        )
        assert fired == [0, 1, 2]
        assert results == [0, 10, 20]
        assert slept == pytest.approx([0.5, 0.5])

    def test_late_submissions_fire_immediately(self):
        # a slow submit pushes the clock past later offsets: open-loop
        # pacing fires them immediately instead of sleeping
        now = [0.0]

        def slow_submit(i):
            now[0] += 10.0
            return i

        sleeps = []
        results = pace(
            [0.0, 0.001, 0.002], slow_submit,
            clock=lambda: now[0], sleep=sleeps.append,
        )
        assert results == [0, 1, 2]
        assert sleeps == []


class TestRequestSynthesis:
    def test_make_request_defaults(self):
        pattern = stencil_pattern(8)
        request = make_request(pattern, np.random.default_rng(0), 8)
        assert request.solver == "bicgstab"
        assert request.preconditioner == "jacobi"
        assert request.num_rows == 8

    def test_cg_requests_converge_without_the_fallback(self):
        # the D A D perturbation keeps the SPD stencil symmetric, so CG
        # converges on every request itself instead of leaning on LU
        from repro.serve import ServeConfig, SolverService

        pattern = stencil_pattern(16)
        rng = np.random.default_rng(3)
        requests = [
            make_request(pattern, rng, 16, solver="cg", tolerance=1e-8) for _ in range(8)
        ]
        for r in requests:
            a = sp.csr_matrix((r.values, r.col_idxs, r.row_ptrs), shape=(16, 16))
            assert abs(a - a.T).max() == 0.0
        config = ServeConfig(max_batch_size=8, max_wait_ms=1000.0, num_workers=1)
        with SolverService(config) as service:
            tickets = [service.submit(r) for r in requests]
            outcomes = [t.result(timeout=60.0) for t in tickets]
        assert all(o.converged and not o.used_fallback for o in outcomes)

    def test_keyed_requests_key_diversity(self):
        pattern = stencil_pattern(8)
        requests = keyed_requests(
            pattern, np.random.default_rng(0), 8, 24, 6, solver="cg"
        )
        keys = {repr(r.batch_key) for r in requests}
        assert len(keys) == 6
        assert all(r.solver == "cg" for r in requests)

    def test_grouped_layout_keeps_keys_adjacent(self):
        pattern = stencil_pattern(8)
        requests = keyed_requests(
            pattern, np.random.default_rng(0), 8, 16, 4, layout="grouped"
        )
        tokens = [repr(r.batch_key) for r in requests]
        # one contiguous run per key: a key never reappears after changing
        seen, previous = set(), None
        for token in tokens:
            if token != previous:
                assert token not in seen
                seen.add(token)
            previous = token
        assert len(seen) == 4

    def test_interleaved_layout_round_robins(self):
        pattern = stencil_pattern(8)
        requests = keyed_requests(
            pattern, np.random.default_rng(0), 8, 8, 4, layout="interleaved"
        )
        tokens = [repr(r.batch_key) for r in requests]
        assert tokens[:4] == tokens[4:]

    def test_validation(self):
        pattern = stencil_pattern(8)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="num_keys"):
            keyed_requests(pattern, rng, 8, 4, 0)
        with pytest.raises(ValueError, match="layout"):
            keyed_requests(pattern, rng, 8, 4, 2, layout="shuffled")

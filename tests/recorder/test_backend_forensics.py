"""Forensic solve records through the live serving stack, per backend.

The classification edge cases are unit-tested in test_classify; here the
same vocabulary is asserted end to end — submit through SolverService
under an ambient recorder and check what the black box recorded — across
the faithful (sycl), wide-lockstep, and cudasim backends, and on the
fused-kernel path, whose records come from the device residual history.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.instruments import use
from repro.recorder.classify import CONVERGED, CURVE_POINTS, DIVERGENCE, SEVERITY
from repro.recorder.recorder import FlightRecorder
from repro.serve import ServeConfig, SolveRequest, SolverService

#: faithful / cudasim / wide, in the serve config's spelling.
BACKENDS = ("sycl", "cuda", "wide")


def _tridiag(n, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _poisoned(n):
    """Nonsymmetric on the tridiagonal pattern; CG cannot converge on it."""
    matrix = _tridiag(n)
    data = matrix.data.copy()
    off = data < 0
    data[off] = np.where(np.arange(off.sum()) % 2 == 0, 100.0, -99.0)
    matrix.data = data
    return matrix


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolveRecordsPerBackend:
    def _run(self, backend, requests):
        recorder = FlightRecorder(shard=f"test-{backend}")
        config = ServeConfig(
            max_batch_size=len(requests), max_wait_ms=1000.0, num_workers=1,
            backend=backend,
        )
        with use(recorder=recorder):
            with SolverService(config) as service:
                tickets = [service.submit(r) for r in requests]
                service.flush()
                outcomes = [t.result(timeout=30.0) for t in tickets]
        return recorder, outcomes

    def test_converged_batch_recorded_as_converged(self, backend):
        requests = [
            SolveRequest(
                _tridiag(12), np.ones(12), solver="cg",
                preconditioner="jacobi", tolerance=1e-10,
            )
            for _ in range(4)
        ]
        recorder, outcomes = self._run(backend, requests)
        assert all(o.converged for o in outcomes)
        flushes = recorder.snapshot()["flushes"]
        assert len(flushes) == 1
        record = flushes[0]
        assert record["backend"] == backend
        assert record["class_counts"] == {CONVERGED: 4}
        assert record["worst_class"] == CONVERGED
        assert record["num_converged"] == 4
        # the trace join is intact: one trace id per co-batched system
        assert len(record["trace_ids"]) == 4
        assert record["flush_id"]
        # the kept curve is a real trajectory ending near the tolerance
        assert record["worst_curve"][0] > record["worst_curve"][-1]

    def test_unconverged_system_gets_a_bad_class(self, backend):
        # one poisoned system co-batched with a healthy one: the batched
        # solve cannot converge it, and the forensic record must say so
        # even though the LU fallback rescues the request afterwards
        requests = [
            SolveRequest(
                _tridiag(12), np.ones(12), solver="cg",
                preconditioner="jacobi", tolerance=1e-10, max_iterations=40,
            ),
            SolveRequest(
                _poisoned(12), np.ones(12), solver="cg",
                preconditioner="jacobi", tolerance=1e-10, max_iterations=40,
            ),
        ]
        recorder, outcomes = self._run(backend, requests)
        assert all(o.converged for o in outcomes)  # fallback saved it
        [record] = recorder.snapshot()["flushes"]
        assert record["num_systems"] == 2
        assert record["worst_class"] != CONVERGED
        assert SEVERITY[record["worst_class"]] > SEVERITY[CONVERGED]
        # exactly the poisoned system carries the bad class
        assert record["class_counts"].get(CONVERGED, 0) == 1
        assert record["worst_index"] == 1
        # its curve was retained for the postmortem
        assert len(record["worst_curve"]) >= 2

    def test_every_solve_is_recorded(self, backend):
        requests = [
            SolveRequest(_tridiag(8), np.ones(8), tolerance=1e-8) for _ in range(6)
        ]
        recorder = FlightRecorder(shard=f"test-{backend}")
        config = ServeConfig(
            max_batch_size=2, max_wait_ms=1000.0, num_workers=1, backend=backend
        )
        with use(recorder=recorder):
            with SolverService(config) as service:
                tickets = [service.submit(r) for r in requests]
                for t in tickets:
                    t.result(timeout=30.0)
        assert recorder.flushes_seen == 3  # three size-triggered flushes of 2
        assert len(recorder.snapshot()["flushes"]) == 3
        assert recorder.summary()["events_seen"] > 0


class TestKernelPathSolveRecords:
    """``execution="kernel"`` on wide: records built from the device history."""

    def _run(self, requests):
        recorder = FlightRecorder(shard="test-wide-kernel")
        config = ServeConfig(
            max_batch_size=len(requests), max_wait_ms=1000.0, num_workers=1,
            backend="wide", execution="kernel",
        )
        with use(recorder=recorder):
            with SolverService(config) as service:
                tickets = [service.submit(r) for r in requests]
                service.flush()
                outcomes = [t.result(timeout=30.0) for t in tickets]
        kernel_solves = service.metrics.counter("serve.kernel_solves").labels(
            backend="wide", solver="cg"
        )
        assert kernel_solves.value == 1  # the fused kernel ran the flush
        [record] = recorder.snapshot()["flushes"]
        return record, outcomes

    def test_converged_pair_recorded_as_converged(self):
        requests = [
            SolveRequest(
                _tridiag(12), np.ones(12), solver="cg",
                preconditioner="jacobi", tolerance=1e-10,
            )
            for _ in range(2)
        ]
        record, outcomes = self._run(requests)
        assert all(o.converged and not o.used_fallback for o in outcomes)
        assert record["backend"] == "wide"
        assert record["class_counts"] == {CONVERGED: 2}
        assert record["worst_curve"][0] > record["worst_curve"][-1]

    def test_poisoned_system_recorded_as_divergence(self):
        requests = [
            SolveRequest(
                matrix, np.ones(12), solver="cg",
                preconditioner="jacobi", tolerance=1e-10, max_iterations=40,
            )
            for matrix in (_tridiag(12), _poisoned(12))
        ]
        record, outcomes = self._run(requests)
        assert all(o.converged for o in outcomes)  # the LU fallback rescued it
        assert record["class_counts"] == {CONVERGED: 1, DIVERGENCE: 1}
        assert record["worst_index"] == 1
        assert record["worst_class"] == DIVERGENCE
        # the 41-entry device history is kept as a downsampled curve
        assert len(record["worst_curve"]) == CURVE_POINTS == 32

"""Contracts of the vectorized solver loop: guarded divides, the tracker's
active mask, and the traffic ledger a solve reports."""

import numpy as np
import pytest

from repro.core.dispatch import dispatch_solve
from repro.core.logger import ConvergenceLogger
from repro.core.matrix import BatchCsr
from repro.core.solver.base import ConvergenceTracker, guarded_divide
from repro.core.stop import RelativeResidual
from repro.workloads.stencil import three_point_stencil


class TestGuardedDivide:
    def test_zero_denominator_of_active_system_breaks_down(self):
        active = np.array([True, True, True])
        quotient, breakdown = guarded_divide(
            np.array([1.0, 2.0, 3.0]), np.array([0.0, -0.0, 4.0]), active
        )
        assert quotient.tolist() == [0.0, 0.0, 0.75]
        assert breakdown.tolist() == [True, True, False]

    def test_inactive_system_gives_zero_without_breakdown(self):
        quotient, breakdown = guarded_divide(
            np.array([1.0, 2.0]), np.array([0.0, 4.0]), np.array([False, False])
        )
        assert quotient.tolist() == [0.0, 0.0]
        assert not breakdown.any()

    def test_nan_denominator_propagates_without_breakdown(self):
        quotient, breakdown = guarded_divide(
            np.array([1.0]), np.array([np.nan]), np.array([True])
        )
        assert np.isnan(quotient[0])
        assert not breakdown.any()

    @pytest.mark.parametrize(
        "num_dtype, den_dtype, expected",
        [
            (np.float32, np.float32, np.float32),
            (np.float32, np.float64, np.float64),
            (np.float64, np.float64, np.float64),
        ],
    )
    def test_quotient_dtype_follows_operands(self, num_dtype, den_dtype, expected):
        quotient, _ = guarded_divide(
            np.array([1.0, 2.0], dtype=num_dtype),
            np.array([3.0, 0.0], dtype=den_dtype),
            np.array([True, True]),
        )
        assert quotient.dtype == expected


class TestTrackerActive:
    def _assert_consistent(self, tracker):
        expected = ~(tracker.converged | tracker.logger.frozen)
        assert tracker.active.tolist() == expected.tolist()

    def test_active_follows_start_update_and_freeze(self):
        tracker = ConvergenceTracker(RelativeResidual(1e-3), np.ones(4), ConvergenceLogger(4))
        tracker.start(np.array([1.0, 1e-4, 1.0, 1.0]))
        self._assert_consistent(tracker)
        assert tracker.active.tolist() == [True, False, True, True]

        held = tracker.active
        tracker.update(1, np.array([1e-4, 1e-4, 0.5, 0.5]), held)
        self._assert_consistent(tracker)
        assert tracker.active.tolist() == [False, False, True, True]
        # reassigned, not mutated: a solver may hold the mask it read
        assert held.tolist() == [True, False, True, True]

        tracker.freeze(np.array([False, False, True, False]))
        self._assert_consistent(tracker)
        assert tracker.active.tolist() == [False, False, False, True]
        assert not tracker.all_done

        tracker.update(2, np.array([1e-4, 1e-4, 0.5, 1e-4]), tracker.active)
        self._assert_consistent(tracker)
        assert tracker.all_done


def _mixed_batch():
    """One system with b = 0 (done at iteration 0), one eigenvector RHS
    (one iteration), one random RHS that runs out of iterations."""
    n, nb = 16, 3
    matrix = three_point_stencil(n, nb, seed=0)
    b = np.zeros((nb, n))
    b[1] = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    b[2] = np.random.default_rng(0).standard_normal(n)
    return matrix, b


def _all_frozen_batch():
    """b in the null space of A: every system breaks down in its first pass."""
    matrix = BatchCsr.from_dense(np.diag([1.0, 1.0, 1.0, 0.0])[None].repeat(2, axis=0))
    b = np.zeros((2, 4))
    b[:, 3] = 1.0
    return matrix, b


# Ledgers recorded when every pass of the loop tallied as it ran; a solve
# that tallies one pass and scales it must report them exactly, key order
# included (the memory model and the roofline iterate over it).
LEDGER_PINS = {
    ("mixed", "cg"): (
        [0, 1, 6],
        6096.0,
        [("b", 384.0), ("precond", 2688.0), ("z", 5376.0), ("p", 21120.0),
         ("r", 9984.0), ("A_values", 6912.0), ("A_pattern", 4680.0), ("t", 6912.0),
         ("x", 4608.0)],
        [("norm", 24), ("precond", 21), ("copy", 3), ("dot", 39), ("spmv", 18),
         ("axpy", 54), ("scal", 18)],
    ),
    ("mixed", "bicgstab"): (
        [0, 1, 6],
        10848.0,
        [("b", 384.0), ("r", 16896.0), ("r_hat", 4992.0), ("v", 9216.0), ("p", 13824.0),
         ("precond", 4608.0), ("A_values", 13824.0), ("A_pattern", 9360.0),
         ("p_hat", 9216.0), ("s", 11520.0), ("s_hat", 9216.0), ("t", 11520.0),
         ("x", 9216.0)],
        [("norm", 24), ("copy", 39), ("dot", 72), ("axpy", 108), ("scal", 18),
         ("precond", 36), ("spmv", 36)],
    ),
    # a pass in which every system freezes bumps no iteration count but tallies
    ("all_frozen", "cg"): (
        [0, 0],
        164.0,
        [("b", 64.0), ("r", 512.0), ("z", 384.0), ("p", 496.0), ("A_values", 48.0),
         ("A_pattern", 64.0), ("t", 192.0), ("x", 128.0)],
        [("norm", 6), ("copy", 6), ("dot", 6), ("spmv", 2), ("axpy", 6), ("scal", 2)],
    ),
    ("all_frozen", "bicgstab"): (
        [1, 1],
        240.0,
        [("b", 64.0), ("r", 704.0), ("r_hat", 192.0), ("v", 256.0), ("p", 384.0),
         ("z", 128.0), ("A_values", 96.0), ("A_pattern", 128.0), ("p_hat", 112.0),
         ("s", 320.0), ("s_hat", 112.0), ("t", 320.0), ("x", 256.0)],
        [("norm", 6), ("copy", 10), ("dot", 8), ("axpy", 12), ("scal", 2), ("spmv", 4)],
    ),
}


@pytest.mark.parametrize("case, solver", sorted(LEDGER_PINS))
def test_ledger_pin(case, solver):
    if case == "mixed":
        matrix, b = _mixed_batch()
        result = dispatch_solve(
            matrix, b, solver=solver, preconditioner="jacobi",
            tolerance=1e-10, max_iterations=6,
        )
    else:
        matrix, b = _all_frozen_batch()
        result = dispatch_solve(matrix, b, solver=solver, tolerance=1e-10, max_iterations=50)
    iterations, flops, bytes_items, calls = LEDGER_PINS[case, solver]
    assert result.iterations.tolist() == iterations
    assert result.ledger.flops == flops
    assert list(result.ledger.bytes_by_object.items()) == bytes_items
    assert list(result.ledger.calls.items()) == calls

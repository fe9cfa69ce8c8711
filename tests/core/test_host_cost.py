"""The vectorized loop's per-pass host cost, guarded by count.

At batch 1 a CG or BiCGSTAB pass pays for Python and NumPy dispatch, not
for arithmetic, so the number of calls a pass makes is its cost. These
tests count the profiler's ``call`` and ``c_call`` events of one pass (a
6-pass solve minus a 3-pass solve, batch 1, n = 24, scalar Jacobi, a
tolerance no pass can meet) and hold them at or below what the loop
makes now. The counts repeat exactly for a given Python and NumPy; a
trim lowers the bound, a new call in the loop fails the test.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import BatchBicgstab, BatchCg, BatchJacobi, SolverSettings
from repro.core.stop import RelativeResidual
from repro.workloads.stencil import stencil_rhs, three_point_stencil

#: solver -> most (call, c_call) events per pass. Before the loop's
#: host-cost trim: CG (62, 37), BiCGSTAB (114, 57).
MAX_EVENTS_PER_PASS = {BatchCg: (55, 19), BatchBicgstab: (92, 28)}


def _events(cls, passes: int) -> tuple[int, int]:
    matrix = three_point_stencil(24, 1, seed=3)
    b = stencil_rhs(24, 1, seed=4)
    settings = SolverSettings(max_iterations=passes, criterion=RelativeResidual(1e-300))
    solver = cls(matrix, BatchJacobi(matrix), settings)
    solver.solve(b)  # the first solve pays lazy set-up
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = solver.solve(b)
    finally:
        sys.setprofile(previous)
    assert result.iterations.tolist() == [passes]
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("cls", list(MAX_EVENTS_PER_PASS), ids=lambda cls: cls.solver_name)
def test_a_pass_makes_no_more_calls_than_it_did(cls):
    six, three = _events(cls, 6), _events(cls, 3)
    calls, c_calls = ((a - b) / 3 for a, b in zip(six, three))
    most_calls, most_c_calls = MAX_EVENTS_PER_PASS[cls]
    assert calls <= most_calls and c_calls <= most_c_calls, (calls, c_calls)

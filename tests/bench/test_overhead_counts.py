"""Exact per-solve counts of the sanitize and profile overhead workload.

``scripts/bench_sanitize_overhead.py`` and ``scripts/bench_profile_overhead.py``
time one fused-CG solve (3-point stencil, n=16, nb=4, tol 1e-9) on the
faithful sycl queue and record what the instrument counted per solve.
Those counts are deterministic; this pins them against the same numbers
the baseline manifest gates, on a fresh run of the workload rather than
on the committed artifacts.
"""

from repro.instruments import use
from repro.kernels import run_batch_cg_on_device
from repro.profile import Profiler
from repro.sanitize import Sanitizer
from repro.sycl.device import pvc_stack_device
from repro.sycl.queue import Queue
from repro.workloads.stencil import stencil_rhs, three_point_stencil

NUM_ROWS, NUM_BATCH = 16, 4


def _solve_once():
    device = pvc_stack_device(1)
    matrix = three_point_stencil(NUM_ROWS, NUM_BATCH)
    rhs = stencil_rhs(NUM_ROWS, NUM_BATCH)
    run_batch_cg_on_device(device, matrix, rhs, tolerance=1e-9, queue=Queue(device))


def test_sanitizer_checks_per_solve():
    sanitizer = Sanitizer()
    with use(sanitizer=sanitizer):
        _solve_once()
    summary = sanitizer.summary()
    assert summary["slm_accesses"] == 22_080
    assert summary["syncs"] == 460
    assert summary["violations"] == {}


def test_profiler_counts_per_solve():
    profiler = Profiler()
    with use(profiler=profiler):
        _solve_once()
    total = profiler.totals()
    assert total.flops == 19_776
    assert total.global_bytes == 55_328
    assert total.slm_bytes == 176_640

"""Tuned launch geometries never trade correctness.

The autotuner searches over sub-group/work-group geometry; this test runs
the winning geometry through a real fused-kernel launch under the kernel
sanitizer, so a tuning that introduced a race, divergent barrier or
collective-width mismatch would fail here rather than silently corrupt.
"""

from __future__ import annotations

import numpy as np

from repro.core.launch import LaunchConfigurator
from repro.hw.specs import gpu
from repro.instruments import use
from repro.kernels.cg_kernel import batch_cg_kernel
from repro.sanitize import Sanitizer
from repro.sycl.memory import LocalSpec
from repro.sycl.queue import Queue
from repro.tune import RANDOM, Autotuner, TuningDB, stencil_workload
from repro.workloads.stencil import stencil_rhs, three_point_stencil

ROWS, NB = 16, 3


def _launch_cg_at(geometry, matrix, b, tolerance=1e-8, max_iterations=200):
    """One fused-CG launch pinned to an explicit geometry (no heuristic)."""
    nb, n = matrix.num_batch, matrix.num_rows
    inv_diag = 1.0 / matrix.diagonal()
    x_out = np.zeros((nb, n))
    out_iters = np.zeros(nb, dtype=np.int64)
    thresholds = tolerance * np.linalg.norm(b, axis=1)
    plan = geometry.plan(nb)
    queue = Queue()
    queue.parallel_for(
        plan.nd_range(),
        batch_cg_kernel,
        args=(
            matrix.row_ptrs,
            matrix.col_idxs,
            matrix.values,
            b,
            x_out,
            inv_diag,
            thresholds,
            max_iterations,
            out_iters,
            False,
            None,
        ),
        local_specs=[LocalSpec(name, (n,)) for name in ("r", "z", "p", "t", "x")],
        name="batch_cg_fused_tuned",
    )
    return x_out, out_iters


def test_tuned_geometry_is_sanitizer_clean_and_correct():
    tuner = Autotuner(gpu("pvc1"), db=TuningDB(), strategy=RANDOM, budget=6, seed=3)
    result = tuner.tune(stencil_workload(ROWS, nb_solve=4))
    geometry = result.record.geometry()

    matrix = three_point_stencil(ROWS, NB)
    b = stencil_rhs(ROWS, NB, seed=7)

    sanitizer = Sanitizer()
    with use(sanitizer=sanitizer):
        x, iters = _launch_cg_at(geometry, matrix, b)

    # clean under every detector...
    assert sanitizer.clean
    summary = sanitizer.summary()
    assert summary["launches"] == 1
    assert summary["work_groups"] == NB
    assert summary["slm_accesses"] > 0
    assert summary["violations"] == {}

    # ...and numerically correct at the tuned geometry
    assert (iters < 200).all()
    dense = matrix.to_batch_dense()
    expected = np.stack([np.linalg.solve(dense[k], b[k]) for k in range(NB)])
    np.testing.assert_allclose(x, expected, rtol=1e-6, atol=1e-8)


def test_heuristic_and_tuned_geometries_agree_under_sanitizer():
    """The heuristic geometry and one of a different sub-group size both stay
    clean, and their answers agree to round-off, not bit for bit: the
    work-group size changes the summation order of the reductions."""
    spec = gpu("pvc1")
    matrix = three_point_stencil(ROWS, NB)
    b = stencil_rhs(ROWS, NB, seed=11)

    cfg = LaunchConfigurator(spec.device)
    heuristic = cfg.geometry(ROWS)
    solutions = []
    for sg in spec.device.sub_group_sizes:
        geo = heuristic.__class__(
            work_group_size=max(sg, heuristic.work_group_size),
            sub_group_size=sg,
            reduction_scope=heuristic.reduction_scope,
            device_name=spec.device.name,
        )
        sanitizer = Sanitizer()
        with use(sanitizer=sanitizer):
            x, _ = _launch_cg_at(geo, matrix, b)
        assert sanitizer.clean, f"violations at sub-group size {sg}"
        solutions.append(x)
    for x in solutions[1:]:
        np.testing.assert_allclose(x, solutions[0], rtol=1e-9, atol=1e-12)

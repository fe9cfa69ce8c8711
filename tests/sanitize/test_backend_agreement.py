"""Differential grid: device kernels vs. the NumPy reference path.

Every case runs one generated batch through the vectorized NumPy solver
(dispatch path, residual history on) and through the fused device kernel
on a simulated backend — under an installed sanitizer — and asserts that
convergence histories, iteration counts and solutions agree. A failing
cell is shrunk to the minimal failing sub-batch before the assertion
fires, so the report names a single reproducible system.

The geometry cells run the fused kernels at every (sub-group,
work-group) pair other than the Section 3.6 heuristic's, on a 24-row
batch: a 16-item work-group whose items own two rows each, and width-32
sub-groups with idle items.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.launch import LaunchConfigurator
from repro.kernels import BACKENDS, KERNEL_PRECONDITIONERS, KERNEL_SOLVERS, queue_for
from repro.sanitize.diff import (
    DiffCase,
    forced_device,
    geometry_pairs,
    run_backend,
    run_differential,
)

from tests.sanitize.generators import (
    default_problems,
    gen_diag_dominant,
    gen_near_identity_spd,
    gen_pele,
    gen_stencil,
)

SEED = 2023


def _grid() -> list[tuple]:
    """(problem-factory, DiffCase) cells, sized to stay test-suite friendly."""
    cells: list[tuple] = []

    # Full double-precision kernel grid on the stencil battery.
    stencil = ("stencil", lambda: gen_stencil(SEED))
    for solver in ("cg", "bicgstab", "richardson"):
        for precond in ("identity", "jacobi"):
            for backend in ("sycl", "cuda", "wide"):
                cells.append(
                    (
                        stencil,
                        DiffCase(
                            "stencil", solver, precond, "double", backend
                        ),
                    )
                )

    # Single precision: one SPD and one solver per backend keeps runtime low.
    spd = ("near-identity", lambda: gen_near_identity_spd(SEED + 1))
    for backend in ("sycl", "cuda", "wide"):
        cells.append((spd, DiffCase("near-identity", "cg", "jacobi", "single", backend)))
        cells.append(
            (spd, DiffCase("near-identity", "bicgstab", "identity", "single", backend))
        )

    # General (nonsymmetric) systems: the non-CG solvers with Jacobi.
    dd = ("diag-dominant", lambda: gen_diag_dominant(SEED + 2))
    for backend in ("sycl", "cuda", "wide"):
        cells.append((dd, DiffCase("diag-dominant", "bicgstab", "jacobi", "double", backend)))

    # Pele-shaped chemistry Jacobians.
    pele = ("pele", lambda: gen_pele(SEED + 3))
    for backend in ("sycl", "cuda", "wide"):
        cells.append((pele, DiffCase("pele", "bicgstab", "jacobi", "double", backend)))

    # Launch geometries the heuristic never picks: sanitized sycl and wide.
    spd24 = ("near-identity-24", lambda: gen_near_identity_spd(SEED + 4, num_rows=24))
    for solver in KERNEL_SOLVERS:
        for precond in KERNEL_PRECONDITIONERS:
            for backend in ("sycl", "wide"):
                for geometry in geometry_pairs(backend, 24):
                    case = DiffCase(
                        "near-identity-24", solver, precond, "double", backend,
                        geometry=geometry,
                    )
                    cells.append((spd24, case))

    return cells


_CELLS = _grid()


def _shrink(problem, case: DiffCase) -> str:
    """Minimal failing sub-batch of a disagreeing cell (single systems first)."""
    for sysid in range(problem.num_batch):
        sub = problem.subset([sysid])
        outcome = run_differential(sub.dense, sub.b, case)
        if not outcome.agree:
            return f"minimal failing sub-batch: system {sysid} of {problem.name}\n" + (
                outcome.describe()
            )
    return "failure does not reproduce on any single-system sub-batch"


@pytest.mark.parametrize(
    "cell", _CELLS, ids=[f"{name}-{case.label()}" for (name, _), case in _CELLS]
)
def test_backend_agrees_with_reference(cell):
    (_, make_problem), case = cell
    problem = make_problem()
    outcome = run_differential(problem.dense, problem.b, case)
    assert outcome.agree, outcome.describe() + "\n" + _shrink(problem, case)
    # fully converged cells really solve the system; slow cells (Richardson
    # on the stencil contracts at ~0.985/iter) only need path agreement
    if (np.asarray(outcome.iterations_dev) < case.max_iterations).all():
        assert outcome.max_residual < 1e-2


def test_geometry_cells_cover_each_non_heuristic_pair():
    # at 24 rows the heuristic picks (16, 32); cuda keeps warp width 32
    assert geometry_pairs("sycl", 24) == geometry_pairs("wide", 24) == [(16, 16), (32, 32)]
    assert geometry_pairs("cuda", 24) == []
    assert sum(case.geometry is not None for _, case in _CELLS) == 24


@pytest.mark.parametrize("num_rows", [1, 16, 24, 48, 100, 1100])
@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_device_lands_the_heuristic_on_each_pair(backend, num_rows):
    """A forced pair never silently falls back to the heuristic's."""
    device = queue_for(backend).device
    heuristic = LaunchConfigurator(device).geometry(num_rows)
    pairs = geometry_pairs(backend, num_rows)
    assert (heuristic.sub_group_size, heuristic.work_group_size) not in pairs
    for sg, wg in pairs:
        assert wg % sg == 0 and wg <= device.max_work_group_size
        forced = LaunchConfigurator(forced_device(backend, (sg, wg))).geometry(num_rows)
        assert (forced.sub_group_size, forced.work_group_size) == (sg, wg)


def test_all_problem_generators_are_deterministic():
    first = default_problems(5)
    second = default_problems(5)
    for a, b in zip(first, second):
        assert a.name == b.name
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.b, b.b)


def test_same_kernel_same_input_is_bitwise_reproducible():
    """The simulator is deterministic: re-running a cell is bitwise equal.

    This is the strongest comparability claim the harness makes — across
    *runs*, not across backends (whose reduction orders legitimately
    differ; see repro.sanitize.diff's module docstring).
    """
    problem = gen_stencil(SEED)
    from repro.core.matrix.batch_csr import BatchCsr

    matrix = BatchCsr.from_dense(problem.dense)
    case = DiffCase("stencil", "bicgstab", "jacobi", "double", "sycl")
    first = run_backend(matrix, problem.b, case)
    second = run_backend(matrix, problem.b, case)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.iterations, second.iterations)
    np.testing.assert_array_equal(first.history, second.history)


def test_wide_backend_is_bitwise_reproducible():
    """Lockstep execution is deterministic too: re-running is bitwise equal."""
    problem = gen_stencil(SEED)
    from repro.core.matrix.batch_csr import BatchCsr

    matrix = BatchCsr.from_dense(problem.dense)
    case = DiffCase("stencil", "bicgstab", "jacobi", "double", "wide")
    first = run_backend(matrix, problem.b, case)
    second = run_backend(matrix, problem.b, case)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.iterations, second.iterations)
    np.testing.assert_array_equal(first.history, second.history)


def test_sanitizer_was_actually_installed_for_backend_runs():
    problem = gen_near_identity_spd(SEED)
    from repro.core.matrix.batch_csr import BatchCsr

    matrix = BatchCsr.from_dense(problem.dense)
    run = run_backend(matrix, problem.b, DiffCase("p", "cg"))
    assert run.sanitizer_summary["launches"] == 1
    assert run.sanitizer_summary["slm_accesses"] > 0
    assert run.sanitizer_summary["violations"] == {}

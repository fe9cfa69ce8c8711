"""Differential harness: device kernels vs. the NumPy reference path.

The harness runs one batched problem through several implementations of
the same algorithm —

* the **reference** path: the vectorized NumPy solvers behind the
  multi-level dispatch mechanism (:func:`repro.core.dispatch`), with the
  full residual history recorded;
* the **sycl** backend: the fused work-group kernels of
  :mod:`repro.kernels` executed on the SYCL simulator;
* the **cuda** backend: the same kernels executed on a
  :mod:`repro.cudasim` device (and, for BiCGSTAB, the warp-shuffle
  reduction structure instead of the group-reduce primitive);
* the **wide** backend: the same kernel sources executed in lockstep as
  NumPy array operations (:mod:`repro.wide`) —

and compares per-system iteration counts, solutions and convergence
histories. Each device run is one :func:`repro.kernels.solve_fused` on
:func:`repro.kernels.queue_for`, the entry point every fused-kernel
caller shares. Besides the Section 3.6 heuristic's launch geometry, the
grid runs each backend at every other legal (sub-group, work-group) pair
for its row count (:func:`geometry_pairs`), so the kernels are checked at
work-groups smaller than the system and at the other sub-group width. A
pair is forced only through the device descriptor (:func:`forced_device`):
the heuristic, run on a device with that one sub-group width and that
work-group maximum, lands on the pair by itself.

The per-work-item backends run under an installed sanitizer; the wide
backend runs bare, because its lockstep execution falls back to the
faithful interpreter under a sanitizer (per-item shadow checking has no
meaning over a collapsed lane axis — see ``docs/wide_backend.md``),
which would make the differential comparison vacuous. Exact bitwise
equality across paths is *not* the contract: the paths reduce in
different orders (NumPy pairwise summation, the SYCL group primitive
sequentially over lanes, the CUDA butterfly over warps, the wide
backend's vectorized lane-axis reduction), which is precisely the backend
difference Section 3.2 of the paper describes. What must hold — and what
:func:`run_differential` checks — is that residual histories track each
other to accumulation-error tolerance, iteration counts match within a
one-iteration threshold-crossing slack, and the returned solutions solve
the system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.dispatch import BatchSolverFactory
from repro.core.launch import LaunchConfigurator
from repro.core.matrix.batch_csr import BatchCsr
from repro.instruments import use
from repro.kernels import (
    BACKENDS,
    KERNEL_PRECONDITIONERS,
    KERNEL_SOLVERS,
    queue_for,
    solve_fused,
)
from repro.sanitize.sanitizer import Sanitizer, SanitizerConfig
from repro.sycl.device import SyclDevice
from repro.utils.validation import round_up

#: Comparison slack per precision: (history rtol, solution atol scale,
#: allowed iteration-count delta). Single precision stores the operators
#: in float32, so recurrences drift measurably faster.
_TOLERANCES = {
    "double": (1e-6, 1e-7, 1),
    "single": (5e-3, 5e-4, 3),
}


@dataclass(frozen=True)
class DiffCase:
    """One cell of the differential grid."""

    name: str
    solver: str
    preconditioner: str = "identity"
    precision: str = "double"
    backend: str = "sycl"
    tolerance: float = 1e-8
    max_iterations: int = 200
    omega: float = 0.9  # richardson relaxation
    geometry: tuple[int, int] | None = None  # (sub-group, work-group); None: heuristic

    def label(self) -> str:
        """Stable human-readable id (test ids, CLI output)."""
        label = (
            f"{self.name}/{self.solver}+{self.preconditioner}"
            f"/{self.precision}/{self.backend}"
        )
        if self.geometry is not None:
            sg, wg = self.geometry
            label += f"/sg{sg}-wg{wg}"
        return label


def geometry_pairs(backend: str, num_rows: int) -> list[tuple[int, int]]:
    """Every legal (sub-group, work-group) pair but the heuristic's.

    The sub-group sizes are those of ``backend``'s device; the work-group
    sizes are the multiples of the sub-group from one sub-group up to
    ``round_up(num_rows, sg)``, within the device's work-group maximum.
    """
    device = queue_for(backend).device
    heuristic = LaunchConfigurator(device).geometry(num_rows)
    chosen = (heuristic.sub_group_size, heuristic.work_group_size)
    pairs = []
    for sg in sorted(device.sub_group_sizes):
        top = min(round_up(num_rows, sg), device.max_work_group_size // sg * sg)
        pairs += [(sg, wg) for wg in range(sg, top + 1, sg) if (sg, wg) != chosen]
    return pairs


def forced_device(backend: str, geometry: tuple[int, int]) -> SyclDevice:
    """``backend``'s device narrowed to one sub-group width and a
    work-group maximum, so the heuristic picks exactly ``geometry``."""
    sg, wg = geometry
    return dataclasses.replace(
        queue_for(backend).device, sub_group_sizes=(sg,), max_work_group_size=wg
    )


@dataclass
class BackendRun:
    """Result of the device-kernel path of one case."""

    x: np.ndarray
    iterations: np.ndarray
    history: np.ndarray  # (nb, max_iterations + 1), NaN past convergence
    sanitizer_summary: dict[str, Any]


@dataclass
class DiffOutcome:
    """The comparison verdict of one differential case."""

    case: DiffCase
    agree: bool
    iterations_ref: np.ndarray
    iterations_dev: np.ndarray
    max_solution_diff: float
    max_history_rel_diff: float
    max_residual: float
    failures: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One line per verdict, with failure detail when disagreeing."""
        head = f"{self.case.label()}: {'agree' if self.agree else 'DISAGREE'}"
        if self.agree:
            return head
        return head + "\n  " + "\n  ".join(self.failures)


def _as_precision(array: np.ndarray, precision: str) -> np.ndarray:
    if precision == "single":
        return np.asarray(array, dtype=np.float32)
    return np.asarray(array, dtype=np.float64)


def run_reference(matrix: BatchCsr, b: np.ndarray, case: DiffCase):
    """The NumPy path through the dispatch mechanism, history enabled."""
    factory = BatchSolverFactory(
        solver=case.solver,
        preconditioner=case.preconditioner,
        precision=case.precision,
        criterion="relative",
        tolerance=case.tolerance,
        max_iterations=case.max_iterations,
        keep_history=True,
        solver_options={"omega": case.omega} if case.solver == "richardson" else {},
    )
    return factory.solve(matrix, _as_precision(b, case.precision))


def run_backend(
    matrix: BatchCsr,
    b: np.ndarray,
    case: DiffCase,
    config: SanitizerConfig | None = None,
) -> BackendRun:
    """The fused-kernel path of one case.

    The per-work-item backends (``sycl``, ``cuda``) execute under a fresh
    sanitizer; the ``wide`` backend executes bare on a lockstep
    :class:`~repro.wide.queue.WideQueue` (a sanitizer would force its
    faithful-interpreter fallback and the comparison would test nothing),
    with a summary noting the inapplicable checks.
    """
    values = _as_precision(matrix.values, case.precision)
    dev_matrix = BatchCsr(
        matrix.row_ptrs, matrix.col_idxs, values, num_cols=matrix.num_cols
    )
    history = np.full((matrix.num_batch, case.max_iterations + 1), np.nan)
    device = None if case.geometry is None else forced_device(case.backend, case.geometry)
    queue = queue_for(case.backend, device=device)

    def solve():
        return solve_fused(
            queue,
            dev_matrix,
            _as_precision(b, case.precision),
            solver=case.solver,
            preconditioner=case.preconditioner,
            tolerance=case.tolerance,
            max_iterations=case.max_iterations,
            omega=case.omega,
            res_history=history,
        )

    if case.backend == "wide":
        result = solve()
        summary = {
            "launches": 1,
            "work_groups": queue.events[-1].stats.num_groups,
            "slm_accesses": 0,
            "syncs": 0,
            "violations": {},
            "note": "per-work-item sanitizer checks do not apply to the "
            "lockstep wide backend",
        }
        return BackendRun(result.x, result.iterations, history, summary)

    sanitizer = Sanitizer(config)
    with use(sanitizer=sanitizer):
        result = solve()
    return BackendRun(result.x, result.iterations, history, sanitizer.summary())


def run_differential(
    dense: np.ndarray,
    b: np.ndarray,
    case: DiffCase,
    config: SanitizerConfig | None = None,
) -> DiffOutcome:
    """Run one case through reference and device paths and compare.

    ``dense`` is the ``(nb, n, n)`` dense batch (the generator output);
    both paths consume the same shared-pattern CSR conversion of it.
    """
    matrix = BatchCsr.from_dense(dense)
    reference = run_reference(matrix, b, case)
    device = run_backend(matrix, b, case, config)

    hist_rtol, sol_scale, iter_slack = _TOLERANCES[case.precision]
    failures: list[str] = []

    # -- iteration counts ----------------------------------------------------
    it_ref = np.asarray(reference.iterations, dtype=np.int64)
    it_dev = np.asarray(device.iterations, dtype=np.int64)
    delta = np.abs(it_ref - it_dev)
    if delta.max(initial=0) > iter_slack:
        failures.append(
            f"iteration counts diverge: reference {it_ref.tolist()} vs "
            f"device {it_dev.tolist()} (allowed slack {iter_slack})"
        )

    # -- convergence histories ----------------------------------------------
    # Mixed relative/absolute comparison: once both recurrences drop below
    # the stopping threshold their exact values are roundoff noise, so the
    # per-system threshold doubles as the absolute floor.
    ref_hist = reference.logger.history  # (records, nb)
    b_norms_hist = np.linalg.norm(np.asarray(b, dtype=np.float64), axis=1)
    max_hist_diff = 0.0
    for sysid in range(matrix.num_batch):
        floor = case.tolerance * float(b_norms_hist[sysid])
        shared = min(ref_hist.shape[0] - 1, int(it_dev[sysid]))
        for k in range(shared + 1):
            ref_val = float(ref_hist[k, sysid])
            dev_val = float(device.history[sysid, k])
            if np.isnan(dev_val):
                break
            denom = max(abs(ref_val), abs(dev_val), 1e-300)
            rel = abs(ref_val - dev_val) / denom
            if abs(ref_val - dev_val) > hist_rtol * denom + floor:
                failures.append(
                    f"history mismatch: system {sysid} iteration {k}: "
                    f"reference |r| = {ref_val:.17g}, device |r| = "
                    f"{dev_val:.17g} (rel {rel:.2e} > {hist_rtol:.0e})"
                )
                break
            if abs(ref_val) > floor or abs(dev_val) > floor:
                max_hist_diff = max(max_hist_diff, rel)

    # -- solutions -----------------------------------------------------------
    x_ref = np.asarray(reference.x, dtype=np.float64)
    x_dev = np.asarray(device.x, dtype=np.float64)
    scale = max(float(np.max(np.abs(x_ref))), 1.0)
    sol_diff = float(np.max(np.abs(x_ref - x_dev))) / scale
    # written so that a NaN difference fails too
    if not sol_diff <= sol_scale:
        failures.append(
            f"solutions diverge: max relative element difference {sol_diff:.2e} "
            f"> {sol_scale:.0e}"
        )

    # -- true residuals ------------------------------------------------------
    residual = np.einsum("bij,bj->bi", np.asarray(dense, dtype=np.float64), x_dev)
    residual -= np.asarray(b, dtype=np.float64)
    b_norms = np.linalg.norm(np.asarray(b, dtype=np.float64), axis=1)
    rel_res = np.linalg.norm(residual, axis=1) / np.maximum(b_norms, 1e-300)
    # converged systems must actually solve the system (neither a launch
    # geometry nor the sanitizer may trade correctness); a non-finite
    # residual fails too
    converged = it_dev < case.max_iterations
    tol_slack = case.tolerance * (1e3 if case.precision == "single" else 10.0)
    bad = converged & ~(rel_res <= tol_slack)
    if bad.any():
        failures.append(
            f"device solution does not solve the system: relative residuals "
            f"{rel_res[bad].tolist()} exceed {tol_slack:.1e} "
            f"for systems {np.nonzero(bad)[0].tolist()}"
        )

    return DiffOutcome(
        case=case,
        agree=not failures,
        iterations_ref=it_ref,
        iterations_dev=it_dev,
        max_solution_diff=sol_diff,
        max_history_rel_diff=max_hist_diff,
        max_residual=float(rel_res.max(initial=0.0)),
        failures=failures,
    )


def kernel_grid(
    name: str,
    num_rows: int,
    precisions: tuple = ("double", "single"),
    backends: tuple = BACKENDS,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
) -> list[DiffCase]:
    """Every kernel-backed solver x preconditioner x precision x backend,
    each at the heuristic geometry and at every other pair for ``num_rows``."""
    geometries = {
        backend: (None, *geometry_pairs(backend, num_rows)) for backend in backends
    }
    cases = []
    for solver in KERNEL_SOLVERS:
        for precond in KERNEL_PRECONDITIONERS:
            for precision in precisions:
                for backend in backends:
                    for geometry in geometries[backend]:
                        cases.append(
                            DiffCase(
                                name=name,
                                solver=solver,
                                preconditioner=precond,
                                precision=precision,
                                backend=backend,
                                tolerance=tolerance,
                                max_iterations=max_iterations,
                                geometry=geometry,
                            )
                        )
    return cases

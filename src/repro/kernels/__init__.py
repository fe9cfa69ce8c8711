"""Work-item-level solver kernels on the execution-model simulators.

These are the faithful counterparts of the paper's GPU kernels: one
work-group per linear system, all vectors staged in shared local memory,
reductions via SYCL group functions (or, on the CUDA backend, warp
shuffles plus a shared-memory combine — the structural difference
Section 3.2 highlights). They execute on :mod:`repro.sycl` /
:mod:`repro.cudasim` and are validated in the test suite against the
vectorized production solvers of :mod:`repro.core.solver`.

Building blocks (:mod:`repro.kernels.blas1`, :mod:`repro.kernels.spmv`)
are generator subroutines composed with ``yield from`` — the Python
analogue of the paper's inlined device functions, which let the compiler
fuse the entire solver into a single kernel (Section 3.4). Callers run
them through the one entry point in :mod:`repro.kernels.solve`.
"""

from repro.kernels.blas1 import (
    block_reduce_cuda,
    group_dot,
    sub_group_dot,
    warp_reduce_sum,
)
from repro.kernels.spmv import spmv_csr_item_rows, spmv_csr_subgroup_rows, spmv_ell_item_rows
from repro.kernels.cg_kernel import batch_cg_kernel, run_batch_cg_on_device
from repro.kernels.bicgstab_kernel import (
    batch_bicgstab_kernel,
    run_batch_bicgstab_on_device,
)
from repro.kernels.richardson_kernel import (
    batch_richardson_kernel,
    run_batch_richardson_on_device,
)
from repro.kernels.solve import (
    BACKENDS,
    KERNEL_PRECONDITIONERS,
    KERNEL_SOLVERS,
    launch_fused,
    queue_for,
    solve_fused,
)

__all__ = [
    "group_dot",
    "sub_group_dot",
    "warp_reduce_sum",
    "block_reduce_cuda",
    "spmv_csr_item_rows",
    "spmv_csr_subgroup_rows",
    "spmv_ell_item_rows",
    "batch_cg_kernel",
    "run_batch_cg_on_device",
    "batch_bicgstab_kernel",
    "run_batch_bicgstab_on_device",
    "batch_richardson_kernel",
    "run_batch_richardson_on_device",
    "BACKENDS",
    "KERNEL_SOLVERS",
    "KERNEL_PRECONDITIONERS",
    "queue_for",
    "launch_fused",
    "solve_fused",
]

"""Matrix-size-driven kernel launch configuration (Section 3.6).

The solvers pick their execution configuration at runtime from the input
matrix size:

* the work-group size is the number of rows rounded up to the next
  multiple of the sub-group size (SYCL requires divisibility);
* the sub-group size is 16 for small matrices and 32 for large ones on
  PVC (both supported); CUDA devices are fixed at the warp width 32;
* reductions run at sub-group scope when a single sub-group covers the
  system ("for small matrices it is more efficient to implement the
  reduction within a subgroup since we do not need to read/write through
  the SLM"), and at work-group scope otherwise.

The small/large threshold "needs to be determined experimentally for each
targeted device"; ``benchmarks/bench_ablation_subgroup_size.py`` runs that
study, and the configurator takes the threshold as an argument with a
conservative default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.workspace import WorkspacePlan
from repro.exceptions import DeviceCapabilityError
from repro.sycl.device import SyclDevice
from repro.sycl.ndrange import NDRange
from repro.utils.validation import round_up

#: Default matrix-size threshold (rows) above which sub-group size 32 wins.
DEFAULT_SUB_GROUP_THRESHOLD_ROWS = 64

#: Reduction scopes.
SUB_GROUP_REDUCE = "sub_group"
WORK_GROUP_REDUCE = "work_group"


@dataclass(frozen=True)
class KernelLaunchPlan:
    """The execution configuration of one fused batched-solver kernel."""

    num_groups: int
    work_group_size: int
    sub_group_size: int
    reduction_scope: str
    slm_bytes_per_group: int

    @property
    def global_size(self) -> int:
        """Total work-items of the launch."""
        return self.num_groups * self.work_group_size

    def nd_range(self) -> NDRange:
        """The simulator ND-range realizing this plan."""
        return NDRange(self.global_size, self.work_group_size, self.sub_group_size)


@dataclass(frozen=True)
class LaunchGeometry:
    """The matrix-size-dependent part of a launch plan (Section 3.6).

    The heuristic makes it a pure function of ``(device, num_rows)``.
    :meth:`plan` stamps out the :class:`KernelLaunchPlan` for a batch of
    systems.
    """

    work_group_size: int
    sub_group_size: int
    reduction_scope: str

    def plan(self, num_batch: int, slm_bytes_per_group: int = 0) -> KernelLaunchPlan:
        """A concrete launch plan for ``num_batch`` systems of this geometry."""
        if num_batch <= 0:
            raise ValueError(f"num_batch must be positive, got {num_batch}")
        return KernelLaunchPlan(
            num_groups=num_batch,
            work_group_size=self.work_group_size,
            sub_group_size=self.sub_group_size,
            reduction_scope=self.reduction_scope,
            slm_bytes_per_group=slm_bytes_per_group,
        )


class LaunchConfigurator:
    """Chooses work-group/sub-group sizes for a device and matrix size."""

    def __init__(
        self,
        device: SyclDevice,
        sub_group_threshold_rows: int = DEFAULT_SUB_GROUP_THRESHOLD_ROWS,
    ) -> None:
        self.device = device
        if sub_group_threshold_rows <= 0:
            raise ValueError(
                f"sub_group_threshold_rows must be positive, got {sub_group_threshold_rows}"
            )
        self.sub_group_threshold_rows = sub_group_threshold_rows

    def pick_sub_group_size(self, num_rows: int) -> int:
        """Sub-group size 16 below the threshold, 32 above (when supported)."""
        sizes = self.device.sub_group_sizes
        if len(sizes) == 1:
            return sizes[0]
        small, large = min(sizes), max(sizes)
        return small if num_rows <= self.sub_group_threshold_rows else large

    def pick_work_group_size(self, num_rows: int, sub_group_size: int) -> int:
        """Rows rounded up to the sub-group size, clamped to the device max."""
        size = round_up(num_rows, sub_group_size)
        if size > self.device.max_work_group_size:
            # Large systems process rows in strided chunks; the group size
            # saturates at the device maximum (still sub-group aligned).
            size = (
                self.device.max_work_group_size
                // sub_group_size
                * sub_group_size
            )
            if size == 0:
                raise DeviceCapabilityError(
                    f"device {self.device.name!r} cannot form a work-group of "
                    f"sub-group size {sub_group_size}"
                )
        return size

    def pick_reduction_scope(self, num_rows: int, sub_group_size: int) -> str:
        """Sub-group-scope reductions once a single sub-group covers the rows."""
        return SUB_GROUP_REDUCE if num_rows <= sub_group_size else WORK_GROUP_REDUCE

    def geometry(self, num_rows: int) -> LaunchGeometry:
        """The batch-size-independent launch choices for ``num_rows``."""
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        sg = self.pick_sub_group_size(num_rows)
        self.device.validate_sub_group_size(sg)
        wg = self.pick_work_group_size(num_rows, sg)
        return LaunchGeometry(
            work_group_size=wg,
            sub_group_size=sg,
            reduction_scope=self.pick_reduction_scope(num_rows, sg),
        )

    def configure(
        self,
        num_rows: int,
        num_batch: int,
        workspace: WorkspacePlan | None = None,
    ) -> KernelLaunchPlan:
        """Full launch plan for a batch of ``num_batch`` n-row systems."""
        if num_rows <= 0 or num_batch <= 0:
            raise ValueError(
                f"num_rows and num_batch must be positive, got ({num_rows}, {num_batch})"
            )
        return self.geometry(num_rows).plan(
            num_batch,
            slm_bytes_per_group=0 if workspace is None else workspace.slm_bytes_used,
        )

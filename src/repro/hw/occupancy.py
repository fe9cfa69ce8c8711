"""Occupancy model: resident work-groups and XVE threading occupancy.

Section 4.4 of the paper explains the solvers' ~50% XVE threading
occupancy: "we let each work-group use the maximum amount of shared local
memory available regardless of the work-group size", so SLM capacity — not
the thread slots — limits how many work-groups an Xe-core hosts. The model
is exactly that greedy allocation: one resident group per compute unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.launch import KernelLaunchPlan
from repro.hw.specs import GpuSpec


def resident_groups(spec: GpuSpec, plan: KernelLaunchPlan) -> int:
    """Work-groups simultaneously resident on one compute unit.

    Each group claims the whole SLM, so exactly one fits, whatever
    ``spec`` and ``plan``.
    """
    return 1


@dataclass(frozen=True)
class OccupancyReport:
    """Occupancy view of one launch on one platform (Fig. 8 metrics)."""

    resident_groups_per_cu: int
    hw_threads_per_group: int
    xve_threading_occupancy: float
    groups_in_flight: int
    waves: int

    def as_dict(self) -> dict[str, float]:
        """Flat dict for the report printers."""
        return {
            "resident_groups_per_cu": self.resident_groups_per_cu,
            "hw_threads_per_group": self.hw_threads_per_group,
            "xve_threading_occupancy": self.xve_threading_occupancy,
            "groups_in_flight": self.groups_in_flight,
            "waves": self.waves,
        }


def occupancy_report(
    spec: GpuSpec,
    plan: KernelLaunchPlan,
    num_batch: int,
) -> OccupancyReport:
    """Residency, threading occupancy and wave count of a batched launch.

    A sub-group executes as one hardware thread (SIMD-``sg`` issue on an
    XVE), so a work-group of ``wg`` items occupies ``wg / sg`` hardware
    threads. XVE threading occupancy is the fraction of the compute
    unit's vector engines that have at least one of those threads to run
    — e.g. a 64-item group at sub-group size 16 puts 4 threads on the 8
    XVEs of a PVC Xe-core: 50%, matching the Advisor number the paper
    reports for dodecane_lu.
    """
    if num_batch <= 0:
        raise ValueError(f"num_batch must be positive, got {num_batch}")
    r = resident_groups(spec, plan)
    threads_per_group = -(-plan.work_group_size // plan.sub_group_size)
    xve_per_cu = int(spec.device.extra.get("xve_per_core", 8))
    threads_resident = r * threads_per_group
    occupancy = min(1.0, threads_resident / xve_per_cu)
    groups_in_flight = r * spec.num_cus
    waves = -(-num_batch // groups_in_flight)
    return OccupancyReport(
        resident_groups_per_cu=r,
        hw_threads_per_group=threads_per_group,
        xve_threading_occupancy=occupancy,
        groups_in_flight=groups_in_flight,
        waves=waves,
    )

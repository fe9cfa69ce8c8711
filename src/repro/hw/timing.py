"""Wave-scheduled runtime estimation.

The batched kernel assigns one work-group per linear system; the device
executes ``groups_in_flight = num_cus x resident_groups`` systems at a
time, and the batch drains in waves (Section 4.2's observation that the
runtime grows linearly once the GPU is saturated is exactly this model).
Each wave-iteration costs the maximum of four bandwidth terms — per-CU
compute and SLM, chip-wide L2 and HBM — plus a fixed synchronization
latency; a per-kernel launch overhead and the one-time cold-footprint HBM
time complete the estimate::

    total = launch_overhead
          + waves * iterations * (max(compute, slm, l2, hbm) + latency)
          + cold_footprint / hbm_bandwidth

:func:`estimate_solve` wires a real solve (its measured iteration counts
and instrumented traffic ledger) through the workspace planner, launch
configurator and occupancy model into this estimator — optionally scaling
to a larger modeled batch than was actually solved, the same
replicate-to-emulate-a-larger-mesh device the paper uses for the PeleLM
inputs (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.launch import KernelLaunchPlan, LaunchConfigurator
from repro.core.solver.base import BatchIterativeSolver, BatchSolveResult
from repro.core.workspace import SlmBudget, WorkspacePlan, plan_workspace
from repro.hw.memmodel import TrafficSplit, split_traffic
from repro.hw.occupancy import OccupancyReport, occupancy_report
from repro.hw.specs import GpuSpec
from repro.observability.tracer import current_tracer

_FP_BYTES = 8


@dataclass(frozen=True)
class TimingBreakdown:
    """Modeled runtime of one batched solve on one platform."""

    spec_key: str
    total_seconds: float
    launch_overhead_seconds: float
    iteration_seconds: float
    cold_seconds: float
    cold_bytes: float
    t_iter_seconds: float
    component_seconds: dict[str, float]
    iterations: float
    occupancy: OccupancyReport
    launch_plan: KernelLaunchPlan
    workspace_plan: WorkspacePlan
    split_per_group_iter: TrafficSplit

    @property
    def binding_component(self) -> str:
        """The bandwidth/compute term that bounds the iteration time."""
        return max(self.component_seconds, key=self.component_seconds.get)

    def memory_time_fractions(self) -> dict[str, float]:
        """Share of the memory subsystem time per level (Fig. 8 breakdown)."""
        mem = {k: v for k, v in self.component_seconds.items() if k != "compute"}
        total = sum(mem.values())
        if total == 0.0:
            return {k: 0.0 for k in mem}
        return {k: v / total for k, v in mem.items()}


def estimate_runtime(
    spec: GpuSpec,
    per_group_iter: TrafficSplit,
    iterations: float,
    num_batch: int,
    plan: KernelLaunchPlan,
    workspace: WorkspacePlan,
    cold_bytes_total: float = 0.0,
    flop_rate_scale: float = 1.0,
) -> TimingBreakdown:
    """Core estimator; all traffic arguments are per group per iteration.

    ``flop_rate_scale`` adjusts the compute roof for the precision format
    (2.0 for FP32 on these GPUs, whose single-precision vector peak is
    double the FP64 peak).
    """
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if flop_rate_scale <= 0:
        raise ValueError(f"flop_rate_scale must be positive, got {flop_rate_scale}")
    occ = occupancy_report(spec, plan, num_batch)
    r = occ.resident_groups_per_cu

    t_compute = per_group_iter.flops * r / (
        spec.fp64_flops_per_cu * spec.flop_efficiency * flop_rate_scale
    )
    t_slm = per_group_iter.slm_bytes * r / (spec.slm_eff_gbps_per_cu * 1e9)
    t_l2 = per_group_iter.l2_bytes * occ.groups_in_flight / (
        spec.l2_bw_peak_tbs * 1e12 * spec.l2_efficiency
    )
    t_hbm = per_group_iter.hbm_bytes * occ.groups_in_flight / (
        spec.hbm_bw_peak_tbs * 1e12 * spec.hbm_efficiency
    )
    components = {"compute": t_compute, "slm": t_slm, "l2": t_l2, "hbm": t_hbm}
    # implicit multi-stack scaling sustains only a fraction of the doubled
    # throughput (driver-level split, Section 4.2 / Fig. 5)
    t_iter = (
        max(components.values()) / spec.scaling_efficiency
        + spec.iter_latency_ns * 1e-9
    )

    iteration_seconds = occ.waves * iterations * t_iter
    cold_seconds = cold_bytes_total / (
        spec.hbm_bw_peak_tbs * 1e12 * spec.hbm_efficiency
    )
    launch_seconds = spec.kernel_launch_overhead_us * 1e-6
    return TimingBreakdown(
        spec_key=spec.key,
        total_seconds=launch_seconds + iteration_seconds + cold_seconds,
        launch_overhead_seconds=launch_seconds,
        iteration_seconds=iteration_seconds,
        cold_seconds=cold_seconds,
        cold_bytes=cold_bytes_total,
        t_iter_seconds=t_iter,
        component_seconds=components,
        iterations=iterations,
        occupancy=occ,
        launch_plan=plan,
        workspace_plan=workspace,
        split_per_group_iter=per_group_iter,
    )


def estimate_solve(
    spec: GpuSpec,
    solver: BatchIterativeSolver,
    result: BatchSolveResult,
    num_batch: int | None = None,
) -> TimingBreakdown:
    """Model a measured solve on platform ``spec``.

    ``num_batch`` scales the model to a larger batch than was solved: the
    per-group work is taken from the measured solve (the batch being a
    replication, every group does the same work) while wave scheduling and
    cold footprint use the modeled batch size.
    """
    matrix = solver.matrix
    nb_solved = matrix.num_batch
    nb_model = int(num_batch) if num_batch is not None else nb_solved
    if nb_model <= 0:
        raise ValueError(f"num_batch must be positive, got {nb_model}")

    tracer = current_tracer()
    with tracer.span(
        "hw.estimate_solve",
        category="hw",
        platform=spec.key,
        solver=solver.solver_name,
        num_batch_modeled=nb_model,
        num_batch_solved=nb_solved,
    ) as span:
        budget = SlmBudget(spec.slm_bytes_per_cu)
        workspace = plan_workspace(
            solver.workspace_vectors(),
            budget,
            precond_doubles=solver.preconditioner.workspace_doubles_per_system(),
            bytes_per_value=matrix.value_bytes,
        )
        plan = LaunchConfigurator(spec.device).configure(
            matrix.num_rows, nb_model, workspace
        )

        iterations = solver.model_stages(result)
        full_split = split_traffic(result.ledger, workspace)
        per_group_iter = full_split.scaled(1.0 / (nb_solved * iterations))

        values_bytes_per_item = matrix.value_bytes * matrix.nnz_per_item
        pattern_bytes = matrix.storage_bytes - values_bytes_per_item * nb_solved
        cold_bytes = (
            values_bytes_per_item * nb_model
            + max(0, pattern_bytes)
            + 2.0 * matrix.value_bytes * matrix.num_rows * nb_model  # b read + x write
        )

        timing = estimate_runtime(
            spec,
            per_group_iter,
            iterations,
            nb_model,
            plan,
            workspace,
            cold_bytes_total=cold_bytes,
            flop_rate_scale=8.0 / matrix.value_bytes,
        )
        if tracer.enabled:
            # the modeled launch and device time next to the host spans —
            # a trace shows both what ran here and what the GPU would cost
            span.set_args(
                num_groups=plan.num_groups,
                work_group_size=plan.work_group_size,
                sub_group_size=plan.sub_group_size,
                reduction_scope=plan.reduction_scope,
                slm_bytes_per_group=plan.slm_bytes_per_group,
                launch_device=spec.device.name,
                modeled_total_s=timing.total_seconds,
                modeled_iteration_s=timing.iteration_seconds,
                binding_component=timing.binding_component,
            )
            tracer.instant(
                "hw.modeled_device_time",
                platform=spec.key,
                solver=solver.solver_name,
                total_ms=timing.total_seconds * 1e3,
                iteration_ms=timing.iteration_seconds * 1e3,
                cold_ms=timing.cold_seconds * 1e3,
                launch_overhead_ms=timing.launch_overhead_seconds * 1e3,
                binding_component=timing.binding_component,
            )
            tracer.metrics.gauge(f"hw.modeled_ms.{spec.key}").set(
                timing.total_seconds * 1e3
            )
            tracer.metrics.histogram("hw.modeled_total_ms").observe(
                timing.total_seconds * 1e3
            )
    return timing

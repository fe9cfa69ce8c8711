"""Advisor-style profiling report (the Fig. 8 analysis).

The paper profiles the BatchBicgstab / dodecane_lu solve with the Intel
Advisor tool and reports: XVE threading occupancy around 50%, the memory
subsystem dominated by SLM requests (~65% of memory-transaction time,
~3 TB of SLM traffic, ~11% of accesses from L3/L2), and a roofline
position on the L3 bandwidth roof but below the SLM roof.

:func:`analyze_solve` produces the same report shape from the model: it
runs the timing estimator, scales the traffic split to the full modeled
batch, evaluates the roofline, and packages the occupancy/memory/roofline
findings into an :class:`AdvisorReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.solver.base import BatchIterativeSolver, BatchSolveResult
from repro.hw.memmodel import TrafficSplit
from repro.hw.roofline import Roofline, RooflinePoint
from repro.hw.specs import GpuSpec
from repro.hw.timing import TimingBreakdown, estimate_solve
from repro.utils.units import format_bytes, format_time


@dataclass(frozen=True)
class AdvisorReport:
    """Model-derived counterpart of the Intel Advisor GPU report."""

    spec_key: str
    timing: TimingBreakdown
    total_split: TrafficSplit
    roofline_point: RooflinePoint
    xve_threading_occupancy: float
    xve_active_fraction: float
    memory_time_fractions: dict[str, float]

    def lines(self) -> list[str]:
        """Human-readable report, printed by the Fig. 8 bench."""
        t = self.timing
        out = [
            f"platform                : {self.spec_key}",
            f"modeled runtime         : {format_time(t.total_seconds)}",
            f"XVE threading occupancy : {self.xve_threading_occupancy:.0%}",
            f"XVE array active        : {self.xve_active_fraction:.0%}",
            f"binding component       : {t.binding_component}",
            "memory traffic:",
            f"  SLM : {format_bytes(self.total_split.slm_bytes):>10s}"
            f"  ({self.total_split.fraction('slm'):.0%} of bytes,"
            f" {self.memory_time_fractions.get('slm', 0.0):.0%} of memory time)",
            f"  L2  : {format_bytes(self.total_split.l2_bytes):>10s}"
            f"  ({self.total_split.fraction('l2'):.0%} of bytes,"
            f" {self.memory_time_fractions.get('l2', 0.0):.0%} of memory time)",
            f"  HBM : {format_bytes(self.total_split.hbm_bytes):>10s}"
            f"  ({self.total_split.fraction('hbm'):.0%} of bytes,"
            f" {self.memory_time_fractions.get('hbm', 0.0):.0%} of memory time)",
            "roofline:",
            f"  achieved   : {self.roofline_point.achieved_gflops:8.1f} GFLOP/s",
            f"  binding roof : {self.roofline_point.binding_roof}",
        ]
        for level, gf in sorted(self.roofline_point.attainable_gflops_by_level.items()):
            out.append(f"  {level:>4s} roof  : {gf:8.1f} GFLOP/s attainable")
        out.append(
            f"  compute roof : {self.roofline_point.compute_roof_gflops:6.1f} GFLOP/s"
        )
        return out


def analyze_solve(
    spec: GpuSpec,
    solver: BatchIterativeSolver,
    result: BatchSolveResult,
    num_batch: int | None = None,
) -> AdvisorReport:
    """Produce the Fig. 8-style report for a measured solve on ``spec``."""
    timing = estimate_solve(spec, solver, result, num_batch=num_batch)
    groups_total = num_batch if num_batch is not None else solver.matrix.num_batch
    total_split = timing.split_per_group_iter.scaled(groups_total * timing.iterations)
    # the one-time cold footprint (first touch of A and b, write of x) is
    # HBM traffic the per-iteration split does not carry
    total_split.hbm_bytes += timing.cold_bytes
    total_split.by_object["cold_footprint"] = ("hbm", timing.cold_bytes)

    roofline = Roofline(spec)
    point = roofline.evaluate(total_split, timing.total_seconds)

    components = timing.component_seconds
    t_iter_total = max(components.values()) + spec.iter_latency_ns * 1e-9
    xve_active = components["compute"] / t_iter_total if t_iter_total > 0 else 0.0

    return AdvisorReport(
        spec_key=spec.key,
        timing=timing,
        total_split=total_split,
        roofline_point=point,
        xve_threading_occupancy=timing.occupancy.xve_threading_occupancy,
        xve_active_fraction=xve_active,
        memory_time_fractions=timing.memory_time_fractions(),
    )

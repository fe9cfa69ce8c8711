"""Profiler machinery: opt-in contract, phases, divergence, merging."""

from __future__ import annotations

import pytest

from repro.instruments import current, use
from repro.kernels import run_batch_cg_on_device
from repro.profile import (
    PHASES,
    PhaseCounters,
    Profiler,
    kernel_phase,
)
from repro.profile.counters import phase_order
from repro.profile.runner import build_workload, run_profiled
from repro.sycl.device import pvc_stack_device


class TestOptInContract:
    def test_no_profiler_by_default(self):
        assert current().profiler is None
        # markers are inert without an installed profiler + active launch
        assert kernel_phase("spmv") is None

    def test_disabled_path_collects_nothing(self):
        """A solve with no profiler installed must leave no trace anywhere."""
        matrix, b = build_workload("stencil:8", num_batch=2)
        device = pvc_stack_device(1)
        x, iters, _ = run_batch_cg_on_device(
            device, matrix, b, tolerance=0.0, max_iterations=3
        )
        assert current().profiler is None
        assert x.shape == (2, 8)

    def test_use_profiler_restores_previous(self):
        outer = Profiler()
        inner = Profiler()
        with use(profiler=outer):
            assert current().profiler is outer
            with use(profiler=inner):
                assert current().profiler is inner
            assert current().profiler is outer
        assert current().profiler is None

    def test_profiled_and_unprofiled_solves_agree(self):
        """Counting proxies must not perturb the numerics."""
        matrix, b = build_workload("stencil:8", num_batch=2)
        device = pvc_stack_device(1)
        x_plain, iters_plain, _ = run_batch_cg_on_device(
            device, matrix, b, tolerance=1e-10, max_iterations=50
        )
        with use(profiler=Profiler()):
            x_prof, iters_prof, _ = run_batch_cg_on_device(
                device, matrix, b, tolerance=1e-10, max_iterations=50
            )
        assert (x_plain == x_prof).all()
        assert (iters_plain == iters_prof).all()


class TestPhaseCounters:
    def test_phase_vocabulary(self):
        assert PHASES == ("spmv", "precond", "blas1", "reduction", "other")
        assert [phase_order(p) for p in PHASES] == sorted(
            phase_order(p) for p in PHASES
        )
        # unknown phases sort after the canonical ones
        assert phase_order("bespoke") > phase_order("other")

    def test_merge_adds_fields(self):
        a = PhaseCounters(flops=3, global_read_bytes=8, barriers=1)
        b = PhaseCounters(flops=4, slm_write_bytes=16, barriers=2)
        a.merge(b)
        assert a.flops == 7
        assert a.global_read_bytes == 8
        assert a.slm_write_bytes == 16
        assert a.barriers == 3

    def test_byte_rollups(self):
        c = PhaseCounters(
            global_read_bytes=8,
            global_write_bytes=4,
            slm_read_bytes=2,
            slm_write_bytes=1,
        )
        assert c.global_bytes == 12
        assert c.slm_bytes == 3
        assert c.total_bytes == 15


class TestDivergence:
    """Sub-group divergence events are deterministic counter facts.

    The sub-group spmv path diverges when the row count is not a
    multiple of the sub-group size: the tail sub-group's active and
    padded lanes take different branches. With a tolerance=0 fixed
    iteration count the event totals are exact.
    """

    def run(self, n: int, iters: int = 2, nb: int = 2) -> int:
        matrix, b = build_workload(f"stencil:{n}", num_batch=nb)
        prof = Profiler()
        device = pvc_stack_device(1)
        with use(profiler=prof):
            run_batch_cg_on_device(
                device,
                matrix,
                b,
                tolerance=0.0,
                max_iterations=iters,
                use_subgroup_spmv=True,
            )
        return prof.totals().divergence_events

    def test_uniform_flow_has_no_divergence(self):
        # n=16 fills the PVC sub-group exactly: every lane takes the
        # same branches, so zero events is a correctness statement
        assert self.run(16) == 0

    def test_tail_subgroup_divergence_counted(self):
        # n=40 -> 3 sub-groups of 16 with 8 tail rows: one diverging
        # sub-group per system per iteration
        assert self.run(40) == 4
        # n=50 -> 4 sub-groups, 2 tail rows: two diverging rounds
        assert self.run(50) == 8


class TestProfilerRollup:
    def test_merge_and_reset(self):
        matrix, b = build_workload("stencil:8", num_batch=2)
        a = run_profiled(
            matrix, b, solver="cg", backend="sycl", tolerance=0.0, max_iterations=2
        )
        other = run_profiled(
            matrix, b, solver="richardson", backend="sycl", max_iterations=5
        )
        a.merge(other)
        assert set(a.kernel_names()) == {
            "batch_cg_fused",
            "batch_richardson_fused",
        }
        a.reset()
        assert a.kernel_names() == []
        assert a.totals().as_dict() == PhaseCounters().as_dict()

    def test_profile_for_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            Profiler().profile_for("never_launched")

    def test_arithmetic_intensity_levels(self):
        matrix, b = build_workload("stencil:8", num_batch=2)
        prof = run_profiled(
            matrix, b, solver="cg", backend="sycl", tolerance=0.0, max_iterations=3
        )
        profile = prof.profile_for("batch_cg_fused")
        totals = profile.totals()
        assert profile.arithmetic_intensity("slm") == pytest.approx(
            totals.flops / totals.slm_bytes
        )
        assert profile.arithmetic_intensity("global") == pytest.approx(
            totals.flops / totals.global_bytes
        )
        assert profile.arithmetic_intensity("total") == pytest.approx(
            totals.flops / totals.total_bytes
        )

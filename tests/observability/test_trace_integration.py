"""End-to-end tracing through the solver, simulator, hw and multi layers."""

from __future__ import annotations

import pytest

from repro.core.dispatch import BatchSolverFactory, dispatch_solve
from repro.hw.specs import gpu
from repro.hw.timing import estimate_solve
from repro.instruments import use
from repro.kernels import run_batch_cg_on_device
from repro.multi.comm import SimWorld
from repro.multi.distributed import solve_distributed
from repro.observability import Tracer, validate_chrome_trace, write_chrome_trace
from repro.sycl.device import pvc_stack_device
from repro.sycl.queue import Queue
from repro.workloads.stencil import stencil_rhs, three_point_stencil

_LAUNCH_ARG_KEYS = {
    "num_groups",
    "work_group_size",
    "sub_group_size",
    "slm_bytes_per_group",
}


class TestSolverPath:
    @pytest.mark.parametrize("solver", ["cg", "bicgstab"])
    def test_one_fused_kernel_span_per_solve(self, solver, stencil16, stencil16_rhs):
        tracer = Tracer()
        result = dispatch_solve(
            stencil16, stencil16_rhs, solver=solver, tolerance=1e-10, tracer=tracer
        )
        assert result.converged.all()
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert len(kernel_spans) == 1  # Sec 3.4: the whole solve is one launch
        kspan = kernel_spans[0]
        assert kspan.name == f"batch_{solver}_fused"
        assert _LAUNCH_ARG_KEYS <= set(kspan.args)
        assert kspan.args["iterations"] == int(result.iterations.max())
        # the kernel span nests inside the solve span, which nests inside
        # the dispatch span
        assert kspan.parent is not None and kspan.parent.name == f"solve.{solver}"
        assert kspan.parent.parent.name == "dispatch.solve"

    @pytest.mark.parametrize("solver", ["cg", "bicgstab"])
    def test_geometry_sits_on_the_fused_kernel_span_only(
        self, solver, stencil16, stencil16_rhs
    ):
        tracer = Tracer()
        dispatch_solve(
            stencil16, stencil16_rhs, solver=solver, tolerance=1e-10, tracer=tracer
        )
        geometry = {"work_group_size", "slm_bytes_per_group"}
        carriers = [s.name for s in tracer.spans if geometry & set(s.args)]
        assert carriers == [f"batch_{solver}_fused"]

    def test_dispatch_span_carries_resolved_tuple(self, stencil16, stencil16_rhs):
        tracer = Tracer()
        dispatch_solve(
            stencil16,
            stencil16_rhs,
            solver="cg",
            preconditioner="jacobi",
            tracer=tracer,
        )
        dspan = next(s for s in tracer.spans if s.name == "dispatch.solve")
        assert dspan.args["solver"] == "cg"
        assert dspan.args["preconditioner"] == "jacobi"
        assert dspan.args["matrix_format"] == "csr"
        assert dspan.args["precision"] == "double"
        key = "dispatch.cg.csr.double"
        assert tracer.metrics.counter(key).value == 1

    def test_per_iteration_convergence_counters(self, stencil16, stencil16_rhs):
        tracer = Tracer()
        result = dispatch_solve(
            stencil16, stencil16_rhs, solver="cg", tolerance=1e-10, tracer=tracer
        )
        active = [e for e in tracer.events if e.name == "convergence.active_systems"]
        residual = [e for e in tracer.events if e.name == "convergence.worst_residual"]
        iterations = int(result.iterations.max())
        # one sample at start plus one per iteration, for both tracks
        assert len(active) == iterations + 1
        assert len(residual) == iterations + 1
        assert active[0].args["active"] == stencil16.num_batch
        assert active[-1].args["converged"] == stencil16.num_batch
        # the residual track decreases overall and samples are time-ordered
        assert residual[-1].args["residual"] < residual[0].args["residual"]
        ts = [e.ts_ns for e in active]
        assert ts == sorted(ts)
        per_system = tracer.metrics.histogram("solver.iterations_per_system")
        assert per_system.count == stencil16.num_batch

    @pytest.mark.parametrize(
        "solver", ["cg", "bicgstab", "cgs", "bicg", "richardson", "gmres"]
    )
    def test_iterations_total_is_sum_of_per_system_iterations(self, solver):
        # GMRES updates the tracker once per restart cycle, the others once
        # per iteration; the counter must not depend on that cadence
        matrix = three_point_stencil(32, 6, jitter=0.5)
        tracer = Tracer()
        result = dispatch_solve(
            matrix,
            stencil_rhs(32, 6),
            solver=solver,
            preconditioner="jacobi",
            tolerance=1e-8,
            tracer=tracer,
        )
        counter = tracer.metrics.counter("solver.iterations_total")
        assert counter.value == int(result.iterations.sum())

    def test_factory_tracer_and_explicit_solve_tracer_agree(
        self, stencil16, stencil16_rhs
    ):
        via_factory = Tracer()
        BatchSolverFactory(solver="cg", tolerance=1e-10, tracer=via_factory).solve(
            stencil16, stencil16_rhs
        )
        via_solve = Tracer()
        factory = BatchSolverFactory(solver="cg", tolerance=1e-10)
        factory.create(stencil16).solve(stencil16_rhs, tracer=via_solve)
        names = lambda t: sorted(s.name for s in t.spans if s.category == "kernel")
        assert names(via_factory) == names(via_solve) == ["batch_cg_fused"]

    def test_no_tracer_leaves_null_tracer_installed(self, stencil16, stencil16_rhs):
        from repro.observability import NULL_TRACER, current_tracer

        result = dispatch_solve(stencil16, stencil16_rhs, solver="cg")  # untraced
        assert result.converged.all()
        assert current_tracer() is NULL_TRACER
        assert NULL_TRACER.num_records == 0


class TestSimulatorPath:
    def test_queue_launch_span_matches_launch_stats(self, stencil16, stencil16_rhs):
        device = pvc_stack_device(1)
        queue = Queue(device)
        tracer = Tracer()
        with use(tracer=tracer):
            _, _, event = run_batch_cg_on_device(
                device, stencil16, stencil16_rhs, tolerance=1e-10, queue=queue
            )
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert len(kernel_spans) == 1
        span = kernel_spans[0]
        assert span.args["num_groups"] == event.stats.num_groups
        assert span.args["work_group_size"] == event.stats.local_size
        assert span.args["sub_group_size"] == event.stats.sub_group_size
        assert span.args["slm_bytes_per_group"] == event.stats.slm_bytes_per_group
        assert span.args["collectives"] == dict(event.stats.collective_counts)
        assert tracer.metrics.counter("sycl.launches").value == 1
        assert (
            tracer.metrics.counter("sycl.work_groups").value == event.stats.num_groups
        )

    def test_event_duration_ns_is_integer_nanoseconds(self, stencil16, stencil16_rhs):
        device = pvc_stack_device(1)
        queue = Queue(device)
        _, _, event = run_batch_cg_on_device(
            device, stencil16, stencil16_rhs, tolerance=1e-10, queue=queue
        )
        assert isinstance(event.duration_ns, int)
        assert event.duration_ns == event.end_ns - event.start_ns
        assert event.submit_ns <= event.start_ns <= event.end_ns
        assert event.duration_seconds == pytest.approx(event.duration_ns * 1e-9)

    def test_reset_events_clears_the_submission_log(self, stencil16, stencil16_rhs):
        device = pvc_stack_device(1)
        queue = Queue(device)
        run_batch_cg_on_device(
            device, stencil16, stencil16_rhs, tolerance=1e-10, queue=queue
        )
        assert queue.num_launches == 1
        queue.reset_events()
        assert queue.num_launches == 0
        assert queue.events == []


class TestHwPath:
    def test_estimate_solve_emits_modeled_time(self, stencil16, stencil16_rhs):
        factory = BatchSolverFactory(solver="cg", tolerance=1e-10)
        solver = factory.create(stencil16)
        result = solver.solve(stencil16_rhs)
        tracer = Tracer()
        with use(tracer=tracer):
            timing = estimate_solve(gpu("pvc1"), solver, result)
        span = next(s for s in tracer.spans if s.name == "hw.estimate_solve")
        assert span.args["platform"] == "pvc1"
        assert _LAUNCH_ARG_KEYS <= set(span.args)  # the modeled launch's plan
        assert span.args["modeled_total_s"] == pytest.approx(timing.total_seconds)
        instant = next(
            e for e in tracer.events if e.name == "hw.modeled_device_time"
        )
        assert instant.args["total_ms"] == pytest.approx(timing.total_seconds * 1e3)
        assert tracer.metrics.gauge("hw.modeled_ms.pvc1").value == pytest.approx(
            timing.total_seconds * 1e3
        )


class TestMultiPath:
    def test_lane_spans_one_per_rank(self, stencil16, stencil16_rhs):
        world = SimWorld(2)
        factory = BatchSolverFactory(solver="cg", tolerance=1e-10)
        tracer = Tracer()
        with use(tracer=tracer):
            result = solve_distributed(world, factory, stencil16, stencil16_rhs)
        assert result.all_converged
        lanes = [s for s in tracer.spans if s.category == "multi.lane"]
        assert sorted(s.tid for s in lanes) == [100, 101]
        assert sorted(s.name for s in lanes) == ["rank0.solve", "rank1.solve"]
        assert sum(s.args["batch_items"] for s in lanes) == stencil16.num_batch
        top = next(s for s in tracer.spans if s.name == "multi.solve_distributed")
        assert top.args["comm_bytes"] == result.comm_bytes > 0
        # every rank runs the full dispatch stack: one fused kernel each
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert len(kernel_spans) == world.size


class TestExportedSolveTrace:
    def test_real_solve_round_trips_through_the_validator(
        self, tmp_path, stencil16, stencil16_rhs
    ):
        tracer = Tracer()
        dispatch_solve(
            stencil16, stencil16_rhs, solver="bicgstab", tolerance=1e-10, tracer=tracer
        )
        path = write_chrome_trace(tracer, tmp_path / "solve.json")
        counts = validate_chrome_trace(path)
        assert counts["kernel_spans"] == 1
        assert counts["counters"] > 0

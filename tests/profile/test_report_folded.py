"""Attribution report rows and flamegraph (folded-stack) exports."""

from __future__ import annotations

import re

from repro.instruments import use
from repro.kernels import run_batch_cg_on_device
from repro.observability import Tracer
from repro.profile import Profiler
from repro.profile.folded import folded_from_trace, folded_lines, write_folded
from repro.profile.report import attribution_rows, format_report
from repro.profile.runner import build_workload, run_profiled
from repro.sycl.device import pvc_stack_device


def cg_profiler() -> Profiler:
    matrix, b = build_workload("stencil:8", num_batch=2)
    return run_profiled(
        matrix, b, solver="cg", backend="sycl", tolerance=0.0, max_iterations=3
    )


class TestAttributionRows:
    def test_rows_cover_phases_and_total(self):
        rows = attribution_rows(cg_profiler())
        phases = [r["phase"] for r in rows if r["kernel"] == "batch_cg_fused"]
        assert phases == ["spmv", "precond", "blas1", "reduction", "total"]

    def test_total_row_carries_intensities_and_sums(self):
        rows = attribution_rows(cg_profiler())
        total = next(r for r in rows if r["phase"] == "total")
        phase_rows = [r for r in rows if r["phase"] != "total"]
        assert total["flops"] == sum(r["flops"] for r in phase_rows)
        assert total["global_B"] == sum(r["global_B"] for r in phase_rows)
        assert total["AI_slm"] > 0
        assert total["AI_global"] > 0
        # flop% sums to 100 over the phases
        assert abs(sum(r["flop%"] for r in phase_rows) - 100.0) < 1e-9

    def test_rows_share_keys(self):
        rows = attribution_rows(cg_profiler(), backend="sycl")
        keys = {tuple(sorted(r)) for r in rows}
        assert len(keys) == 1
        assert rows[0]["backend"] == "sycl"

    def test_format_report_renders_backends(self):
        prof = cg_profiler()
        text = format_report({"sycl": prof, "cuda": prof}, title="t")
        assert "sycl" in text and "cuda" in text
        assert "batch_cg_fused" in text
        assert "spmv" in text


class TestFoldedExport:
    def test_lines_format_and_weights(self):
        prof = cg_profiler()
        lines = folded_lines(prof, weight="flops")
        assert lines
        pattern = re.compile(r"^batch_cg_fused;[a-z0-9_]+ \d+$")
        assert all(pattern.match(line) for line in lines)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == prof.totals().flops

    def test_alternate_weight_field(self):
        prof = cg_profiler()
        lines = folded_lines(prof, weight="barriers")
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == prof.totals().barriers
        # reduction has no barriers in the fused CG kernel: dropped
        assert not any(";reduction " in line for line in lines)

    def test_write_folded_round_trip(self, tmp_path):
        prof = cg_profiler()
        lines = folded_lines(prof)
        path = write_folded(lines, str(tmp_path / "out.folded"))
        assert (tmp_path / "out.folded").read_text().splitlines() == lines
        assert path == str(tmp_path / "out.folded")


class TestFoldedFromTrace:
    def test_kernel_spans_split_by_phase_share(self):
        matrix, b = build_workload("stencil:8", num_batch=2)
        tracer = Tracer()
        profiler = Profiler()
        device = pvc_stack_device(1)
        with use(tracer=tracer, profiler=profiler):
            run_batch_cg_on_device(
                device, matrix, b, tolerance=0.0, max_iterations=3
            )
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert kernel_spans, "queue must emit kernel spans under a tracer"
        lines = folded_from_trace(tracer, profiler)
        assert lines
        # every line ends with a positive integer weight and leaf frames
        # include the profiled phases
        leaves = {line.rsplit(" ", 1)[0].rsplit(";", 1)[-1] for line in lines}
        assert {"spmv", "blas1", "reduction"} <= leaves
        # the per-span shares (plus remainder lines) conserve wall time
        total_ns = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        span_ns = sum(
            max(0, s.end_ns - s.start_ns)
            for s in kernel_spans
        )
        assert total_ns == span_ns

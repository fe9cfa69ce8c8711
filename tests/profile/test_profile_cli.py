"""`repro profile` subcommands (report, roofline, export) and
`repro run --with profile`."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main

SMALL = ["--workload", "stencil:8", "--batch", "2", "--solvers", "cg",
         "--max-iters", "5"]


class TestReport:
    def test_report_prints_attribution_for_both_backends(self, capsys):
        code = repro_main(["profile", "report", *SMALL])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch_cg_fused" in out
        for phase in ("spmv", "precond", "blas1", "reduction", "total"):
            assert phase in out
        assert "sycl" in out and "cuda" in out

    def test_single_backend_selection(self, capsys):
        code = repro_main(
            ["profile", "report", *SMALL, "--backends", "sycl"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sycl" in out
        assert "cuda" not in out

    def test_unknown_workload_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["profile", "report", "--workload", "nope"])
        assert exc.value.code == 2
        assert "repro profile:" in capsys.readouterr().err


class TestRoofline:
    def test_green_drift_exits_zero(self, capsys):
        code = repro_main(
            [
                "profile",
                "roofline",
                "--workload",
                "stencil:16",
                "--batch",
                "4",
                "--solver",
                "cg",
                "--platform",
                "pvc1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "green" in out
        assert "binding roof" in out

    def test_impossible_tolerance_exits_nonzero(self, capsys):
        code = repro_main(
            [
                "profile",
                "roofline",
                "--workload",
                "stencil:16",
                "--batch",
                "4",
                "--solver",
                "cg",
                "--platform",
                "pvc1",
                "--drift-tolerance",
                "0.0",
            ]
        )
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out


class TestExport:
    def test_folded_and_json_outputs(self, tmp_path, capsys):
        folded = tmp_path / "out.folded"
        as_json = tmp_path / "out.json"
        code = repro_main(
            [
                "profile",
                "export",
                *SMALL,
                "--backends",
                "sycl",
                "--out",
                str(folded),
                "--json-out",
                str(as_json),
            ]
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        assert all(line.startswith("sycl;batch_cg_fused;") for line in lines)
        snapshot = json.loads(as_json.read_text())
        assert "sycl" in snapshot
        assert "batch_cg_fused" in snapshot["sycl"]


class TestWrapper:
    def test_wrapped_command_gets_profiled(self, capsys):
        """`run --with profile <cmd>` runs the command under a live profiler
        and prints attribution for any instrumented launches it performed."""
        code = repro_main(
            ["run", "--with", "profile", "sanitize", "diff", "--batch", "2", "--rows", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "batch_cg_fused" in out

    def test_wrapped_command_without_kernels_reports_nothing(self, capsys):
        # `tables` prints static tables without launching any kernels
        code = repro_main(["run", "--with", "profile", "tables"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no instrumented kernel launches" in out

    def test_report_prints_after_a_failing_command(self, capsys):
        code = repro_main(["run", "--with", "profile", "stencil", "--sizes", "notanint"])
        assert code == 2
        captured = capsys.readouterr()
        assert "profile: no instrumented kernel launches" in captured.out
        assert "warning: wrapped command exited 2" in captured.err

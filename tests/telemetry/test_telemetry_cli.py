"""CLI surface: ``repro slo``, ``repro run --with slo``, ``repro top``,
serve-demo telemetry dumps."""

import json

import pytest

from repro.__main__ import main as repro_main

_FAST = ["--requests", "6", "--epochs", "2", "--size", "8", "--batch-size", "4"]


class TestSloCheck:
    def test_clean_workload_is_healthy(self, capsys):
        code = repro_main(["slo", "check", *_FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo burn state" in out
        assert "all objectives healthy" in out

    def test_seeded_regression_pages_nonzero(self, capsys):
        code = repro_main(
            [
                "slo",
                "check",
                *_FAST,
                "--inject-latency-ms",
                "5000",
                "--inject-fraction",
                "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "BURNING" in captured.out
        assert "latency_p99" in captured.err

    def test_report_mode_never_gates(self, capsys):
        code = repro_main(
            [
                "slo",
                "report",
                *_FAST,
                "--inject-latency-ms",
                "5000",
                "--inject-fraction",
                "0.5",
            ]
        )
        assert code == 0
        assert "BURNING" in capsys.readouterr().out

    def test_custom_specs_file(self, tmp_path, capsys):
        from repro.telemetry import dump_slos, ratio_slo

        specs = tmp_path / "slos.json"
        dump_slos(
            [ratio_slo("only_fb", bad=("serve.fallbacks",), total="serve.served",
                       objective=0.95)],
            specs,
        )
        code = repro_main(["slo", "check", *_FAST, "--specs", str(specs)])
        out = capsys.readouterr().out
        assert code == 0
        assert "only_fb" in out
        assert "latency_p99" not in out

    def test_usage_error_without_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["slo"])
        assert exc.value.code == 2
        assert "{check,report}" in capsys.readouterr().err


class TestSloOffline:
    def test_report_scores_a_prometheus_dump(self, tmp_path, capsys):
        from repro.observability import render_prometheus
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_hdr_ms")
        for _ in range(50):
            hist.observe(2.0)
        registry.counter("serve.fallbacks").inc(0)
        registry.counter("serve.served").inc(50)
        registry.counter("serve.failed").inc(0)
        registry.counter("serve.accepted").inc(50)
        dump = tmp_path / "metrics.prom"
        dump.write_text(render_prometheus(registry))

        code = repro_main(["slo", "report", "--metrics-in", str(dump)])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo compliance" in out

    def test_check_fails_on_violated_dump(self, tmp_path, capsys):
        from repro.observability import render_prometheus
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_hdr_ms")
        for _ in range(5):
            hist.observe(2.0)
        for _ in range(5):
            hist.observe(50000.0)
        registry.counter("serve.fallbacks").inc(0)
        registry.counter("serve.served").inc(10)
        registry.counter("serve.failed").inc(0)
        registry.counter("serve.accepted").inc(10)
        dump = tmp_path / "metrics.prom"
        dump.write_text(render_prometheus(registry))

        code = repro_main(["slo", "check", "--metrics-in", str(dump)])
        assert code == 1
        assert "latency_p99" in capsys.readouterr().err


class TestSloWrapper:
    def test_wrapped_command_scored_at_exit(self, tmp_path, capsys):
        events_out = tmp_path / "events.jsonl"
        code = repro_main(
            [
                "run",
                "--with",
                "slo",
                "--slo-events-out",
                str(events_out),
                "serve-demo",
                "--requests",
                "8",
                "--size",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slo compliance (wrapped command)" in out
        assert "all objectives met" in out
        # the hub's shared event log saw the wrapped service's events
        records = [json.loads(l) for l in events_out.read_text().splitlines()]
        assert any(r["type"] == "request.solved" for r in records)

    def test_wrapped_command_without_services(self, capsys):
        code = repro_main(["run", "--with", "slo", "tables"])
        assert code == 0
        assert "nothing to score" in capsys.readouterr().out

    def test_wrapped_failure_propagates(self, capsys):
        code = repro_main(["run", "--with", "slo", "definitely-not-a-command"])
        assert code != 0

    def test_violation_turns_success_into_failure(self, capsys):
        # no latency this small: every request breaks the objective
        code = repro_main(
            ["run", "--with", "slo", "--slo-threshold-ms", "1e-6",
             "serve-demo", "--requests", "8", "--size", "8"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "slo: VIOLATED — latency_p99" in captured.err
        # the command itself succeeded, so no exit warning
        assert "wrapped command exited" not in captured.err


class TestTop:
    def test_one_frame_renders(self, capsys):
        code = repro_main(
            [
                "top",
                "--frames",
                "1",
                "--interval",
                "0.05",
                "--requests",
                "6",
                "--size",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top — frame 1/1" in out
        assert "slo burn state" in out


class TestServeDemoDumps:
    def test_metrics_and_events_files(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.prom"
        events_out = tmp_path / "events.jsonl"
        code = repro_main(
            [
                "serve-demo",
                "--requests",
                "8",
                "--size",
                "8",
                "--metrics-out",
                str(metrics_out),
                "--events-out",
                str(events_out),
            ]
        )
        assert code == 0
        text = metrics_out.read_text()
        assert "# TYPE serve_accepted counter" in text
        records = [json.loads(l) for l in events_out.read_text().splitlines()]
        assert records
        assert all(r["schema_version"] == 1 for r in records)
        types = {r["type"] for r in records}
        assert {"request.admitted", "request.solved"} <= types
        assert "request.flushed" not in types
        # the dump is scoreable offline
        code = repro_main(["slo", "report", "--metrics-in", str(metrics_out)])
        assert code == 0

"""The ``repro chaos`` CLI (replay gate, battery gate) and
``repro run --with chaos``."""

import pytest

from repro.__main__ import main

COMMON = ["--requests", "40", "--rate", "400", "--size", "16"]


class TestChaosReplay:
    def test_clean_replay_passes(self, capsys):
        assert main(["chaos", "replay", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "SLO verdicts" in out
        assert "per-tenant outcomes" in out

    def test_fault_replay_passes_and_reports_injections(self, capsys):
        assert main(["chaos", "replay", *COMMON, "--faults"]) == 0
        out = capsys.readouterr().out
        assert "injected faults:" in out

    def test_trace_out_then_in_round_trips(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(["chaos", "replay", *COMMON, "--trace-out", trace_path]) == 0
        assert main(["chaos", "replay", "--trace-in", trace_path, "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "40 requests" in out


class TestChaosBattery:
    def test_battery_gate_passes(self, capsys):
        # 40 requests / batch 8 = 5+ flushes: every cadenced kind fires
        # except the every=7 and every=11 ones need more flushes — use a
        # smaller batch so the battery covers all kinds
        code = main(
            ["chaos", "battery", "--requests", "60", "--rate", "400",
             "--size", "16", "--batch-size", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "zero lost" in out

    def test_battery_runs_against_a_fleet(self, capsys):
        code = main(
            ["chaos", "battery", "--requests", "60", "--rate", "400",
             "--size", "16", "--batch-size", "4", "--shards", "2"]
        )
        assert code == 0


class TestChaosWrapper:
    def test_wraps_serve_demo(self, capsys):
        code = main(
            ["run", "--with", "chaos", "--fault-seed", "3",
             "serve-demo", "--requests", "16", "--size", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault battery (seed 3) installed for: serve-demo" in out
        assert "chaos:" in out

    def test_no_command_is_usage_error(self, capsys):
        for argv in (["chaos"], ["run", "--with", "chaos"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_bad_fault_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--with", "chaos", "--fault-seed", "nope", "serve-demo"])
        assert exc.value.code == 2
        assert "argument --fault-seed: invalid int value: 'nope'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["run", "--with", "chaos", "--fault-seed"])
        assert exc.value.code == 2
        # after the command the flag is serve-demo's, which rejects it
        assert main(["run", "--with", "chaos", "serve-demo", "--fault-seed", "3"]) == 2

    def test_summary_prints_after_a_failing_command(self, capsys):
        code = main(["run", "--with", "chaos", "stencil", "--sizes", "notanint"])
        assert code == 2
        assert "chaos: 0 fault(s) injected over 0 flushes (none)" in capsys.readouterr().out

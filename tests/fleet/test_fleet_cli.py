"""The fleet CLI surfaces: fleet-demo and top --shards (serve-demo has none)."""

import json

import pytest

from repro.__main__ import main
from repro.telemetry import dashboard_text
from repro.observability.metrics import MetricsRegistry


class TestFleetDemo:
    def test_manual_lifecycle(self, capsys, tmp_path):
        metrics_out = tmp_path / "fleet.prom"
        events_out = tmp_path / "fleet_events.jsonl"
        code = main(
            [
                "fleet-demo",
                "--requests", "12", "--keys", "4", "--size", "8",
                "--batch-size", "2", "--shards", "2",
                "--rate", "10000",
                "--metrics-out", str(metrics_out),
                "--events-out", str(events_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-shard counters" in out
        assert "scale-up: started shard-2" in out
        assert "scale-down: drained" in out
        assert "fleet metrics" in out
        assert "fleet_replicas" in metrics_out.read_text()
        events = [
            json.loads(line) for line in events_out.read_text().splitlines()
        ]
        assert any(ev["type"] == "fleet.rebalance" for ev in events)
        # every shard's request lifecycle lands in the fleet's log
        assert sum(ev["type"] == "request.solved" for ev in events) == 12

    def test_autoscale_flag_removed(self, capsys):
        # the fleet has no autoscaler: scale_up and scale_down are called
        # by hand, and the demo calls each once
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet-demo", "--autoscale"])
        assert exit_info.value.code == 2
        assert "--autoscale" in capsys.readouterr().err


class TestServeDemoShards:
    def test_shards_flag_removed(self, capsys):
        # fleet-demo is the one CLI path through the fleet
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-demo", "--shards", "2"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_default_path_unchanged(self, capsys):
        code = main(
            ["serve-demo", "--requests", "4", "--size", "8", "--batch-size", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serve metrics" in out
        assert "per-shard counters" not in out


class TestTopFleetPanel:
    def test_top_shards_renders_panel(self, capsys):
        code = main(
            [
                "top", "--shards", "2", "--frames", "1", "--interval", "0.05",
                "--requests", "8", "--size", "8", "--batch-size", "2",
                "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet shards" in out
        assert "ring occupancy:" in out

    def test_dashboard_fleet_section_is_duck_typed(self):
        class _StubFleet:
            def shard_stats(self):
                return [
                    {
                        "shard": "shard-0", "state": "active", "pending": 1,
                        "accepted": 5, "served": 4, "rejected": 0,
                        "failed": 0, "flushes": 2, "fallbacks": 3,
                        "p99_ms": 12.5, "breaker": "open",
                    },
                    {
                        "shard": "shard-1", "state": "draining", "pending": 0,
                        "accepted": 2, "served": 2, "rejected": 0,
                        "failed": 0, "flushes": 1, "fallbacks": 0,
                        "p99_ms": float("nan"), "breaker": "closed",
                    },
                ]

            def ring_occupancy(self):
                return {"shard-0": 0.6, "shard-1": 0.4}

        frame = dashboard_text(MetricsRegistry(), fleet=_StubFleet())
        assert "fleet shards" in frame
        assert "shard-0" in frame and "draining" in frame
        assert "12.5" in frame
        assert "breaker" in frame and "open" in frame
        # NaN p99 (no samples yet) renders as a dash, not 'nan'
        assert "nan" not in frame
        assert "ring occupancy: shard-0 60.0%, shard-1 40.0%" in frame

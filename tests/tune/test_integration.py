"""Tuning integration: the heuristic launch configurator and the CLI."""

import pytest

from repro.__main__ import main as cli_main
from repro.core.launch import LaunchConfigurator
from repro.sycl.device import pvc_stack_device

DEVICE = pvc_stack_device(1)


class TestLaunchConfiguratorWithDB:
    def test_no_db_keeps_heuristic(self):
        assert LaunchConfigurator(DEVICE).geometry(32).sub_group_size == 16


class TestCli:
    def test_tune_show_clear_flow(self, tmp_path, capsys):
        db = str(tmp_path / "db.json")
        code = cli_main(
            [
                "tune",
                "tune",
                "--platform",
                "pvc1",
                "--rows",
                "16",
                "--nb-solve",
                "4",
                "--db",
                db,
                "--strategy",
                "random",
                "--budget",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "searched" in out and "speedup" in out

        assert cli_main(["tune", "show", "--db", db]) == 0
        assert "tuning DB" in capsys.readouterr().out

        assert cli_main(["tune", "clear", "--db", db, "--platform", "pvc1"]) == 0
        assert "removed 1 record" in capsys.readouterr().out

        assert cli_main(["tune", "show", "--db", db]) == 0
        assert "no records" in capsys.readouterr().out

    def test_tune_requires_platform(self):
        with pytest.raises(SystemExit):
            cli_main(["tune", "tune", "--rows", "16"])

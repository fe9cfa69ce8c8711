"""The ASCII chart helpers and the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.bench.ascii_chart import bar_chart, series_chart, sparkline


class TestBarChart:
    def test_basic_rendering(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith(" a |")
        assert lines[2].count("#") > lines[1].count("#")

    def test_log_scale_compresses(self):
        text = bar_chart(["x", "y"], [1.0, 1000.0], log_scale=True, width=10)
        small, big = text.splitlines()
        assert big.count("#") <= 10
        assert small.count("#") >= 1

    def test_zero_values_linear(self):
        text = bar_chart(["z", "o"], [0.0, 5.0])
        assert text.splitlines()[0].count("#") == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            bar_chart(["a"], [-1.0])
        with pytest.raises(ValueError, match="log scale"):
            bar_chart(["a"], [0.0], log_scale=True)

    def test_unit_suffix(self):
        assert "3x" in bar_chart(["a"], [3.0], unit="x")


class TestSeriesAndSparkline:
    def test_series_chart_groups(self):
        text = series_chart([1, 2], {"cg": [1.0, 2.0], "bicgstab": [2.0, 4.0]})
        assert "-- cg --" in text
        assert "-- bicgstab --" in text

    def test_series_length_validated(self):
        with pytest.raises(ValueError):
            series_chart([1, 2], {"cg": [1.0]})

    def test_sparkline_trend(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▁▁▁"


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("tables", "figures", "features", "pele", "stencil", "advisor"):
            args = parser.parse_args(
                [command] if command not in ("pele", "advisor") else [command]
            )
            assert callable(args.fn)

    def test_features_command_runs(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "bicgstab" in out
        assert "(+)" in out

    def test_tables_command_runs(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "PVC-2S" in out

    def test_advisor_command_runs(self, capsys):
        assert main(["advisor", "--mechanism", "drm19", "--batch", "8192"]) == 0
        out = capsys.readouterr().out
        assert "XVE threading occupancy" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_readme_lists_exactly_the_parsers_commands(self):
        readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
        listed = re.search(r"``python -m repro (\{[^}]*\})``", readme).group(1)
        commands = re.search(r"\{[^}]*\}", build_parser().format_usage()).group(0)
        assert listed == commands

    def test_top_level_help_lists_run(self):
        assert "\n    run " in build_parser().format_help()

    @pytest.mark.parametrize(
        "noun, verbs",
        [
            ("sanitize", "{selftest,check,diff}"),
            ("profile", "{report,roofline,export}"),
            ("slo", "{check,report}"),
            ("chaos", "{replay,battery}"),
            ("postmortem", "{analyze,timeline,diff}"),
        ],
    )
    def test_noun_help_lists_its_verbs(self, capsys, noun, verbs):
        with pytest.raises(SystemExit) as exc:
            main([noun, "--help"])
        assert exc.value.code == 0
        assert verbs in capsys.readouterr().out
